package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeReports writes dlsload-shaped reports, one per name, into a new
// directory.
func writeReports(t *testing.T, rps map[string]float64) string {
	t.Helper()
	dir := t.TempDir()
	for name, r := range rps {
		body := fmt.Sprintf(`{"mix":"search","requests":100,"rps":%g,"codes":{"200":100}}`, r)
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGates runs each gate on reports that pass it and on reports that
// break it, and checks the artifact the gate writes.
func TestGates(t *testing.T) {
	for _, tc := range []struct {
		name string
		rps  map[string]float64
		code int
	}{
		{"batching", map[string]float64{"search_on": 900, "search_off": 300, "chain": 8000}, 0},
		{"batching", map[string]float64{"search_on": 600, "search_off": 300, "chain": 8000}, 0},
		{"batching", map[string]float64{"search_on": 599, "search_off": 300, "chain": 8000}, 1},
		{"tracing", map[string]float64{"trace_on": 9600, "trace_off": 10000}, 0},
		{"tracing", map[string]float64{"trace_on": 9400, "trace_off": 10000}, 1},
	} {
		dir := writeReports(t, tc.rps)
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.name}, dir, &stdout, &stderr); code != tc.code {
			t.Errorf("%s on %v: exit %d, want %d\n%s%s", tc.name, tc.rps, code, tc.code, &stdout, &stderr)
			continue
		}
		g := gates[tc.name]
		data, err := os.ReadFile(filepath.Join(dir, g.out))
		if err != nil {
			t.Fatalf("%s: artifact: %v", tc.name, err)
		}
		var artifact map[string]json.RawMessage
		if err := json.Unmarshal(data, &artifact); err != nil {
			t.Fatalf("%s: artifact %s: %v", tc.name, data, err)
		}
		var ratio float64
		if err := json.Unmarshal(artifact[g.key], &ratio); err != nil || ratio != tc.rps[g.num]/tc.rps[g.den] {
			t.Errorf("%s: artifact ratio %s (%v), want %g", tc.name, artifact[g.key], err, tc.rps[g.num]/tc.rps[g.den])
		}
		if len(artifact) != len(tc.rps)+1 {
			t.Errorf("%s: artifact keys %d, want the %d reports and the ratio", tc.name, len(artifact), len(tc.rps))
		}
	}
}

// TestGateBadInput: a missing report, a report without throughput and
// an unknown gate are usage errors, not passes.
func TestGateBadInput(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		args []string
		rps  map[string]float64
	}{
		{[]string{"batching"}, map[string]float64{"search_on": 900, "search_off": 300}},
		{[]string{"tracing"}, map[string]float64{"trace_on": 900, "trace_off": 0}},
		{[]string{"nope"}, nil},
		{nil, nil},
	} {
		if code := run(tc.args, writeReports(t, tc.rps), &out, &out); code != 2 {
			t.Errorf("%v on %v: exit %d, want 2", tc.args, tc.rps, code)
		}
	}
}
