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

// writeBenchJSON writes a go test -json stream into a new directory as
// BENCH_pr7.json: per sub-benchmark, its ns/op samples (and rho, when
// non-empty), each result split over two output events as go test writes
// them.
func writeBenchJSON(t *testing.T, subs []benchSample) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	buf.WriteString("not a JSON line\n")
	for _, s := range subs {
		enc.Encode(map[string]string{"Action": "output", "Test": s.name, "Output": s.name + "-2   \t"})
		out := fmt.Sprintf("      30\t  %.0f ns/op", s.ns)
		if s.rho != "" {
			out += "\t  " + s.rho + " rho"
		}
		enc.Encode(map[string]string{"Action": "output", "Test": s.name, "Output": out + "\t  0 B/op\n"})
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_pr7.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

type benchSample struct {
	name string
	ns   float64
	rho  string
}

// TestPairSearchGate runs the pair-search gate on artifacts that hold it
// and on artifacts that break each of its three gates.
func TestPairSearchGate(t *testing.T) {
	defer func(f func() int) { numCPU = f }(numCPU)
	const par1, par4 = "BenchmarkBestPairExhaustive6/par1", "BenchmarkBestPairExhaustive6/par4"
	const update, refactor = "BenchmarkReturnPrefixNode/update", "BenchmarkReturnPrefixNode/refactor"
	good := []benchSample{
		{par1, 4e7, "2367"}, {par1, 3.9e7, "2367"}, {par4, 1.9e7, "2367"},
		{update, 6e5, ""}, {update, 5e5, ""}, {refactor, 7.5e5, ""}, {"BenchmarkReturnPrefixNode/screen", 2e5, ""},
	}
	with := func(extra ...benchSample) []benchSample {
		return append(append([]benchSample(nil), good...), extra...)
	}
	for _, tc := range []struct {
		name string
		subs []benchSample
		cpus int
		code int
	}{
		{"holds", good, 4, 0},
		{"holds on 2 CPUs", good, 2, 0},
		{"rho diverged", with(benchSample{par4, 2e7, "2366"}), 4, 1},
		{"par4 under 2x", with(benchSample{par1, 2.5e7, "2367"}), 4, 1},
		{"par4 under 2x on 2 CPUs", with(benchSample{par1, 2.5e7, "2367"}), 2, 0},
		{"update under 1.5x", with(benchSample{refactor, 7.4e5, ""}), 2, 1},
		{"no par4 samples", good[:2], 4, 2},
		{"no refactor samples", good[:5], 4, 2},
	} {
		numCPU = func() int { return tc.cpus }
		var stdout, stderr bytes.Buffer
		if code := run([]string{"pairsearch"}, writeBenchJSON(t, tc.subs), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, &stdout, &stderr)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"pairsearch"}, t.TempDir(), &out, &out); code != 2 {
		t.Errorf("missing artifact: exit %d, want 2", code)
	}
}
