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
// the named artifact: per sub-benchmark, one ns/op sample and its extra
// "value unit" metrics, each result split over two output events, and
// only a benchmark's first result tagged with its name, as go test -json
// writes them under -count.
func writeBenchJSON(t *testing.T, artifact string, subs []benchSample) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	buf.WriteString("not a JSON line\n")
	tagged := map[string]bool{}
	for _, s := range subs {
		test := ""
		if !tagged[s.name] {
			tagged[s.name], test = true, s.name
		}
		enc.Encode(map[string]string{"Action": "output", "Test": test, "Output": s.name + "-2   \t"})
		out := fmt.Sprintf("      30\t  %.0f ns/op", s.ns)
		for _, m := range s.metrics {
			out += "\t  " + m
		}
		enc.Encode(map[string]string{"Action": "output", "Test": test, "Output": out + "\t  0 B/op\n"})
	}
	if err := os.WriteFile(filepath.Join(dir, artifact), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

type benchSample struct {
	name    string
	ns      float64
	metrics []string // extra "value unit" fields
}

// sample is a benchSample with extra metric fields.
func sample(name string, ns float64, metrics ...string) benchSample {
	return benchSample{name, ns, metrics}
}

// gateCase runs one benchmark gate on one artifact.
type gateCase struct {
	name string
	subs []benchSample
	cpus int
	code int
}

func runGateCases(t *testing.T, gate, artifact string, cases []gateCase) {
	t.Helper()
	defer func(f func() int) { numCPU = f }(numCPU)
	for _, tc := range cases {
		numCPU = func() int { return tc.cpus }
		var stdout, stderr bytes.Buffer
		if code := run([]string{gate}, writeBenchJSON(t, artifact, tc.subs), &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, &stdout, &stderr)
		}
	}
	var out bytes.Buffer
	if code := run([]string{gate}, t.TempDir(), &out, &out); code != 2 {
		t.Errorf("missing artifact: exit %d, want 2", code)
	}
}

// TestPairSearchGate runs the pair-search gate on artifacts that hold it
// and on artifacts that break each of its three gates.
func TestPairSearchGate(t *testing.T) {
	const par1, par4 = "BenchmarkBestPairExhaustive6/par1", "BenchmarkBestPairExhaustive6/par4"
	const node = "BenchmarkReturnPrefixNode/"
	good := []benchSample{
		sample(par1, 4e7, "2367 rho"), sample(par1, 3.9e7, "2367 rho"), sample(par4, 1.9e7, "2367 rho"),
		sample(node+"update", 6e5), sample(node+"refactor", 7.5e5), sample(node+"screen", 2e5),
		sample(node+"interleaved", 1.4e6, "1.62 refactor/update"),
		sample(node+"interleaved", 1.3e6, "1.48 refactor/update"),
		sample(node+"interleaved", 1.5e6, "1.55 refactor/update"),
	}
	with := func(extra ...benchSample) []benchSample {
		return append(append([]benchSample(nil), good...), extra...)
	}
	// Two more samples under 1.5 move the median of five to 1.49.
	slow := with(sample(node+"interleaved", 1.3e6, "1.49 refactor/update"),
		sample(node+"interleaved", 1.3e6, "1.40 refactor/update"))
	runGateCases(t, "pairsearch", "BENCH_pr7.json", []gateCase{
		{"holds", good, 4, 0},
		{"holds on 2 CPUs", good, 2, 0},
		{"rho diverged", with(sample(par4, 2e7, "2366 rho")), 4, 1},
		{"par4 under 2x", with(sample(par1, 2.5e7, "2367 rho")), 4, 1},
		{"par4 under 2x on 2 CPUs", with(sample(par1, 2.5e7, "2367 rho")), 2, 0},
		{"update under 1.5x", slow, 2, 1},
		{"no par4 samples", good[:2], 4, 2},
		{"no interleaved samples", good[:6], 4, 2},
	})
}

// TestAffineGate runs the affine gate on an artifact that holds it and on
// artifacts that break each of its gates.
func TestAffineGate(t *testing.T) {
	const flat, bb = "BenchmarkBestFIFOAffine12/flat", "BenchmarkBestFIFOAffine12/bb"
	const p16 = "BenchmarkBestFIFOAffine16"
	const fast, descent = "BenchmarkSweepPortVertex/fastpath", "BenchmarkSweepPortVertex/descent"
	const bbMetrics = "1.25e-01 rho"
	good := []benchSample{
		sample(flat, 5e6, bbMetrics), sample(flat, 4.8e6, bbMetrics),
		sample(bb, 9e5, bbMetrics, "400 leaves/op", "0.902 pruned-frac"),
		sample(bb, 9.5e5, bbMetrics, "400 leaves/op", "0.902 pruned-frac"),
		sample(p16, 2e9, "1.31e-01 rho"),
		sample(fast, 1e6), sample(descent, 3e6),
	}
	with := func(extra ...benchSample) []benchSample {
		return append(append([]benchSample(nil), good...), extra...)
	}
	without := func(name string) []benchSample {
		var out []benchSample
		for _, s := range good {
			if s.name != name {
				out = append(out, s)
			}
		}
		return out
	}
	runGateCases(t, "affine", "BENCH_pr9.json", []gateCase{
		{"holds", good, 2, 0},
		{"winners differ", with(sample(bb, 9e5, "1.2500000001e-01 rho", "0.902 pruned-frac")), 2, 1},
		{"bb under 5x", with(sample(flat, 4.4e6, bbMetrics)), 2, 1},
		{"bb at exactly 5x", append(without(flat), sample(flat, 4.5e6, bbMetrics)), 2, 0},
		{"half the lattice pruned", append(without(bb), sample(bb, 9e5, bbMetrics, "0.5 pruned-frac")), 2, 1},
		{"no pruned-frac samples", append(without(bb), sample(bb, 9e5, bbMetrics)), 2, 2},
		{"p=16 did not run", without(p16), 2, 2},
		{"no sweep samples", without(descent), 2, 2},
		{"no rho samples", []benchSample{sample(flat, 5e6), sample(bb, 9e5, "0.9 pruned-frac")}, 2, 1},
	})
}
