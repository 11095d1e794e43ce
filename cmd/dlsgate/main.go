// Command dlsgate checks CI gates over benchmark artifacts in the current
// directory. The throughput gates read dlsload -json reports, divide one
// run's rps by the other's, write the reports and the ratio into the
// gate's artifact file, and fail when the ratio falls under the gate's
// threshold:
//
//	dlsgate batching    # search_on.json / search_off.json >= 2, with chain.json, into BENCH_pr5.json
//	dlsgate tracing     # trace_on.json / trace_off.json >= 0.95, into BENCH_pr10.json
//
// The benchmark gates read a go test -json stream of benchmarks and take
// each sub-benchmark's fastest ns/op:
//
//	dlsgate pairsearch  # BENCH_pr7.json: BestPairExhaustive6 has one ρ across its subs, and
//	                    # par1/par4 >= 2 on >= 4 CPUs; ReturnPrefixNode refactor/update >= 1.5
//	dlsgate affine      # BENCH_pr9.json: BestFIFOAffine12 has one ρ across flat and bb,
//	                    # flat/bb >= 5 and > 50% pruned; BestFIFOAffine16 ran
//
// Two gates read other inputs:
//
//	dlsgate fma         # stdin: an arm64 assembly listing of internal/eval/kern and internal/eval
//	                    # shows no fused multiply-add in kern's ref* loops or eval's fifoTight
//	dlsgate fleet       # dlsctl's /fleet on 127.0.0.1:9090 is all healthy on ports >= 8083
//	                    # within 90 s of a rolling restart; writes fleet.json
//
// It exits 0 when the gate holds, 1 when it fails and 2 on a usage error
// or an unreadable report.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// gate compares the rps of the num report with that of the den report.
type gate struct {
	num, den string   // report names, read from <name>.json
	extra    []string // further reports copied into the artifact
	min      float64  // the lowest passing num/den ratio
	key      string   // the ratio's key in the artifact
	out      string   // the artifact file
	fail     string   // the message when the ratio is under min
}

var gates = map[string]gate{
	// Micro-batching must at least double solver-bound throughput.
	"batching": {
		num: "search_on", den: "search_off", extra: []string{"chain"},
		min: 2, key: "batching_speedup", out: "BENCH_pr5.json",
		fail: "micro-batching speedup fell under 2x on the search workload",
	},
	// Tracing is on by default, so it must be close to free.
	"tracing": {
		num: "trace_on", den: "trace_off",
		min: 0.95, key: "tracing_throughput_ratio", out: "BENCH_pr10.json",
		fail: "tracing overhead gate: traced throughput fell under 0.95x untraced",
	},
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run checks the gate args names against the reports in dir.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		if gate, ok := gateFuncs[args[0]]; ok {
			return gate(dir, stdout, stderr)
		}
		if g, ok := gates[args[0]]; ok {
			return g.check(dir, stdout, stderr)
		}
	}
	names := append(slices.Collect(maps.Keys(gateFuncs)), slices.Collect(maps.Keys(gates))...)
	slices.Sort(names)
	fmt.Fprintf(stderr, "usage: dlsgate %s\n", strings.Join(names, "|"))
	return 2
}

// check runs one throughput gate against the reports in dir.
func (g gate) check(dir string, stdout, stderr io.Writer) int {
	artifact := map[string]any{}
	rps := map[string]float64{}
	for _, name := range append([]string{g.num, g.den}, g.extra...) {
		data, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			fmt.Fprintf(stderr, "dlsgate: %v\n", err)
			return 2
		}
		var report struct {
			RPS *float64 `json:"rps"`
		}
		if err := json.Unmarshal(data, &report); err != nil || report.RPS == nil || *report.RPS <= 0 {
			fmt.Fprintf(stderr, "dlsgate: %s.json: no positive rps in the report (%v)\n", name, err)
			return 2
		}
		artifact[name] = json.RawMessage(data)
		rps[name] = *report.RPS
	}
	ratio := rps[g.num] / rps[g.den]
	artifact[g.key] = ratio
	out, err := json.MarshalIndent(artifact, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, g.out), append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dlsgate: writing %s: %v\n", g.out, err)
		return 2
	}
	for _, name := range g.extra {
		fmt.Fprintf(stdout, "%s: %.0f req/s\n", name, rps[name])
	}
	fmt.Fprintf(stdout, "%s/%s: %.0f/%.0f req/s = %.3fx (gate: >= %g)\n",
		g.num, g.den, rps[g.num], rps[g.den], ratio, g.min)
	if ratio < g.min {
		fmt.Fprintf(stderr, "dlsgate: %s\n", g.fail)
		return 1
	}
	return 0
}

// gateFuncs are the gates other than the throughput ratios: the
// benchmark-stream gates, the FMA listing gate and the fleet poll.
var gateFuncs = map[string]func(dir string, stdout, stderr io.Writer) int{
	"pairsearch": pairSearchGate,
	"affine":     affineGate,
	"fma":        fmaGate,
	"fleet":      fleetGate,
}

// numCPU is the runner's CPU count; the speedup gate holds only from 4.
var numCPU = runtime.NumCPU

// benchMetric matches one tab-separated "value unit" field of a benchmark
// result line, such as "12345 ns/op" or "0.031 rho"; procSuffix is the
// "-GOMAXPROCS" suffix go test appends to a benchmark's name.
var (
	benchMetric = regexp.MustCompile(`^\s*([-+\d.eE]+) (\S+)\s*$`)
	procSuffix  = regexp.MustCompile(`-\d+$`)
)

// benchRuns maps each benchmark in a go test -json stream to its samples
// per unit.
type benchRuns map[string]map[string][]float64

// readBenchRuns reads the artifact in dir; on failure it reports why and
// returns nil. Result lines are reassembled from the output events and
// named by their own first field: go test -json splits a result line
// over events and, under -count, tags only the first run's events with
// the benchmark, so the events' Test field cannot be relied on.
func readBenchRuns(dir, artifact string, stderr io.Writer) benchRuns {
	f, err := os.Open(filepath.Join(dir, artifact))
	if err != nil {
		fmt.Fprintf(stderr, "dlsgate: %v\n", err)
		return nil
	}
	defer f.Close()
	r := benchRuns{}
	var pending string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" {
			continue
		}
		pending += ev.Output
		for i := strings.IndexByte(pending, '\n'); i >= 0; i = strings.IndexByte(pending, '\n') {
			r.addLine(pending[:i])
			pending = pending[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "dlsgate: %s: %v\n", artifact, err)
		return nil
	}
	return r
}

// addLine records the samples of one benchmark result line; other lines
// are ignored.
func (r benchRuns) addLine(line string) {
	fields := strings.Split(line, "\t")
	name := procSuffix.ReplaceAllString(strings.TrimSpace(fields[0]), "")
	if !strings.HasPrefix(name, "Benchmark") {
		return
	}
	for _, field := range fields[1:] {
		m := benchMetric.FindStringSubmatch(field)
		if m == nil {
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			if r[name] == nil {
				r[name] = map[string][]float64{}
			}
			r[name][m[2]] = append(r[name][m[2]], v)
		}
	}
}

// stat reduces each named benchmark's samples of unit with reduce. It
// reports false, naming the benchmark, when one has no samples.
func (r benchRuns) stat(stderr io.Writer, unit string, reduce func([]float64) float64, names ...string) ([]float64, bool) {
	out := make([]float64, len(names))
	for i, name := range names {
		v := r[name][unit]
		if len(v) == 0 {
			fmt.Fprintf(stderr, "dlsgate: no %s samples found for %s\n", unit, name)
			return nil, false
		}
		out[i] = reduce(v)
	}
	return out, true
}

// distinct returns the distinct samples of unit across the benchmarks
// whose names start with prefix.
func (r benchRuns) distinct(prefix, unit string) []float64 {
	var out []float64
	for name, units := range r {
		if strings.HasPrefix(name, prefix) {
			out = append(out, units[unit]...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	return s[len(s)/2]
}

// pairSearchGate checks the parallel pair-search gates on BENCH_pr7.json:
//  1. serial/parallel divergence — every BestPairExhaustive6 sub reports
//     the same rho metric (each sub also checks itself against the serial
//     search, so this is belt and braces);
//  2. the p = 6 pair search is at least 2× faster at 4 workers than
//     serially, asserted only with 4 or more CPUs, where a wall-clock
//     speedup means something;
//  3. the incremental bound path has at least 1.5× the node throughput of
//     per-node refactorisation at q = 7: the median of the
//     ReturnPrefixNode/interleaved refactor/update samples, each itself a
//     median over walks that alternate the two paths, so host load
//     falls on both sides alike.
func pairSearchGate(dir string, stdout, stderr io.Writer) int {
	r := readBenchRuns(dir, "BENCH_pr7.json", stderr)
	if r == nil {
		return 2
	}
	if rho := r.distinct("BenchmarkBestPairExhaustive6", "rho"); len(rho) > 1 {
		fmt.Fprintf(stderr, "dlsgate: parallel pair search diverged from serial: rho values %v\n", rho)
		return 1
	}
	ns, ok := r.stat(stderr, "ns/op", slices.Min, "BenchmarkBestPairExhaustive6/par1", "BenchmarkBestPairExhaustive6/par4")
	if !ok {
		return 2
	}
	speedup := ns[0] / ns[1]
	cores := numCPU()
	fmt.Fprintf(stdout, "BestPairExhaustive6: par1/par4 speedup %.2fx on %d CPUs\n", speedup, cores)
	if cores >= 4 && speedup < 2 {
		fmt.Fprintln(stderr, "dlsgate: p=6 pair search speedup at 4 workers fell below 2x")
		return 1
	}
	if cores < 4 {
		fmt.Fprintln(stdout, "fewer than 4 CPUs: speedup gate skipped (divergence gate still enforced)")
	}
	ratio, ok := r.stat(stderr, "refactor/update", median, "BenchmarkReturnPrefixNode/interleaved")
	if !ok {
		return 2
	}
	fmt.Fprintf(stdout, "ReturnPrefixNode: update path %.2fx refactor-per-node throughput\n", ratio[0])
	if ratio[0] < 1.5 {
		fmt.Fprintln(stderr, "dlsgate: incremental bound path fell below 1.5x node throughput at q=7")
		return 1
	}
	return 0
}

// affineGate checks the affine subset-search gates on BENCH_pr9.json:
//  1. the flat 2^12 loop and the branch-and-bound find the same winner
//     (all BestFIFOAffine12 subs report one rho metric);
//  2. the branch-and-bound is at least 5× faster than the flat loop;
//  3. it prunes more than 50% of the subset lattice (the largest
//     pruned-frac sample);
//  4. the p = 16 search ran (CI runs it under a 120 s timeout).
func affineGate(dir string, stdout, stderr io.Writer) int {
	r := readBenchRuns(dir, "BENCH_pr9.json", stderr)
	if r == nil {
		return 2
	}
	const flat, bb = "BenchmarkBestFIFOAffine12/flat", "BenchmarkBestFIFOAffine12/bb"
	if rho := r.distinct("BenchmarkBestFIFOAffine12", "rho"); len(rho) != 1 {
		fmt.Fprintf(stderr, "dlsgate: affine flat and bb disagreed on the winner: rho values %v\n", rho)
		return 1
	}
	ns, ok := r.stat(stderr, "ns/op", slices.Min, flat, bb)
	if !ok {
		return 2
	}
	frac, ok := r.stat(stderr, "pruned-frac", slices.Max, bb)
	if !ok {
		return 2
	}
	fmt.Fprintf(stdout, "BestFIFOAffine12: bb %.2fx flat, cut fraction %.3f\n", ns[0]/ns[1], frac[0])
	if ns[0]/ns[1] < 5 {
		fmt.Fprintln(stderr, "dlsgate: affine branch-and-bound fell below 5x the flat loop at p = 12")
		return 1
	}
	if frac[0] <= 0.5 {
		fmt.Fprintln(stderr, "dlsgate: affine subset cut fraction fell to <= 50% on the reference platform")
		return 1
	}
	if _, ok := r.stat(stderr, "ns/op", slices.Min, "BenchmarkBestFIFOAffine16"); !ok {
		return 2
	}
	return 0
}
