// Command dlsgate checks CI gates over benchmark artifacts in the current
// directory. The throughput gates read dlsload -json reports, divide one
// run's rps by the other's, write the reports and the ratio into the
// gate's artifact file, and fail when the ratio falls under the gate's
// threshold:
//
//	dlsgate batching    # search_on.json / search_off.json >= 2, with chain.json, into BENCH_pr5.json
//	dlsgate tracing     # trace_on.json / trace_off.json >= 0.95, into BENCH_pr10.json
//
// The pair-search gate reads the go test -json stream of the parallel
// pair-search benchmarks (BENCH_pr7.json) and takes each sub-benchmark's
// fastest ns/op:
//
//	dlsgate pairsearch  # BestPairExhaustive6: one ρ across its subs, and par1/par4 >= 2
//	                    # on >= 4 CPUs; ReturnPrefixNode refactor/update >= 1.5
//
// It exits 0 when the gate holds, 1 when it fails and 2 on a usage error
// or an unreadable report.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
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
		if args[0] == "pairsearch" {
			return pairSearchGate(dir, stdout, stderr)
		}
		if g, ok := gates[args[0]]; ok {
			return g.check(dir, stdout, stderr)
		}
	}
	names := []string{"pairsearch"}
	for name := range gates {
		names = append(names, name)
	}
	sort.Strings(names)
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

// numCPU is the runner's CPU count; the speedup gate holds only from 4.
var numCPU = runtime.NumCPU

var (
	nsPerOp = regexp.MustCompile(`([\d.]+) ns/op`)
	rhoRe   = regexp.MustCompile(`([\d.]+) rho`)
)

// pairSearchGate checks the parallel pair-search gates on BENCH_pr7.json:
//  1. serial/parallel divergence — every BestPairExhaustive6 sub reports
//     the same rho metric (each sub also checks itself against the serial
//     search, so this is belt and braces);
//  2. the p = 6 pair search is at least 2× faster at 4 workers than
//     serially, asserted only with 4 or more CPUs, where a wall-clock
//     speedup means something;
//  3. the incremental bound path (ReturnPrefixNode/update) has at least
//     1.5× the node throughput of per-node refactorisation at q = 7
//     (single-threaded, so on any runner).
func pairSearchGate(dir string, stdout, stderr io.Writer) int {
	const artifact = "BENCH_pr7.json"
	f, err := os.Open(filepath.Join(dir, artifact))
	if err != nil {
		fmt.Fprintf(stderr, "dlsgate: %v\n", err)
		return 2
	}
	defer f.Close()
	ns := map[string]float64{} // sub-benchmark name -> fastest ns/op
	rho := map[string]bool{}   // distinct rho metrics across the p = 6 subs
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct{ Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if m := nsPerOp.FindStringSubmatch(ev.Output); m != nil {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil {
				if old, ok := ns[ev.Test]; !ok || v < old {
					ns[ev.Test] = v
				}
			}
		}
		if strings.HasPrefix(ev.Test, "BenchmarkBestPairExhaustive6") {
			if m := rhoRe.FindStringSubmatch(ev.Output); m != nil {
				rho[m[1]] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "dlsgate: %s: %v\n", artifact, err)
		return 2
	}
	need := func(names ...string) bool {
		for _, name := range names {
			if _, ok := ns[name]; !ok {
				fmt.Fprintf(stderr, "dlsgate: no ns/op samples found for %s\n", name)
				return false
			}
		}
		return true
	}
	const par1, par4 = "BenchmarkBestPairExhaustive6/par1", "BenchmarkBestPairExhaustive6/par4"
	const update, refactor = "BenchmarkReturnPrefixNode/update", "BenchmarkReturnPrefixNode/refactor"
	if len(rho) > 1 {
		values := make([]string, 0, len(rho))
		for v := range rho {
			values = append(values, v)
		}
		sort.Strings(values)
		fmt.Fprintf(stderr, "dlsgate: parallel pair search diverged from serial: rho values %v\n", values)
		return 1
	}
	if !need(par1, par4) {
		return 2
	}
	speedup := ns[par1] / ns[par4]
	cores := numCPU()
	fmt.Fprintf(stdout, "BestPairExhaustive6: par1/par4 speedup %.2fx on %d CPUs\n", speedup, cores)
	if cores >= 4 && speedup < 2 {
		fmt.Fprintln(stderr, "dlsgate: p=6 pair search speedup at 4 workers fell below 2x")
		return 1
	}
	if cores < 4 {
		fmt.Fprintln(stdout, "fewer than 4 CPUs: speedup gate skipped (divergence gate still enforced)")
	}
	if !need(update, refactor) {
		return 2
	}
	ratio := ns[refactor] / ns[update]
	fmt.Fprintf(stdout, "ReturnPrefixNode: update path %.2fx refactor-per-node throughput\n", ratio)
	if ratio < 1.5 {
		fmt.Fprintln(stderr, "dlsgate: incremental bound path fell below 1.5x node throughput at q=7")
		return 1
	}
	return 0
}
