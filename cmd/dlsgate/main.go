// Command dlsgate checks the CI gates that compare the throughput of two
// dlsload runs. A gate reads dlsload -json reports from the current
// directory, divides one run's rps by the other's, writes the reports and
// the ratio into the gate's artifact file, and fails when the ratio falls
// under the gate's threshold:
//
//	dlsgate batching  # search_on.json / search_off.json >= 2, with chain.json, into BENCH_pr5.json
//	dlsgate tracing   # trace_on.json / trace_off.json >= 0.95, into BENCH_pr10.json
//
// It exits 0 when the gate holds, 1 when it fails and 2 on a usage error
// or an unreadable report.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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
	var g gate
	ok := len(args) == 1
	if ok {
		g, ok = gates[args[0]]
	}
	if !ok {
		names := make([]string, 0, len(gates))
		for name := range gates {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "usage: dlsgate %s\n", strings.Join(names, "|"))
		return 2
	}
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
