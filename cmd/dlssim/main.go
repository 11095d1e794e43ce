// Command dlssim runs the discrete-event traffic simulator: named
// arrival scenarios replayed in virtual time through the real
// dls.Batcher (synchronous mode, injected virtual clock), with service
// time drawn from a calibrated cost model instead of running the LP
// solver. Millions of virtual arrivals take seconds of wall clock, and a
// fixed seed makes the event log and report byte-identical across runs —
// which is what lets CI gate on simulated tail latency.
//
// The -compare mode runs the same seeded scenario twice — fixed window
// vs adaptive SLO-aware admission — and enforces the PR 6 gates: the
// adaptive policy must beat the fixed window's P99 for the gate class at
// an equal-or-lower shed rate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

func main() {
	var (
		scenario   = flag.String("scenario", "burst", "traffic scenario (see -list)")
		list       = flag.Bool("list", false, "list scenarios and exit")
		seed       = flag.Int64("seed", 1, "random seed (fixes the whole run)")
		arrivals   = flag.Int("arrivals", 200000, "max virtual arrivals (0: unbounded, -duration governs)")
		duration   = flag.Duration("duration", 0, "virtual-time horizon (0: -arrivals governs)")
		window     = flag.Duration("window", 2*time.Millisecond, "admission window (fixed mode / adaptive base)")
		windowSize = flag.Int("window-size", 64, "base window size")
		queue      = flag.Int("queue", 1024, "admission queue cap")
		drain      = flag.Int("drain", 2, "concurrent window services")
		adaptive   = flag.Bool("adaptive", false, "adaptive SLO-aware admission instead of the fixed window")
		classes    = flag.String("classes", "", "SLO classes as name=deadline:priority,... (default: tight/standard/batch)")
		platforms  = flag.Int("platforms", 32, "hot problem-pool size (distinct platforms)")
		p          = flag.Int("p", 6, "workers per generated platform")
		searchMix  = flag.Float64("search-share", 0.1, "fraction of search-kind (expensive) arrivals")
		zipfS      = flag.Float64("zipf", 1.1, "platform popularity skew (<=1: uniform)")
		calibrate  = flag.String("calibrate", "", "cost-model calibration JSON (default: built-in)")
		failures   = flag.String("failures", "", "injected replica crashes as at:down,... (e.g. 3s:500ms,10s:1s)")
		traceFile  = flag.String("trace", "", "JSONL arrival trace for -scenario trace")
		jsonOut    = flag.String("json", "", "write the report (or comparison) JSON here")
		logOut     = flag.String("log", "", "write the JSONL event log here")
		compare    = flag.Bool("compare", false, "run fixed AND adaptive on the same seed; gate adaptive vs fixed")
		gateClass  = flag.String("gate-class", "tight", "SLO class the -compare gates apply to")
		maxP99     = flag.Float64("max-p99", 0, "gate: adaptive P99 of the gate class must stay under this (ms; 0: off)")
		minImprove = flag.Float64("min-improvement", 0, "gate: adaptive must beat fixed P99 by at least this fraction")
	)
	flag.Parse()

	if *list {
		for _, name := range sim.Scenarios() {
			sc, _ := sim.ScenarioByName(name)
			fmt.Printf("%-10s %s\n", sc.Name, sc.Describe)
		}
		return
	}

	sc, err := sim.ScenarioByName(*scenario)
	if err != nil {
		fatal(err)
	}
	proc, err := sc.Build(*traceFile)
	if err != nil {
		fatal(err)
	}

	cost := sim.DefaultCostModel()
	if *calibrate != "" {
		if cost, err = sim.LoadCostModel(*calibrate); err != nil {
			fatal(err)
		}
	}

	var sloClasses []dls.SLOClass
	if *classes != "" {
		if sloClasses, err = dls.ParseSLOClasses(*classes); err != nil {
			fatal(err)
		}
	}

	crashPlan, err := sim.ParseFailures(*failures)
	if err != nil {
		fatal(err)
	}

	cfg := sim.Config{
		Seed:        *seed,
		Horizon:     *duration,
		MaxArrivals: *arrivals,
		Process:     proc,
		Classes:     sloClasses,
		Platforms:   *platforms,
		P:           *p,
		SearchShare: *searchMix,
		ZipfS:       *zipfS,
		Cost:        cost,
		Window:      *window,
		WindowSize:  *windowSize,
		QueueCap:    *queue,
		Drain:       *drain,
		Adaptive:    *adaptive,
		Failures:    crashPlan,
	}

	if *compare {
		runCompare(cfg, sc, *traceFile, *gateClass, *maxP99, *minImprove, *jsonOut)
		return
	}

	if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Log = f
	}

	rep, err := runOnce(cfg, sc)
	if err != nil {
		fatal(err)
	}
	printSummary(rep)
	writeJSON(*jsonOut, rep)
}

// runOnce executes one simulation; Process state is consumed, so the
// scenario rebuilds it for every run (compare mode runs twice).
func runOnce(cfg sim.Config, sc sim.Scenario) (*sim.Report, error) {
	rep, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep.Scenario = sc.Name
	return rep, nil
}

// Comparison is the -compare output: both runs plus the gate verdicts.
type Comparison struct {
	Scenario  string      `json:"scenario"`
	Seed      int64       `json:"seed"`
	GateClass string      `json:"gate_class"`
	Fixed     *sim.Report `json:"fixed"`
	Adaptive  *sim.Report `json:"adaptive"`
	// P99ImprovementFraction is (fixed P99 - adaptive P99) / fixed P99
	// for the gate class.
	P99ImprovementFraction float64 `json:"p99_improvement_fraction"`
	// ShedRate* are overall (all classes): SLO-aware shedding
	// concentrates drops on the deadline class instead of shedding every
	// class blindly at queue-full, so per-class shed alone would reward
	// the blind policy.
	ShedRateFixed    float64 `json:"shed_rate_fixed"`
	ShedRateAdaptive float64 `json:"shed_rate_adaptive"`
	// BadRate* are the gate class's (shed + violations) / arrivals — a
	// request shed up front and a request served past its deadline are
	// both SLO failures.
	BadRateFixed    float64  `json:"bad_rate_fixed"`
	BadRateAdaptive float64  `json:"bad_rate_adaptive"`
	Pass            bool     `json:"pass"`
	Failures        []string `json:"failures,omitempty"`
}

func badRate(c *sim.ClassReport) float64 {
	if c.Arrivals == 0 {
		return 0
	}
	return float64(c.Shed+c.Violations) / float64(c.Arrivals)
}

func overallShedRate(r *sim.Report) float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Arrivals)
}

func runCompare(cfg sim.Config, sc sim.Scenario, tracePath, gateClass string, maxP99, minImprove float64, jsonOut string) {
	fixed := cfg
	fixed.Adaptive = false
	fixed.Process = rebuild(sc, tracePath)
	fixedRep, err := runOnce(fixed, sc)
	if err != nil {
		fatal(err)
	}
	adap := cfg
	adap.Adaptive = true
	adap.Process = rebuild(sc, tracePath)
	adapRep, err := runOnce(adap, sc)
	if err != nil {
		fatal(err)
	}

	cmp := &Comparison{
		Scenario:  sc.Name,
		Seed:      cfg.Seed,
		GateClass: gateClass,
		Fixed:     fixedRep,
		Adaptive:  adapRep,
	}
	fc, fok := fixedRep.Classes[gateClass]
	ac, aok := adapRep.Classes[gateClass]
	if !fok || !aok {
		cmp.Failures = append(cmp.Failures, fmt.Sprintf("gate class %q missing from reports", gateClass))
	} else {
		cmp.ShedRateFixed = overallShedRate(fixedRep)
		cmp.ShedRateAdaptive = overallShedRate(adapRep)
		cmp.BadRateFixed = badRate(fc)
		cmp.BadRateAdaptive = badRate(ac)
		if fc.P99MS > 0 {
			cmp.P99ImprovementFraction = (fc.P99MS - ac.P99MS) / fc.P99MS
		}
		if maxP99 > 0 && ac.P99MS > maxP99 {
			cmp.Failures = append(cmp.Failures,
				fmt.Sprintf("adaptive %s P99 %.3fms exceeds gate %.3fms", gateClass, ac.P99MS, maxP99))
		}
		if cmp.P99ImprovementFraction < minImprove {
			cmp.Failures = append(cmp.Failures,
				fmt.Sprintf("adaptive improves %s P99 by %.1f%%, below the %.1f%% gate",
					gateClass, 100*cmp.P99ImprovementFraction, 100*minImprove))
		}
		if cmp.ShedRateAdaptive > cmp.ShedRateFixed {
			cmp.Failures = append(cmp.Failures,
				fmt.Sprintf("adaptive sheds %.4f overall, above fixed %.4f", cmp.ShedRateAdaptive, cmp.ShedRateFixed))
		}
		if cmp.BadRateAdaptive > cmp.BadRateFixed {
			cmp.Failures = append(cmp.Failures,
				fmt.Sprintf("adaptive %s shed+violation rate %.4f, above fixed %.4f",
					gateClass, cmp.BadRateAdaptive, cmp.BadRateFixed))
		}
	}
	cmp.Pass = len(cmp.Failures) == 0

	fmt.Printf("scenario=%s seed=%d gate=%s\n", cmp.Scenario, cmp.Seed, gateClass)
	if fok && aok {
		fmt.Printf("  fixed:    P99 %8.3fms  shed %.4f  bad %.4f  windows %d (fill %.1f, collapse %.2f)\n",
			fc.P99MS, cmp.ShedRateFixed, cmp.BadRateFixed, fixedRep.Windows, fixedRep.AvgWindowFill, fixedRep.CollapseRatio)
		fmt.Printf("  adaptive: P99 %8.3fms  shed %.4f  bad %.4f  windows %d (fill %.1f, collapse %.2f)\n",
			ac.P99MS, cmp.ShedRateAdaptive, cmp.BadRateAdaptive, adapRep.Windows, adapRep.AvgWindowFill, adapRep.CollapseRatio)
		fmt.Printf("  improvement %.1f%%  wall %.2fs+%.2fs\n",
			100*cmp.P99ImprovementFraction, fixedRep.WallSeconds, adapRep.WallSeconds)
	}
	for _, f := range cmp.Failures {
		fmt.Printf("  GATE FAIL: %s\n", f)
	}
	writeJSON(jsonOut, cmp)
	if !cmp.Pass {
		os.Exit(1)
	}
}

func rebuild(sc sim.Scenario, tracePath string) sim.Process {
	proc, err := sc.Build(tracePath)
	if err != nil {
		fatal(err)
	}
	return proc
}

func printSummary(rep *sim.Report) {
	fmt.Printf("scenario=%s seed=%d mode=%s\n", rep.Scenario, rep.Seed, rep.Mode)
	fmt.Printf("  %d arrivals over %.2f virtual s (%d events, %.2fs wall)\n",
		rep.Arrivals, rep.VirtualSeconds, rep.Events, rep.WallSeconds)
	fmt.Printf("  completed %d, shed %d (%d SLO), violations %d\n",
		rep.Completed, rep.Shed, rep.ShedSLO, rep.Violations)
	if rep.Crashes > 0 {
		fmt.Printf("  crashes %d: %d in-flight failed, %d arrivals lost\n",
			rep.Crashes, rep.CrashFailed, rep.CrashLost)
	}
	fmt.Printf("  windows %d, fill %.1f, collapse %.2f\n",
		rep.Windows, rep.AvgWindowFill, rep.CollapseRatio)
	for _, name := range sortedClassNames(rep) {
		c := rep.Classes[name]
		fmt.Printf("  %-10s arr %8d  done %8d  shed %6d  p50 %8.3fms  p99 %8.3fms\n",
			name, c.Arrivals, c.Completed, c.Shed, c.P50MS, c.P99MS)
	}
}

func sortedClassNames(rep *sim.Report) []string {
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlssim:", err)
	os.Exit(1)
}
