// Command dlsexp reproduces the evaluation section of RR-5738: every figure
// of Section 5 as a text table (or CSV), generated by the same protocol the
// paper used — linear-program predictions plus measured executions of the
// rounded schedules on the virtual cluster.
//
// Usage:
//
//	dlsexp -figure 10                 # one figure
//	dlsexp -all                       # all figures
//	dlsexp -figure 12 -csv            # CSV output
//	dlsexp -all -platforms 10 -quick  # reduced sweep
//	dlsexp -figure 9 -svg fig9.svg    # write the trace as SVG
//	dlsexp -all -spread               # add standard-deviation columns
//	dlsexp -figure 12 -parallel 8     # LP batches on an 8-worker engine pool
//	dlsexp -all -profile cpu          # write a cpu.pprof of the run
//
// Figures: 8 (linearity), 9 (trace), 10 (homogeneous), 11 (hom. comm /
// het. comp), 12 (heterogeneous), 13a (compute ×10), 13b (communication
// ×10), 14a / 14b (participation, x = 1 / x = 3), pair (the Section 5
// open-question probe: FIFO/LIFO vs the unrestricted permutation-pair
// optimum).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/dls"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dlsexp: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested figures to w. Split from main
// for testability.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dlsexp", flag.ContinueOnError)
	figure := fs.String("figure", "", "figure id (8, 9, 10, 11, 12, 13a, 13b, 14a, 14b, pair)")
	all := fs.Bool("all", false, "reproduce every figure")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	platforms := fs.Int("platforms", 0, "override the number of random platforms (default 50)")
	workers := fs.Int("workers", 0, "override the number of workers (default 11)")
	m := fs.Int("m", 0, "override the number of matrix products (default 1000)")
	seed := fs.Int64("seed", 0, "override the experiment seed")
	quick := fs.Bool("quick", false, "reduced sweep (8 platforms, 3 sizes) for smoke runs")
	spread := fs.Bool("spread", false, "add standard-deviation columns across the random platforms")
	svgPath := fs.String("svg", "", "write the figure's SVG rendering (figure 9) to this file")
	parallel := fs.Int("parallel", 0, "engine worker-pool size for the LP batches (0 = GOMAXPROCS); output is identical at any setting")
	evalName := fs.String("eval", "auto", "scenario-evaluation backend: auto | simplex | exact")
	searchPar := fs.Int("search-parallel", 1, "most workers INSIDE each exhaustive search (1 = serial, 0 = one per CPU; helpers only on idle CPUs); output is identical at any setting")
	profile := fs.String("profile", "", "write a pprof profile of the run: cpu | mem")
	profileOut := fs.String("profile-out", "", "profile output path (default cpu.pprof / mem.pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	evalMode, err := dls.ParseEvalMode(*evalName)
	if err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg.Platforms = 8
		cfg.Sizes = []int{40, 120, 200}
	}
	if *platforms > 0 {
		cfg.Platforms = *platforms
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *m > 0 {
		cfg.M = *m
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *searchPar < 0 {
		return fmt.Errorf("-search-parallel must be >= 0, got %d", *searchPar)
	}
	cfg.ReportSpread = *spread
	cfg.Parallelism = *parallel
	cfg.Eval = evalMode
	cfg.SearchParallelism = *searchPar

	reg := experiments.Registry()
	var ids []string
	switch {
	case *all:
		ids = experiments.FigureIDs()
	case *figure != "":
		if _, ok := reg[*figure]; !ok {
			return fmt.Errorf("unknown figure %q (known: %v)", *figure, experiments.FigureIDs())
		}
		ids = []string{*figure}
	default:
		return fmt.Errorf("nothing to do: pass -figure N or -all")
	}

	// Profiling starts only after every flag validated (incl. the figure
	// selection below via the registry lookup), so a failed invocation
	// never clobbers an existing profile at the output path.
	stopProfile, err := startProfile(*profile, *profileOut, w)
	if err != nil {
		return err
	}
	defer stopProfile()

	for _, id := range ids {
		res, err := reg[id](cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if *csv {
			fmt.Fprintf(w, "# figure %s: %s\n%s\n", res.ID, res.Title, res.CSV())
		} else {
			fmt.Fprintln(w, res.Table())
		}
		if *svgPath != "" && res.SVG != "" {
			if err := os.WriteFile(*svgPath, []byte(res.SVG), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", *svgPath, err)
			}
			fmt.Fprintf(w, "SVG written to %s\n", *svgPath)
		}
	}
	return nil
}

// startProfile begins the requested pprof collection and returns the
// function that finalises it (a no-op when kind is empty). CPU profiles
// stream for the whole run; memory profiles snapshot the heap after the
// figures complete (with a GC first, so the numbers reflect retained
// allocations, not garbage). Future perf PRs use these to attribute time
// inside the chain kernels.
func startProfile(kind, out string, w io.Writer) (func(), error) {
	switch kind {
	case "":
		return func() {}, nil
	case "cpu":
		if out == "" {
			out = "cpu.pprof"
		}
		f, err := os.Create(out)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(w, "cpu profile written to %s\n", out)
		}, nil
	case "mem":
		if out == "" {
			out = "mem.pprof"
		}
		return func() {
			f, err := os.Create(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dlsexp: mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dlsexp: mem profile: %v\n", err)
				return
			}
			fmt.Fprintf(w, "mem profile written to %s\n", out)
		}, nil
	default:
		return nil, fmt.Errorf("-profile must be cpu or mem, got %q", kind)
	}
}
