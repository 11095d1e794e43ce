// Command dlsfifo computes divisible-load schedules on star platforms with
// return messages under the one-port model (Beaumont, Marchal, Rehn,
// Robert, RR-5738).
//
// Usage:
//
//	dlsfifo schedule -platform file.json [-discipline fifo|lifo|incw|<strategy>] [-model one-port|two-port] [-exact] [-eval auto|simplex|exact] [-load M] [-gantt]
//	dlsfifo bus -c 0.1 -d 0.05 -w 0.4,0.6,0.8
//	dlsfifo brute -platform file.json [-exact] [-eval auto|simplex|exact] [-timeout 30s] [-search-parallel N]
//	dlsfifo random -p 11 -family heterogeneous -size 100 -seed 42
//	dlsfifo strategies
//
// Every scheduling subcommand is a front-end to the dls engine: it builds a
// dls.Request naming a strategy from the registry and solves it. The
// schedule subcommand prints the optimal loads, throughput and per-worker
// timeline; bus evaluates the Theorem 2 closed form; brute searches all
// permutation pairs (small platforms, cancellable via -timeout) with the
// pair-exhaustive strategy's branch-and-bound, unpruned under -exact;
// random emits a platform JSON drawn from the paper's generator families;
// strategies lists the registry.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/dls"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "schedule":
		err = cmdSchedule(os.Args[2:])
	case "bus":
		err = cmdBus(os.Args[2:])
	case "brute":
		err = cmdBrute(os.Args[2:])
	case "random":
		err = cmdRandom(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "strategies":
		err = cmdStrategies()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dlsfifo: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlsfifo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `dlsfifo — divisible-load scheduling with return messages (one-port model)

subcommands:
  schedule    compute an optimal schedule for a platform JSON
  bus         evaluate the Theorem 2 closed form for a bus platform
  brute       exhaustive search over all (σ1, σ2) permutation pairs
  random      generate a random platform JSON (paper generator families)
  verify      check a schedule JSON against a platform and model
  strategies  list the registered engine strategies

run "dlsfifo <subcommand> -h" for flags.
`)
}

func cmdStrategies() error {
	for _, name := range dls.Strategies() {
		fmt.Println(name)
	}
	return nil
}

func loadPlatform(path string) (*dls.Platform, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -platform file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p dls.Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &p, nil
}

func arithFlag(exact bool) dls.Arith {
	if exact {
		return dls.Exact
	}
	return dls.Float64
}

// newSolver builds the engine behind every scheduling subcommand.
// searchPar is the intra-request worker count of the exhaustive searches
// (0 = one worker per CPU, 1 = serial); the result is byte-identical for
// every setting.
func newSolver(timeout time.Duration, searchPar int) (*dls.Solver, error) {
	if timeout < 0 {
		return nil, fmt.Errorf("-timeout must be >= 0, got %v", timeout)
	}
	opts := []dls.Option{dls.WithCache(64), dls.WithSearchParallelism(searchPar)}
	if timeout > 0 {
		opts = append(opts, dls.WithTimeout(timeout))
	}
	return dls.NewSolver(opts...)
}

// strategyForDiscipline maps the historical discipline spellings onto
// engine strategies; any other value must name a registered strategy.
func strategyForDiscipline(disc string) (string, error) {
	switch disc {
	case "fifo":
		return dls.StrategyFIFO, nil
	case "lifo":
		return dls.StrategyLIFO, nil
	case "incw":
		return dls.StrategyIncW, nil
	case "incc":
		return dls.StrategyIncC, nil
	}
	for _, name := range dls.Strategies() {
		if name == disc {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown discipline %q (fifo, lifo, incw, incc, or a registered strategy: %s)",
		disc, strings.Join(dls.Strategies(), ", "))
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	platformPath := fs.String("platform", "", "platform JSON file")
	discipline := fs.String("discipline", "fifo", "fifo | lifo | incw | incc | any registered strategy (see dlsfifo strategies)")
	model := fs.String("model", "one-port", "one-port | two-port")
	exact := fs.Bool("exact", false, "use exact rational LP arithmetic")
	load := fs.Float64("load", 0, "total load units; prints the makespan and integer distribution")
	gantt := fs.Bool("gantt", false, "render the schedule timeline as a Gantt chart")
	out := fs.String("out", "", "write the computed schedule as JSON to this file")
	timeout := fs.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
	evalName := fs.String("eval", "auto", "scenario-evaluation backend: auto | simplex | exact")
	searchPar := fs.Int("search-parallel", 0, "most workers per exhaustive search (0 = one per CPU, 1 = serial; helpers only on idle CPUs; result is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	evalMode, err := dls.ParseEvalMode(*evalName)
	if err != nil {
		return err
	}
	p, err := loadPlatform(*platformPath)
	if err != nil {
		return err
	}
	var m dls.Model
	switch *model {
	case "one-port":
		m = dls.OnePort
	case "two-port":
		m = dls.TwoPort
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	strategy, err := strategyForDiscipline(*discipline)
	if err != nil {
		return err
	}
	solver, err := newSolver(*timeout, *searchPar)
	if err != nil {
		return err
	}
	req := dls.Request{
		Platform: p,
		Strategy: strategy,
		Model:    m,
		Arith:    arithFlag(*exact),
		Eval:     evalMode,
		Load:     *load,
	}
	res, err := solver.Solve(context.Background(), req)
	if errors.Is(err, dls.ErrNoCommonZ) && strategy == dls.StrategyFIFO && m == dls.OnePort {
		fmt.Println("note: no common z; falling back to the sorted-by-c FIFO heuristic")
		req.Strategy = dls.StrategyIncC
		res, err = solver.Solve(context.Background(), req)
	}
	if err != nil {
		return err
	}
	s := res.Schedule
	if s == nil {
		return fmt.Errorf("strategy %q produced no canonical schedule (affine strategies are not supported here)", strategy)
	}

	fmt.Print(p)
	fmt.Printf("strategy=%s model=%s arithmetic=%s eval=%s\n", res.Strategy, res.Model, res.Arith, res.Eval)
	fmt.Printf("throughput ρ = %.9g load units per time unit\n", s.Throughput())
	fmt.Printf("send order σ1 = %v, return order σ2 = %v\n", s.SendOrder, s.ReturnOrder)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s\n", "worker", "alpha", "recv end", "comp end", "idle")
	for _, wt := range s.Timeline(p) {
		fmt.Printf("%-8s %-12.6g %-12.6g %-12.6g %-12.6g\n",
			p.Workers[wt.Worker].Name, s.Alpha[wt.Worker], wt.SendEnd, wt.CompEnd, wt.Idle)
	}
	if *load > 0 {
		fmt.Printf("makespan for %g units: %.6g\n", *load, res.Makespan)
		counts, err := dls.DistributeInteger(s.Alpha, s.SendOrder, int(*load))
		if err != nil {
			return err
		}
		fmt.Printf("integer distribution (Section 5 rounding): %v\n", counts)
	}
	if *gantt {
		fmt.Print(ganttOfSchedule(p, s))
	}
	if *out != "" {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("schedule written to %s\n", *out)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	platformPath := fs.String("platform", "", "platform JSON file")
	schedulePath := fs.String("schedule", "", "schedule JSON file (as written by schedule -out)")
	model := fs.String("model", "one-port", "one-port | two-port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadPlatform(*platformPath)
	if err != nil {
		return err
	}
	if *schedulePath == "" {
		return fmt.Errorf("missing -schedule file")
	}
	data, err := os.ReadFile(*schedulePath)
	if err != nil {
		return err
	}
	var s dls.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("parsing %s: %w", *schedulePath, err)
	}
	var m dls.Model
	switch *model {
	case "one-port":
		m = dls.OnePort
	case "two-port":
		m = dls.TwoPort
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err := s.Check(p, m); err != nil {
		return fmt.Errorf("schedule INVALID under the %s model: %w", m, err)
	}
	fmt.Printf("schedule valid under the %s model: ρ = %.9g, %d participants\n",
		m, s.Throughput(), len(s.Participants()))
	return nil
}

// ganttOfSchedule renders the canonical timeline of a schedule as rows of
// the master and every enrolled worker.
func ganttOfSchedule(p *dls.Platform, s *dls.Schedule) string {
	const width = 100
	var b strings.Builder
	tl := s.Timeline(p)
	fmt.Fprintf(&b, "timeline over [0, %.6g]:\n", s.T)
	row := func(name string, spans [][3]float64) { // start, end, glyph index
		glyphs := []byte{'.', '#', '='}
		line := []byte(strings.Repeat(" ", width))
		for _, sp := range spans {
			a := int(sp[0] / s.T * width)
			z := int(sp[1] / s.T * width)
			if z >= width {
				z = width - 1
			}
			for x := a; x <= z && x < width; x++ {
				line[x] = glyphs[int(sp[2])]
			}
		}
		fmt.Fprintf(&b, "%-8s|%s|\n", name, string(line))
	}
	var masterSpans [][3]float64
	for _, wt := range tl {
		masterSpans = append(masterSpans,
			[3]float64{wt.SendStart, wt.SendEnd, 2},
			[3]float64{wt.ReturnStart, wt.ReturnEnd, 0})
	}
	row("master", masterSpans)
	for _, wt := range tl {
		row(p.Workers[wt.Worker].Name, [][3]float64{
			{wt.SendStart, wt.SendEnd, 0},
			{wt.SendEnd, wt.CompEnd, 1},
			{wt.ReturnStart, wt.ReturnEnd, 2},
		})
	}
	b.WriteString("legend: '.' data in   '#' compute   '=' data out\n")
	return b.String()
}

func cmdBus(args []string) error {
	fs := flag.NewFlagSet("bus", flag.ExitOnError)
	c := fs.Float64("c", 0, "forward communication cost per load unit")
	d := fs.Float64("d", 0, "return communication cost per load unit")
	wlist := fs.String("w", "", "comma-separated computation costs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *c <= 0 || *d <= 0 || *wlist == "" {
		return fmt.Errorf("bus requires -c, -d > 0 and -w w1,w2,...")
	}
	var ws []float64
	for _, tok := range strings.Split(*wlist, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("parsing -w: %w", err)
		}
		ws = append(ws, v)
	}
	p := dls.NewBus(*c, *d, ws...)
	rho, err := dls.BusFIFOThroughput(p)
	if err != nil {
		return err
	}
	exact, err := dls.ExactBusFIFOThroughput(p)
	if err != nil {
		return err
	}
	two, err := dls.BusTwoPortFIFOThroughput(p)
	if err != nil {
		return err
	}
	lifo, err := dls.BusLIFOThroughput(p)
	if err != nil {
		return err
	}
	res, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyBusFIFO})
	if err != nil {
		return err
	}
	fmt.Print(p)
	fmt.Printf("Theorem 2 optimal one-port FIFO throughput: %.9g (exact %s)\n", rho, exact.RatString())
	fmt.Printf("  one-port communication bound 1/(c+d):     %.9g\n", 1/(*c+*d))
	fmt.Printf("  two-port FIFO throughput ρ̃:               %.9g\n", two)
	fmt.Printf("  one-port LIFO throughput (closed form):   %.9g\n", lifo)
	fmt.Printf("constructive schedule loads: %v\n", res.Schedule.Alpha)
	return nil
}

func cmdBrute(args []string) error {
	fs := flag.NewFlagSet("brute", flag.ExitOnError)
	platformPath := fs.String("platform", "", "platform JSON file")
	exact := fs.Bool("exact", false, "use exact rational LP arithmetic")
	timeout := fs.Duration("timeout", 0, "abort the (p!)² search after this duration (0 = no limit)")
	evalName := fs.String("eval", "auto", "scenario-evaluation backend: auto | simplex | exact")
	searchPar := fs.Int("search-parallel", 0, "most workers per exhaustive search (0 = one per CPU, 1 = serial; helpers only on idle CPUs; result is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	evalMode, err := dls.ParseEvalMode(*evalName)
	if err != nil {
		return err
	}
	p, err := loadPlatform(*platformPath)
	if err != nil {
		return err
	}
	solver, err := newSolver(*timeout, *searchPar)
	if err != nil {
		return err
	}
	arith := arithFlag(*exact)
	ctx := context.Background()
	// The pair search and the LIFO baseline run concurrently on the pool;
	// FIFO is solved separately because a star without a common z makes it
	// fail with ErrNoCommonZ, which only drops its comparison line.
	results, err := solver.SolveBatch(ctx, []dls.Request{
		{Platform: p, Strategy: dls.StrategyPairExhaustive, Arith: arith, Eval: evalMode},
		{Platform: p, Strategy: dls.StrategyLIFO, Arith: arith, Eval: evalMode},
	})
	if err != nil {
		return err
	}
	pair, lifo := results[0], results[1]
	fifo, err := solver.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Arith: arith, Eval: evalMode})
	if err != nil && !errors.Is(err, dls.ErrNoCommonZ) {
		return err
	}
	fmt.Print(p)
	fmt.Printf("best permutation pair: σ1=%v σ2=%v  ρ=%.9g\n",
		pair.Send, pair.Return, pair.Throughput)
	if fifo != nil {
		fmt.Printf("optimal FIFO:          ρ=%.9g (%.4f%% of best pair)\n",
			fifo.Throughput, 100*fifo.Throughput/pair.Throughput)
	}
	fmt.Printf("optimal LIFO:          ρ=%.9g (%.4f%% of best pair)\n",
		lifo.Throughput, 100*lifo.Throughput/pair.Throughput)
	return nil
}

func cmdRandom(args []string) error {
	fs := flag.NewFlagSet("random", flag.ExitOnError)
	p := fs.Int("p", 11, "number of workers")
	familyName := fs.String("family", "heterogeneous", "homogeneous | homcomm | heterogeneous")
	size := fs.Int("size", 100, "matrix size for the cost conversion")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fam dls.Family
	switch *familyName {
	case "homogeneous":
		fam = dls.Homogeneous
	case "homcomm":
		fam = dls.HomCommHeteroComp
	case "heterogeneous":
		fam = dls.Heterogeneous
	default:
		return fmt.Errorf("unknown family %q", *familyName)
	}
	sp := dls.RandomSpeeds(rand.New(rand.NewSource(*seed)), *p, fam)
	plat := sp.Platform(dls.DefaultApp(*size))
	out, err := json.MarshalIndent(plat, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
