package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/dls"
	"repro/internal/mmapp"
	"repro/internal/platform"
	"repro/internal/vcluster"
)

// Fig8Linearity reproduces Figure 8: the linearity test. Messages of
// 0.5-5 MB are sent to five workers simulating communication speeds 1-5;
// the reported transfer times must lie on lines through the origin with
// slope inversely proportional to the speed, confirming the linear cost
// model (no latency by default; setting cfg.Latency shows the affine
// deviation instead).
func Fig8Linearity(cfg Config) (*Result, error) {
	const workers = 5
	sizesMB := []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

	res := &Result{
		ID:     "8",
		Title:  "Linearity test with different message sizes, simulated heterogeneous workers",
		XLabel: "megabytes",
	}
	for w := 1; w <= workers; w++ {
		res.Series = append(res.Series, Series{Name: fmt.Sprintf("worker %d (speed %d)", w, w)})
	}
	cl := vcluster.Config{
		Workers: make([]vcluster.WorkerSpec, workers),
		Latency: cfg.Latency,
	}
	for w := 0; w < workers; w++ {
		cl.Workers[w] = vcluster.WorkerSpec{
			Name:      fmt.Sprintf("P%d", w+1),
			Bandwidth: platform.DefaultBandwidth * float64(w+1),
			FlopRate:  platform.DefaultFlopRate,
		}
	}
	for _, mb := range sizesMB {
		bytes := mb * 1e6
		r, err := vcluster.Run(cl, func(p *vcluster.Proc) {
			if p.IsMaster() {
				for w := 1; w <= workers; w++ {
					p.Send(w, 0, bytes)
				}
			} else {
				p.Recv(vcluster.MasterRank, 0)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig 8: %w", err)
		}
		res.X = append(res.X, mb)
		// Per-worker transfer duration, measured on the master side: the
		// master's send event spans exactly the wire time (the workers are
		// all ready at t = 0), whereas a worker-side reception event also
		// includes queueing behind the earlier sends.
		durs := make([]float64, workers)
		for _, e := range r.Trace.Events() {
			if e.Proc == vcluster.MasterRank && e.Peer >= 1 {
				durs[e.Peer-1] = e.End - e.Start
			}
		}
		for w := 0; w < workers; w++ {
			res.Series[w].Y = append(res.Series[w].Y, durs[w])
		}
	}
	res.Notes = append(res.Notes,
		"paper shape: time vs size is linear through the origin, slope proportional to 1/speed")
	return res, nil
}

// fig9Speeds is the 5-worker heterogeneous platform used for the trace
// visualization: mixed communication and computation speeds chosen (like
// the paper's run) so that only a strict subset of the workers is enrolled.
func fig9Speeds() platform.Speeds {
	return platform.Speeds{
		Comm: []float64{10, 8, 6, 1, 1},
		Comp: []float64{8, 9, 7, 2, 1},
	}
}

// Fig9Trace reproduces Figure 9: one execution of the FIFO (INC_C)
// schedule on a heterogeneous 5-worker platform, rendered as an ASCII Gantt
// chart. The returned result carries the chart in Gantt and the enrolled
// worker count in a note.
func Fig9Trace(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := fig9Speeds()
	size := 100
	app := platform.DefaultApp(size)
	plat := sp.Platform(app)
	solved, err := dls.Solve(context.Background(), dls.Request{Platform: plat, Strategy: dls.StrategyIncC, Eval: cfg.Eval})
	if err != nil {
		return nil, err
	}
	sched := solved.Schedule
	scaled := sched.ScaledToLoad(float64(cfg.M))
	run, err := mmapp.Run(mmapp.Params{
		App:         app,
		Speeds:      sp,
		Loads:       scaled.Alpha,
		SendOrder:   scaled.SendOrder,
		ReturnOrder: scaled.ReturnOrder,
		Latency:     cfg.Latency,
		Jitter:      cfg.Jitter,
		Seed:        cfg.Seed,
		CacheFactor: cfg.CacheFactor,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "9",
		Title:  "Visualizing an execution on a heterogeneous platform (FIFO = INC_C)",
		XLabel: "virtual time",
		Gantt:  run.Trace.Gantt(sp.P()+1, 100, run.ProcNames),
		SVG:    run.Trace.SVG(sp.P()+1, run.ProcNames),
	}
	parts := sched.Participants()
	res.Notes = append(res.Notes,
		fmt.Sprintf("enrolled %d of %d workers: %v (paper: only the fast workers compute)", len(parts), sp.P(), parts),
		fmt.Sprintf("simulated makespan %.4g s for M=%d size-%d products", run.Makespan, cfg.M, size))
	return res, nil
}

// Fig14Participation reproduces Figure 14: the resource-selection study on
// the Section 5.3.4 four-worker platform. For each number of available
// workers 1..4 (prefixes of the table), it reports the LP-predicted time,
// the measured time and the number of workers actually enrolled. x is the
// communication speed of the slow fourth worker: the paper shows x = 1
// (never used) and x = 3 (used when available).
func Fig14Participation(cfg Config, x float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	full := platform.Fig14Speeds(x)
	size := 400
	app := platform.DefaultApp(size)

	res := &Result{
		ID:     fmt.Sprintf("14(x=%g)", x),
		Title:  fmt.Sprintf("Participating workers, INC_C, matrix size %d, x=%g", size, x),
		XLabel: "number of available workers",
		Series: []Series{
			{Name: "lp time (s)"},
			{Name: "real time (s)"},
			{Name: "nb of workers"},
		},
	}
	// One engine batch over the availability prefixes.
	speedSets := make([]platform.Speeds, full.P())
	reqs := make([]dls.Request, full.P())
	for avail := 1; avail <= full.P(); avail++ {
		sp := platform.Speeds{Comm: full.Comm[:avail], Comp: full.Comp[:avail]}
		speedSets[avail-1] = sp
		reqs[avail-1] = dls.Request{
			Platform: sp.Platform(app),
			Strategy: dls.StrategyIncC,
			Eval:     cfg.Eval,
			Load:     float64(cfg.M),
		}
	}
	solver, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	solved, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		return nil, err
	}
	for avail := 1; avail <= full.P(); avail++ {
		sched := solved[avail-1].Schedule
		seed := cfg.Seed + int64(avail)
		real, err := runReal(cfg, app, speedSets[avail-1], sched, seed)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, float64(avail))
		res.Series[0].Y = append(res.Series[0].Y, solved[avail-1].Makespan)
		res.Series[1].Y = append(res.Series[1].Y, real)
		res.Series[2].Y = append(res.Series[2].Y, float64(len(sched.Participants())))
	}
	if x <= 1 {
		res.Notes = append(res.Notes, "paper shape: the slow fourth worker is never used; time plateaus at 3 workers")
	} else {
		res.Notes = append(res.Notes, "paper shape: the fourth worker is used and yields a slight improvement")
	}
	return res, nil
}

// FigPairGap probes the paper's open complexity question (Section 5): how
// far the optimal FIFO and LIFO disciplines sit from the unrestricted
// (σ1, σ2) optimum, measured exhaustively on small heterogeneous star
// platforms. For each worker count p the figure averages, over random
// platforms, the ratio of the optimal-FIFO and optimal-LIFO throughputs to
// the best permutation pair's, found by the engine's pair-exhaustive
// strategy.
func FigPairGap(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Worker counts stay at pair-search scale: p = 5 already means 120
	// send orders over up to 120 return orders per platform. Platform
	// count follows cfg.Platforms, capped so the default 50-platform
	// protocol stays interactive.
	ps := []int{3, 4, 5}
	platforms := cfg.Platforms
	if platforms > 20 {
		platforms = 20
	}
	res := &Result{
		ID:     "pair",
		Title:  "Distance of the FIFO/LIFO disciplines from the unrestricted (σ1, σ2) optimum",
		XLabel: "workers",
		Series: []Series{
			{Name: "best-pair rho"},
			{Name: "FIFO-opt/pair"},
			{Name: "LIFO-opt/pair"},
		},
	}
	solver, err := newEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: pair: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	app := platform.DefaultApp(100)
	for _, p := range ps {
		reqs := make([]dls.Request, 0, 3*platforms)
		for i := 0; i < platforms; i++ {
			plat := platform.RandomSpeeds(rng, p, platform.Heterogeneous).Platform(app)
			for _, strat := range []string{dls.StrategyPairExhaustive, dls.StrategyFIFOExhaustive, dls.StrategyLIFOExhaustive} {
				reqs = append(reqs, dls.Request{Platform: plat, Strategy: strat, Eval: cfg.Eval})
			}
		}
		solved, err := solver.SolveBatch(context.Background(), reqs)
		if err != nil {
			return nil, fmt.Errorf("experiments: pair figure at p=%d: %w", p, err)
		}
		var pairRho, fifoRatio, lifoRatio float64
		for i := 0; i < platforms; i++ {
			pair := solved[3*i].Throughput
			pairRho += pair
			fifoRatio += solved[3*i+1].Throughput / pair
			lifoRatio += solved[3*i+2].Throughput / pair
		}
		res.X = append(res.X, float64(p))
		res.Series[0].Y = append(res.Series[0].Y, pairRho/float64(platforms))
		res.Series[1].Y = append(res.Series[1].Y, fifoRatio/float64(platforms))
		res.Series[2].Y = append(res.Series[2].Y, lifoRatio/float64(platforms))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("pair search strategy: %s (averages over %d random heterogeneous platforms per point)", dls.StrategyPairExhaustive, platforms),
		"the ratios measure the paper's open question: neither discipline is optimal in general,",
		"  but both stay within a few percent of the unrestricted optimum on random platforms")
	return res, nil
}

// Runner is the common signature of all figure reproductions.
type Runner func(Config) (*Result, error)

// Registry maps figure identifiers to their reproduction functions, for
// the CLI and the benchmark harness.
func Registry() map[string]Runner {
	return map[string]Runner{
		"8":   Fig8Linearity,
		"9":   Fig9Trace,
		"10":  Fig10HomogeneousBus,
		"11":  Fig11HeteroComp,
		"12":  Fig12HeteroStar,
		"13a": Fig13aComputeX10,
		"13b": Fig13bCommX10,
		"14a": func(cfg Config) (*Result, error) { return Fig14Participation(cfg, 1) },
		"14b": func(cfg Config) (*Result, error) { return Fig14Participation(cfg, 3) },
		// Beyond the paper's figures: the Section 5 open-question probe.
		"pair": FigPairGap,
	}
}

// FigureIDs returns the registry keys in display order.
func FigureIDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Table renders the result as an aligned text table, one row per X value.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", r.ID, r.Title)
	if len(r.X) > 0 {
		fmt.Fprintf(&b, "%-14s", r.XLabel)
		for _, s := range r.Series {
			fmt.Fprintf(&b, "  %22s", s.Name)
		}
		b.WriteString("\n")
		for i, x := range r.X {
			fmt.Fprintf(&b, "%-14.6g", x)
			for _, s := range r.Series {
				fmt.Fprintf(&b, "  %22.6g", s.Y[i])
			}
			b.WriteString("\n")
		}
	}
	if r.Gantt != "" {
		b.WriteString(r.Gantt)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result as comma-separated values with a header row.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(r.XLabel))
	for _, s := range r.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteString("\n")
	for i, x := range r.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range r.Series {
			fmt.Fprintf(&b, ",%g", s.Y[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
