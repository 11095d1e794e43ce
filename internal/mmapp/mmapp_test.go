package mmapp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/rounding"
	"repro/internal/schedule"
)

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }

func baseParams(size, workers int) Params {
	sp := platform.Speeds{Comm: make([]float64, workers), Comp: make([]float64, workers)}
	for i := range sp.Comm {
		sp.Comm[i], sp.Comp[i] = float64(1+i), float64(workers-i)
	}
	return Params{
		App:         platform.DefaultApp(size),
		Speeds:      sp,
		Loads:       make([]float64, workers),
		SendOrder:   platform.Identity(workers),
		ReturnOrder: platform.Identity(workers),
	}
}

func TestValidate(t *testing.T) {
	ok := baseParams(100, 3)
	ok.Loads = []float64{1, 2, 3}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"bad app", func(p *Params) { p.App.MatrixSize = 0 }},
		{"speeds mismatch", func(p *Params) { p.Speeds.Comp = p.Speeds.Comp[:1] }},
		{"loads mismatch", func(p *Params) { p.Loads = p.Loads[:1] }},
		{"negative load", func(p *Params) { p.Loads[0] = -1 }},
		{"order length", func(p *Params) { p.ReturnOrder = p.ReturnOrder[:1] }},
		{"order range", func(p *Params) { p.SendOrder[0] = 9 }},
		{"dup send", func(p *Params) { p.SendOrder = platform.Order{0, 0, 1} }},
		{"dup return", func(p *Params) { p.ReturnOrder = platform.Order{0, 0, 1} }},
		{"return not sent", func(p *Params) {
			p.SendOrder = platform.Order{0, 1}
			p.ReturnOrder = platform.Order{0, 2}
		}},
		{"loaded not enrolled", func(p *Params) {
			p.Loads[2] = 5
			p.SendOrder = platform.Order{0, 1}
			p.ReturnOrder = platform.Order{0, 1}
		}},
		{"negative cache factor", func(p *Params) { p.CacheFactor = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := baseParams(100, 3)
			p.Loads = []float64{1, 2, 3}
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("want validation error")
			}
			if _, err := Run(p); err == nil {
				t.Error("Run must reject invalid params")
			}
		})
	}
}

// TestMatchesLPPredictionExactly is the central integration test between
// the theory and the simulator: running the optimal FIFO schedule's exact
// fractional loads on the noise-free virtual cluster must reproduce the
// LP-predicted makespan M/ρ to float accuracy.
func TestMatchesLPPredictionExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		size := 40 + 40*trial
		workers := 3 + rng.Intn(6)
		sp := platform.RandomSpeeds(rng, workers, platform.Heterogeneous)
		app := platform.DefaultApp(size)
		plat := sp.Platform(app)

		sched, err := core.OptimalFIFO(plat, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		const M = 1000.0
		scaled := sched.ScaledToLoad(M)

		params := Params{
			App:         app,
			Speeds:      sp,
			Loads:       scaled.Alpha,
			SendOrder:   scaled.SendOrder,
			ReturnOrder: scaled.ReturnOrder,
		}
		res, err := Run(params)
		if err != nil {
			t.Fatal(err)
		}
		predicted := core.MakespanForLoad(sched, M)
		if re := relErr(res.Makespan, predicted); re > 1e-9 {
			t.Errorf("trial %d (S=%d, p=%d): simulated %g vs predicted %g (rel err %g)",
				trial, size, workers, res.Makespan, predicted, re)
		}
	}
}

// TestLIFOMatchesLPPrediction repeats the integration check for the LIFO
// discipline, whose return order stresses the master-side receive sequence.
func TestLIFOMatchesLPPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sp := platform.RandomSpeeds(rng, 6, platform.Heterogeneous)
	app := platform.DefaultApp(120)
	plat := sp.Platform(app)
	sched, err := core.SolveScenario(context.Background(), plat, plat.ByC(), plat.ByC().Reverse(), schedule.OnePort, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	const M = 500.0
	scaled := sched.ScaledToLoad(M)
	res, err := Run(Params{
		App:         app,
		Speeds:      sp,
		Loads:       scaled.Alpha,
		SendOrder:   scaled.SendOrder,
		ReturnOrder: scaled.ReturnOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	predicted := core.MakespanForLoad(sched, M)
	if re := relErr(res.Makespan, predicted); re > 1e-9 {
		t.Errorf("simulated %g vs predicted %g (rel err %g)", res.Makespan, predicted, re)
	}
}

// TestRoundedLoadsCloseToPrediction: with integer loads the measured time
// deviates only by rounding effects (well under 5% for M = 1000).
func TestRoundedLoadsCloseToPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sp := platform.RandomSpeeds(rng, 5, platform.Heterogeneous)
	app := platform.DefaultApp(100)
	plat := sp.Platform(app)
	sched, err := core.OptimalFIFO(plat, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := rounding.Distribute(sched.Alpha, sched.SendOrder, 1000)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, len(counts))
	for i, c := range counts {
		loads[i] = float64(c)
	}
	res, err := Run(Params{
		App:         app,
		Speeds:      sp,
		Loads:       loads,
		SendOrder:   sched.SendOrder,
		ReturnOrder: sched.ReturnOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	predicted := core.MakespanForLoad(sched, 1000)
	if re := relErr(res.Makespan, predicted); re > 0.05 {
		t.Errorf("rounded run %g too far from predicted %g (rel err %g)", res.Makespan, predicted, re)
	}
	// Rounding can only slow the schedule down or keep it equal — it
	// perturbs the optimal fractional solution.
	if res.Makespan < predicted*(1-1e-9) {
		t.Errorf("rounded run %g faster than LP optimum %g", res.Makespan, predicted)
	}
}

func TestZeroLoadWorkersSkipped(t *testing.T) {
	p := baseParams(80, 4)
	p.Loads = []float64{10, 0, 5, 0}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events() {
		if e.Proc == 2 || e.Proc == 4 { // ranks of zero-load workers
			t.Errorf("zero-load worker has event %+v", e)
		}
	}
}

func TestCacheFactorSlowsComputation(t *testing.T) {
	p := baseParams(200, 2)
	p.Loads = []float64{10, 10}
	base, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CacheFactor = 0.002
	slow, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Errorf("cache factor did not slow the run: %g vs %g", slow.Makespan, base.Makespan)
	}
}

func TestJitterAndLatencyDeterministic(t *testing.T) {
	p := baseParams(100, 3)
	p.Loads = []float64{5, 7, 9}
	p.Jitter = 0.1
	p.Latency = 1e-4
	p.Seed = 7
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("non-deterministic: %g vs %g", a.Makespan, b.Makespan)
	}
}

func TestTraceShape(t *testing.T) {
	p := baseParams(60, 2)
	p.Loads = []float64{3, 4}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProcNames) != 3 || res.ProcNames[0] != "master" {
		t.Errorf("proc names = %v", res.ProcNames)
	}
	// Each loaded worker contributes recv+compute+send on its row and
	// send+recv on the master's row: 4 transfers ×2 + 2 computes = 10.
	if res.Trace.Len() != 10 {
		t.Errorf("trace has %d events, want 10", res.Trace.Len())
	}
	// The simulated schedule must satisfy the one-port property; check via
	// master-row disjointness.
	var iv [][2]float64
	for _, e := range res.Trace.Events() {
		if e.Proc == 0 {
			iv = append(iv, [2]float64{e.Start, e.End})
		}
	}
	for i := range iv {
		for j := i + 1; j < len(iv); j++ {
			if iv[i][0] < iv[j][1]-1e-12 && iv[j][0] < iv[i][1]-1e-12 {
				t.Errorf("master port overlap: %v %v", iv[i], iv[j])
			}
		}
	}
}

func BenchmarkRun11Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	sp := platform.RandomSpeeds(rng, 11, platform.Heterogeneous)
	app := platform.DefaultApp(100)
	plat := sp.Platform(app)
	sched, err := core.OptimalFIFO(plat, eval.Auto)
	if err != nil {
		b.Fatal(err)
	}
	scaled := sched.ScaledToLoad(1000)
	p := Params{
		App:         app,
		Speeds:      sp,
		Loads:       scaled.Alpha,
		SendOrder:   scaled.SendOrder,
		ReturnOrder: scaled.ReturnOrder,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
