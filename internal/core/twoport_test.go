package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

func TestTwoPortFIFOSortedOptimal(t *testing.T) {
	// The companion-paper ordering (non-decreasing c) must match the
	// exhaustive best over all two-port FIFO orders.
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 5, 0.15+0.8*rng.Float64())
		opt, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC(), schedule.TwoPort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		best, order, err := BestFIFOExhaustiveEval(context.Background(), p, schedule.TwoPort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(opt.Throughput(), best.Throughput()) {
			t.Errorf("trial %d: sorted two-port FIFO %g != exhaustive best %g (order %v)",
				trial, opt.Throughput(), best.Throughput(), order)
		}
	}
}

func TestTwoPortLIFOEqualsOnePortLIFO(t *testing.T) {
	// Every LIFO schedule obeys the one-port model, so the optima agree.
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 5, 0.2+0.7*rng.Float64())
		one, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		two, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.TwoPort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(one.Throughput(), two.Throughput()) {
			t.Errorf("trial %d: one-port LIFO %g != two-port LIFO %g",
				trial, one.Throughput(), two.Throughput())
		}
	}
}

func TestOnePortPenaltyAtLeastOne(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 6, 0.5)
		ratio, err := OnePortPenalty(p, Float64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1-tol {
			t.Errorf("trial %d: penalty %g < 1 — two-port worse than one-port", trial, ratio)
		}
		// The two-port advantage is bounded by 2: it can at most overlap
		// the entire send and return phases.
		if ratio > 2+tol {
			t.Errorf("trial %d: penalty %g > 2 — exceeds the overlap bound", trial, ratio)
		}
	}
}

func TestOnePortPenaltyCommBoundRegime(t *testing.T) {
	// With negligible compute on a z = 1 bus, the two-port FIFO throughput
	// is ρ̃ = (p/(p+1))/d while one-port is pinned at 1/(2d): the penalty is
	// 2p/(p+1) and approaches 2 as workers are added. With p = 20 it is
	// 40/21 ≈ 1.905.
	ws := make([]float64, 20)
	for i := range ws {
		ws[i] = 1e-9
	}
	p := platform.NewBus(0.3, 0.3, ws...)
	ratio, err := OnePortPenalty(p, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.85 || ratio > 2+tol {
		t.Errorf("comm-bound z=1 penalty = %g, want ≈ 40/21", ratio)
	}
}

func TestOnePortPenaltyErrors(t *testing.T) {
	if _, err := OnePortPenalty(platform.New(), Float64); err == nil {
		t.Error("invalid platform must be rejected")
	}
	if _, err := SolveScenario(context.Background(), platform.New(), nil, nil, schedule.TwoPort, eval.Auto); err == nil {
		t.Error("invalid platform must be rejected under TwoPort")
	}
}

// TestQuickTwoPortSandwich: one-port FIFO ≤ two-port FIFO ≤ the two-port
// bus bound when the platform is a bus.
func TestQuickTwoPortSandwich(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomBus(rng, 1+rng.Intn(5), true)
		one, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			return false
		}
		two, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC(), schedule.TwoPort, eval.Auto)
		if err != nil {
			return false
		}
		rho2, err := BusTwoPortFIFOThroughput(p)
		if err != nil {
			return false
		}
		return one.Throughput() <= two.Throughput()+tol &&
			approxEq(two.Throughput(), rho2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
