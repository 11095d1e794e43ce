package dls_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/dls"
)

func TestFacadeAffine(t *testing.T) {
	p := dls.NewPlatform(
		dls.Worker{C: 0.05, W: 0.3, D: 0.025},
		dls.Worker{C: 0.08, W: 0.2, D: 0.04},
	)
	order := dls.Order{0, 1}
	zeroAff := dls.ZeroAffine(2)
	zero := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyScenarioAffine, Affine: &zeroAff, Send: order, Return: order}).Affine
	linear := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyScenario, Send: order, Return: order})
	if math.Abs(zero.Throughput-linear.Throughput) > 1e-7 {
		t.Errorf("zero affine %g != linear %g", zero.Throughput, linear.Throughput)
	}
	aff := dls.ZeroAffine(2)
	aff.In[0], aff.In[1] = 0.1, 0.1
	best := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFOAffine, Affine: &aff}).Affine
	if !best.Feasible || best.Throughput <= 0 {
		t.Errorf("affine best: %+v", best)
	}
	if best.Throughput > zero.Throughput {
		t.Error("latency increased throughput")
	}
}

func TestFacadeTwoPort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sp := dls.RandomSpeeds(rng, 5, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(100))
	two := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Model: dls.TwoPort})
	one := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFO})
	if two.Throughput < one.Throughput-1e-9 {
		t.Error("two-port below one-port")
	}
	lifo2 := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyLIFO, Model: dls.TwoPort})
	lifo1 := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyLIFO})
	if math.Abs(lifo1.Throughput-lifo2.Throughput) > 1e-7 {
		t.Error("LIFO optima differ across models")
	}
	pen, err := dls.OnePortPenalty(p, dls.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if pen < 1-1e-9 || pen > 2+1e-9 {
		t.Errorf("penalty %g outside [1, 2]", pen)
	}
}

func TestFacadeMultiRound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := dls.RandomSpeeds(rng, 4, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(150))
	loads := []float64{10, 10, 10, 10}
	params := dls.MultiRoundParams{Platform: p, Loads: loads, Order: p.ByC(), Rounds: 1}

	m1, err := dls.MultiRoundMakespan(params)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := dls.MultiRoundSweep(params, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sweep[0]-m1) > 1e-12 {
		t.Errorf("sweep[0] = %g, Makespan(R=1) = %g", sweep[0], m1)
	}
	bestR, bestM, err := dls.BestRounds(params, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sweep {
		if bestM > m+1e-12 {
			t.Errorf("best %g at R=%d not minimal in %v", bestM, bestR, sweep)
		}
	}
}
