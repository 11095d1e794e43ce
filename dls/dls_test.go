package dls_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/dls"
)

// mustSolve runs req on the default solver and fails the test on error.
func mustSolve(t *testing.T, req dls.Request) *dls.Result {
	t.Helper()
	res, err := dls.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", req.Strategy, err)
	}
	return res
}

func TestFacadeEndToEnd(t *testing.T) {
	// Build a platform, compute the optimal FIFO schedule, round to 100
	// units, simulate, and compare against the prediction — the full
	// public workflow.
	app := dls.DefaultApp(100)
	rng := rand.New(rand.NewSource(1))
	speeds := dls.RandomSpeeds(rng, 6, dls.Heterogeneous)
	p := speeds.Platform(app)

	s := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFO}).Schedule
	if s.Throughput() <= 0 || !s.IsFIFO() {
		t.Fatalf("bad schedule: %v", s)
	}

	counts, err := dls.DistributeInteger(s.Alpha, s.SendOrder, 100)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	loads := make([]float64, len(counts))
	for i, c := range counts {
		total += c
		loads[i] = float64(c)
	}
	if total != 100 {
		t.Fatalf("rounding lost units: %d", total)
	}

	res, err := dls.Simulate(dls.SimulationParams{
		App:         app,
		Speeds:      speeds,
		Loads:       loads,
		SendOrder:   s.SendOrder,
		ReturnOrder: s.ReturnOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	predicted := dls.MakespanForLoad(s, 100)
	if math.Abs(res.Makespan-predicted)/predicted > 0.25 {
		t.Errorf("simulated %g too far from predicted %g", res.Makespan, predicted)
	}
}

func TestFacadeBusRoutines(t *testing.T) {
	p := dls.NewBus(0.1, 0.05, 0.4, 0.6, 0.8)
	rho, err := dls.BusFIFOThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyBusFIFO}).Schedule
	if math.Abs(s.Throughput()-rho) > 1e-9 {
		t.Errorf("schedule %g vs closed form %g", s.Throughput(), rho)
	}
	exact, err := dls.ExactBusFIFOThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := exact.Float64()
	if math.Abs(ef-rho) > 1e-9 {
		t.Errorf("exact %g vs float %g", ef, rho)
	}
	lifo, err := dls.BusLIFOThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	two, err := dls.BusTwoPortFIFOThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(lifo <= rho+1e-9 && rho <= two+1e-9) {
		t.Errorf("ordering broken: lifo %g, fifo %g, two-port %g", lifo, rho, two)
	}
}

func TestFacadeScenarioAndSearches(t *testing.T) {
	p := dls.NewPlatform(
		dls.Worker{C: 0.05, W: 0.3, D: 0.025},
		dls.Worker{C: 0.08, W: 0.2, D: 0.040},
		dls.Worker{C: 0.10, W: 0.5, D: 0.050},
	)
	order := dls.Order{0, 1, 2}
	sc := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyScenario, Send: order, Return: dls.Order{2, 1, 0}, Arith: dls.Exact})
	if !sc.Schedule.IsLIFO() {
		t.Error("reverse return order must be LIFO")
	}
	fifo := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive})
	lifo := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyLIFOExhaustive})
	pair := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive})
	if fifo.Throughput > pair.Throughput+1e-9 || lifo.Throughput > pair.Throughput+1e-9 {
		t.Error("fixed disciplines cannot beat the unrestricted pair search")
	}
	incc := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyIncC})
	incw := mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyIncW})
	if incw.Throughput > incc.Throughput+1e-9 {
		t.Error("INC_W beat INC_C with a common z < 1, contradicting Theorem 1")
	}
	mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyFIFOOrder, Send: order, Model: dls.TwoPort})
	mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyLIFOOrder, Send: order, Model: dls.TwoPort})
	mustSolve(t, dls.Request{Platform: p, Strategy: dls.StrategyLIFO})
}

func TestFacadeErrNoCommonZ(t *testing.T) {
	p := dls.NewPlatform(
		dls.Worker{C: 1, W: 1, D: 0.5},
		dls.Worker{C: 1, W: 1, D: 0.7},
	)
	if _, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO}); err != dls.ErrNoCommonZ {
		t.Errorf("want ErrNoCommonZ, got %v", err)
	}
}

func TestFacadeFig14(t *testing.T) {
	app := dls.DefaultApp(400)
	blocked := dls.Fig14Speeds(1).Platform(app)
	s := mustSolve(t, dls.Request{Platform: blocked, Strategy: dls.StrategyFIFO}).Schedule
	for _, w := range s.Participants() {
		if w == 3 {
			t.Error("x=1: slow worker enrolled")
		}
	}
}
