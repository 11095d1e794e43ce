package dls_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/numeric"
)

// sweepThroughput runs the p! sweep directly, the path the order-search
// strategies took before the theorem shortcut.
func sweepThroughput(t *testing.T, req dls.Request) float64 {
	t.Helper()
	search := core.BestFIFOExhaustiveEval
	if req.Strategy == dls.StrategyLIFOExhaustive {
		search = core.BestLIFOExhaustiveEval
	}
	s, _, err := search(context.Background(), req.Platform, req.Model, dls.EvalAuto)
	if err != nil {
		t.Fatal(err)
	}
	return s.Throughput()
}

// TestOrderSearchTheoremPath: on a platform with a common z, FIFO one-port
// and LIFO under either model answer in the theorem's order, agree with
// the sweep, and count as theorem answers.
func TestOrderSearchTheoremPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t)
	for _, tc := range []struct {
		strategy string
		model    dls.Model
		send     dls.Order
	}{
		{dls.StrategyFIFOExhaustive, dls.OnePort, p.ByC()},
		{dls.StrategyLIFOExhaustive, dls.OnePort, p.ByC()},
		{dls.StrategyLIFOExhaustive, dls.TwoPort, p.ByC()},
	} {
		req := dls.Request{Platform: p, Strategy: tc.strategy, Model: tc.model}
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.strategy, tc.model, err)
		}
		if !res.Send.Valid(p.P()) || len(res.Send) != len(tc.send) {
			t.Fatalf("%s/%v: send %v is not a full order", tc.strategy, tc.model, res.Send)
		}
		for i := range tc.send {
			if res.Send[i] != tc.send[i] {
				t.Fatalf("%s/%v: send %v, want the theorem's %v", tc.strategy, tc.model, res.Send, tc.send)
			}
		}
		if want := sweepThroughput(t, req); math.Abs(res.Throughput-want) > 1e-12*want {
			t.Fatalf("%s/%v: throughput %.17g, sweep %.17g", tc.strategy, tc.model, res.Throughput, want)
		}
	}
	if got := solver.Stats().OrderSearch; got != (dls.OrderSearchStats{Theorem: 3}) {
		t.Fatalf("OrderSearch = %+v, want {Theorem:3 Sweep:0}", got)
	}
}

// TestOrderSearchSweepCases: explicit backends, two-port FIFO, platforms
// without a common z and platforms whose ratios are only within
// numeric.RatioTol of each other all run the sweep.
func TestOrderSearchSweepCases(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	near := p.Clone()
	near.Workers[2].D *= 1 + numeric.RatioTol
	if _, ok := near.Z(); !ok {
		t.Fatal("Platform.Z rejects ratios RatioTol apart")
	}
	general := p.Clone()
	general.Workers[0].D *= 3
	for _, req := range []dls.Request{
		{Platform: p, Strategy: dls.StrategyFIFOExhaustive, Eval: dls.EvalDirect},
		{Platform: p, Strategy: dls.StrategyLIFOExhaustive, Eval: dls.EvalSimplex},
		{Platform: p, Strategy: dls.StrategyFIFOExhaustive, Model: dls.TwoPort},
		{Platform: general, Strategy: dls.StrategyFIFOExhaustive},
		{Platform: general, Strategy: dls.StrategyLIFOExhaustive},
		{Platform: near, Strategy: dls.StrategyFIFOExhaustive},
		{Platform: near, Strategy: dls.StrategyLIFOExhaustive, Model: dls.TwoPort},
	} {
		solver := mustSolver(t)
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if got := solver.Stats().OrderSearch; got != (dls.OrderSearchStats{Sweep: 1}) {
			t.Errorf("%s/%v eval %v: OrderSearch = %+v, want the sweep", req.Strategy, req.Model, req.Eval, got)
		}
	}
}

// TestOrderSearchTheoremFallsBackToSweep: at extreme z the float evaluator
// can fail to verify the theorem's schedule while another optimal order
// passes. The request then runs the sweep instead of failing.
func TestOrderSearchTheoremFallsBackToSweep(t *testing.T) {
	const z = 1e6
	p := dls.NewPlatform(
		dls.Worker{C: 0.25, W: 0.96, D: 0.25 * z},
		dls.Worker{C: 1, W: 0.20, D: z},
		dls.Worker{C: 1, W: 0.39, D: z},
		dls.Worker{C: 1, W: 0.71, D: z},
		dls.Worker{C: 1, W: 0.44, D: z},
	)
	send := p.ByCDesc() // Theorem 1's order for z > 1
	if _, err := core.SolveScenario(context.Background(), p, send, send, dls.OnePort, dls.EvalAuto); err == nil {
		t.Fatal("the theorem's schedule verifies: the fallback is not exercised")
	}
	// A serial sweep: at this z the range-split sweep fails verification
	// on its own winner (a separate evaluator limit, see ROADMAP).
	solver := mustSolver(t, dls.WithSearchParallelism(1))
	req := dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive}
	res, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if want := sweepThroughput(t, req); res.Throughput != want {
		t.Fatalf("throughput %.17g, sweep %.17g", res.Throughput, want)
	}
	if got := solver.Stats().OrderSearch; got != (dls.OrderSearchStats{Sweep: 1}) {
		t.Fatalf("OrderSearch = %+v, want {Theorem:0 Sweep:1}", got)
	}
}

// TestFIFOStrategyLargeZ: for z > 1 the fifo strategy solves the mirrored
// platform and flips the schedule in time. On this z = 1e5 platform the
// float evaluator cannot verify Theorem 1's order solved directly, but it
// verifies the flipped mirror, so the strategy answers, and agrees with
// exact arithmetic.
func TestFIFOStrategyLargeZ(t *testing.T) {
	const z = 1e5
	p := dls.NewPlatform(
		dls.Worker{C: 0.9, W: 0.4, D: 0.9 * z},
		dls.Worker{C: 0.5, W: 1.4, D: 0.5 * z},
		dls.Worker{C: 0.5, W: 1.8, D: 0.5 * z},
	)
	send := p.ByCDesc()
	if _, err := core.SolveScenario(context.Background(), p, send, send, dls.OnePort, dls.EvalAuto); err == nil {
		t.Fatal("Theorem 1's order verifies when solved directly: the mirror route is not exercised")
	}
	res, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO})
	if err != nil {
		t.Fatalf("fifo: %v", err)
	}
	exact, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Arith: dls.Exact})
	if err != nil {
		t.Fatalf("fifo exact: %v", err)
	}
	if want := exact.Throughput; math.Abs(res.Throughput-want) > 1e-12*want {
		t.Fatalf("throughput %.17g, exact %.17g", res.Throughput, want)
	}
}
