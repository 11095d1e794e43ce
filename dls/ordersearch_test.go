package dls_test

import (
	"context"
	"fmt"
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
		{Platform: p, Strategy: dls.StrategyFIFOExhaustive, Eval: dls.EvalSimplex},
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

// TestOrderSearchTheoremAtLargeZ: at z = 1e6 loads and multipliers sum to
// ρ ≈ 4e-6, and the evaluator, judging its certificates in the schedule's
// own time scale, still verifies Theorem 1's order. fifo and
// fifo-exhaustive both answer the exact optimum, the latter through the
// theorem path, and the p! sweep returns the same schedule at 1, 2 and 4
// search workers.
func TestOrderSearchTheoremAtLargeZ(t *testing.T) {
	const z = 1e6
	p := dls.NewPlatform(
		dls.Worker{C: 0.25, W: 0.96, D: 0.25 * z},
		dls.Worker{C: 1, W: 0.20, D: z},
		dls.Worker{C: 1, W: 0.39, D: z},
		dls.Worker{C: 1, W: 0.71, D: z},
		dls.Worker{C: 1, W: 0.44, D: z},
	)
	const want = 3.9999844800597568e-06 // the exact LP optimum, rounded
	for _, strategy := range []string{dls.StrategyFIFO, dls.StrategyFIFOExhaustive} {
		solver := mustSolver(t)
		res, err := solver.Solve(context.Background(), dls.Request{Platform: p, Strategy: strategy})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Throughput != want {
			t.Fatalf("%s: throughput %.17g, want %.17g", strategy, res.Throughput, want)
		}
		if strategy == dls.StrategyFIFOExhaustive {
			if got := solver.Stats().OrderSearch; got != (dls.OrderSearchStats{Theorem: 1}) {
				t.Fatalf("OrderSearch = %+v, want {Theorem:1 Sweep:0}", got)
			}
		}
	}
	var serial string
	for _, workers := range []int{1, 2, 4} {
		ctx := core.ContextWithSearchParallelism(context.Background(), workers)
		s, order, err := core.BestFIFOExhaustiveEval(ctx, p, dls.OnePort, dls.EvalAuto)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if s.Throughput() != want {
			t.Fatalf("%d workers: sweep throughput %.17g, want %.17g", workers, s.Throughput(), want)
		}
		got := fmt.Sprintf("%v %v %v %x", order, s.SendOrder, s.ReturnOrder, alphaBits(s.Alpha))
		if workers == 1 {
			serial = got
		} else if got != serial {
			t.Fatalf("%d workers: sweep answer %s, serial %s", workers, got, serial)
		}
	}
}

// alphaBits returns the IEEE bit patterns of the loads.
func alphaBits(alpha []float64) []uint64 {
	bits := make([]uint64, len(alpha))
	for i, a := range alpha {
		bits[i] = math.Float64bits(a)
	}
	return bits
}

// TestFIFOStrategyLargeZ: for z > 1 the fifo strategy solves Theorem 1's
// order, non-increasing c, directly. On this z = 1e5 platform that order
// verifies, and the strategy agrees with exact arithmetic.
func TestFIFOStrategyLargeZ(t *testing.T) {
	const z = 1e5
	p := dls.NewPlatform(
		dls.Worker{C: 0.9, W: 0.4, D: 0.9 * z},
		dls.Worker{C: 0.5, W: 1.4, D: 0.5 * z},
		dls.Worker{C: 0.5, W: 1.8, D: 0.5 * z},
	)
	send := p.ByCDesc()
	if _, err := core.SolveScenario(context.Background(), p, send, send, dls.OnePort, dls.EvalAuto); err != nil {
		t.Fatalf("Theorem 1's order fails when solved directly: %v", err)
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
