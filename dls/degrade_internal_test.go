package dls

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// degradePlatform has no common z (worker 3's d/c is 0.6, the others'
// 0.5), so its order searches run the sweep, the path degradation guards.
func degradePlatform() *Platform {
	return NewPlatform(
		Worker{C: 0.05, W: 0.30, D: 0.025},
		Worker{C: 0.08, W: 0.20, D: 0.040},
		Worker{C: 0.10, W: 0.50, D: 0.060},
		Worker{C: 0.07, W: 0.25, D: 0.035},
	)
}

// theoremPlatform is degradePlatform with a common z = 1/2: the order
// searches take the theorem's order.
func theoremPlatform() *Platform {
	p := degradePlatform()
	p.Workers[2].D = 0.050
	return p
}

// warm seeds the solver's cost EWMA so degradation decisions are
// deterministic regardless of machine speed.
func warm(s *Solver, strategy string, p int, est time.Duration) {
	s.costs.observe(strategy, p, est)
}

func TestDegradeAnswersWithHeuristic(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	warm(s, StrategyFIFOExhaustive, plat.P(), time.Hour)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := Request{Platform: plat, Strategy: StrategyFIFOExhaustive, Load: 100}
	res, err := s.Solve(ctx, req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded despite a deadline-busting estimate")
	}
	if res.Strategy != StrategyFIFOExhaustive {
		t.Fatalf("Strategy = %q, want the requested %q", res.Strategy, StrategyFIFOExhaustive)
	}
	found := false
	for _, name := range degradeFallbacks[StrategyFIFOExhaustive] {
		if res.DegradedTo == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("DegradedTo = %q, not a registered fallback", res.DegradedTo)
	}
	if res.Schedule == nil || res.Throughput <= 0 || res.Makespan <= 0 {
		t.Fatalf("degraded result incomplete: %+v", res)
	}

	// The degraded schedule must be byte-identical to solving the
	// fallback strategy directly.
	direct, err := s.Solve(context.Background(), Request{Platform: plat, Strategy: res.DegradedTo, Load: 100})
	if err != nil {
		t.Fatalf("direct %s solve: %v", res.DegradedTo, err)
	}
	type schedule struct {
		Alpha      []float64
		Send       Order
		Return     Order
		Throughput float64
		Makespan   float64
	}
	enc := func(r *Result) string {
		b, err := json.Marshal(schedule{r.Schedule.Alpha, r.Send, r.Return, r.Throughput, r.Makespan})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := enc(res), enc(direct); got != want {
		t.Fatalf("degraded schedule diverges from direct %s solve:\n got %s\nwant %s", res.DegradedTo, got, want)
	}

	st := s.Stats()
	if st.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", st.Degraded)
	}
	if st.DegradedByStrategy[res.DegradedTo] != 1 {
		t.Fatalf("Stats.DegradedByStrategy = %v, want %q -> 1", st.DegradedByStrategy, res.DegradedTo)
	}
}

func TestDegradePicksBestFallback(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	warm(s, StrategyPairExhaustive, plat.P(), time.Hour)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := s.Solve(ctx, Request{Platform: plat, Strategy: StrategyPairExhaustive})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Degraded {
		t.Fatal("pair search did not degrade")
	}
	// Every other fallback must do no better than the winner.
	for _, name := range degradeFallbacks[StrategyPairExhaustive] {
		alt, err := s.Solve(context.Background(), Request{Platform: plat, Strategy: name})
		if err != nil {
			continue
		}
		if alt.Throughput > res.Throughput+1e-12 {
			t.Fatalf("fallback %s beats the degraded choice %s: %.12f > %.12f",
				name, res.DegradedTo, alt.Throughput, res.Throughput)
		}
	}
}

func TestDegradeRequiresDeadline(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	warm(s, StrategyFIFOExhaustive, plat.P(), time.Hour)

	// No deadline: the search runs even with a monstrous estimate.
	res, err := s.Solve(context.Background(), Request{Platform: plat, Strategy: StrategyFIFOExhaustive})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Degraded {
		t.Fatal("degraded without a deadline")
	}
}

func TestDegradeColdEstimateRunsSearch(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	if est := s.SolveCostEstimate(StrategyFIFOExhaustive, plat.P()); est != 0 {
		t.Fatalf("cold estimate = %v, want 0", est)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := s.Solve(ctx, Request{Platform: plat, Strategy: StrategyFIFOExhaustive})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Degraded {
		t.Fatal("degraded on a cold estimate")
	}
	// The completed search warmed the estimate.
	if est := s.SolveCostEstimate(StrategyFIFOExhaustive, plat.P()); est <= 0 {
		t.Fatal("estimate still cold after a completed search")
	}
}

func TestDegradeOffByDefault(t *testing.T) {
	s, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	warm(s, StrategyFIFOExhaustive, plat.P(), time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := s.Solve(ctx, Request{Platform: plat, Strategy: StrategyFIFOExhaustive})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Degraded {
		t.Fatal("solver degraded without WithDegradation")
	}
}

func TestDegradedResultNotCached(t *testing.T) {
	s, err := NewSolver(WithDegradation(), WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	plat := degradePlatform()
	warm(s, StrategyFIFOExhaustive, plat.P(), time.Hour)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := Request{Platform: plat, Strategy: StrategyFIFOExhaustive}
	res, err := s.Solve(ctx, req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Degraded {
		t.Fatal("first solve did not degrade")
	}

	// Cool the estimate down so an undeadlined re-solve runs the real
	// search: it must MISS the cache (the degraded answer was not put).
	s.costs.m.Delete(costKey{StrategyFIFOExhaustive, plat.P()})
	res2, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("second Solve: %v", err)
	}
	if res2.Cached {
		t.Fatal("second solve served from cache: degraded result was cached")
	}
	if res2.Degraded {
		t.Fatal("second solve degraded after the estimate was cleared")
	}
	// The true optimum must be at least as good as the heuristic.
	if res2.Throughput+1e-12 < res.Throughput {
		t.Fatalf("exhaustive optimum %.12f worse than heuristic %.12f", res2.Throughput, res.Throughput)
	}
}

// TestDegradeSkipsTheoremAnswer: an order search the theorems answer is
// exact and fast, so a deadline-busting sweep estimate must not replace it
// with a heuristic.
func TestDegradeSkipsTheoremAnswer(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := theoremPlatform()
	for _, strategy := range []string{StrategyFIFOExhaustive, StrategyLIFOExhaustive} {
		warm(s, strategy, plat.P(), time.Hour)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := s.Solve(ctx, Request{Platform: plat, Strategy: strategy})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Degraded {
			t.Fatalf("%s: theorem answer degraded to %s", strategy, res.DegradedTo)
		}
		sweep, err := s.Solve(context.Background(), Request{Platform: plat, Strategy: strategy, Eval: EvalSimplex})
		if err != nil {
			t.Fatalf("%s sweep: %v", strategy, err)
		}
		if math.Abs(res.Throughput-sweep.Throughput) > 1e-12*sweep.Throughput {
			t.Fatalf("%s: theorem throughput %.17g, sweep %.17g", strategy, res.Throughput, sweep.Throughput)
		}
	}
	st := s.Stats()
	if st.Degraded != 0 || st.OrderSearch.Theorem != 2 || st.OrderSearch.Sweep != 2 {
		t.Fatalf("Stats: degraded %d, order searches %+v; want 0, {Theorem:2 Sweep:2}", st.Degraded, st.OrderSearch)
	}
}

// TestTheoremAnswersStayOutOfCostEstimate: the cost EWMA estimates the
// sweep. Theorem answers of a few microseconds must not drag it down, or a
// later request without a common z would run a sweep that busts its
// deadline instead of degrading.
func TestTheoremAnswersStayOutOfCostEstimate(t *testing.T) {
	s, err := NewSolver(WithDegradation())
	if err != nil {
		t.Fatal(err)
	}
	plat := theoremPlatform()
	warm(s, StrategyFIFOExhaustive, plat.P(), time.Hour)
	// 30 cheap observations would pull a one-hour EWMA under 0.1 s.
	for i := 0; i < 30; i++ {
		if _, err := s.Solve(context.Background(), Request{Platform: plat, Strategy: StrategyFIFOExhaustive}); err != nil {
			t.Fatal(err)
		}
	}
	if est := s.SolveCostEstimate(StrategyFIFOExhaustive, plat.P()); est != time.Hour {
		t.Fatalf("estimate after theorem answers = %v, want the sweep's 1h", est)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := s.Solve(ctx, Request{Platform: degradePlatform(), Strategy: StrategyFIFOExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("sweep request with a deadline under the estimate did not degrade")
	}
	if st := s.Stats(); st.OrderSearch.Theorem != 30 || st.OrderSearch.Sweep != 0 {
		t.Fatalf("order searches %+v, want {Theorem:30 Sweep:0}", st.OrderSearch)
	}
}
