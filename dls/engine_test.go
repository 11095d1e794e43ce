package dls_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/obs"
)

func testPlatform() *dls.Platform {
	return dls.NewPlatform(
		dls.Worker{C: 0.05, W: 0.3, D: 0.025},
		dls.Worker{C: 0.08, W: 0.2, D: 0.040},
		dls.Worker{C: 0.10, W: 0.5, D: 0.050},
	)
}

func mustSolver(t *testing.T, opts ...dls.Option) *dls.Solver {
	t.Helper()
	s, err := dls.NewSolver(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Test strategies live in the process-global registry, so they are
// registered exactly once per process and must survive `go test -count=N`:
// their closures only touch package-level state (the counter below).
var (
	registerTestStrategies sync.Once

	// countingStrategyRuns counts executions of "test-cache-counting";
	// tests reset it before use.
	countingStrategyRuns atomic.Int64
)

const (
	customStrategy   = "test-registry-constant"
	countingStrategy = "test-cache-counting"
)

func setupTestStrategies(t *testing.T) {
	t.Helper()
	registerTestStrategies.Do(func() {
		incC := func(req dls.Request) (*dls.Result, error) {
			res, err := dls.Solve(context.Background(), dls.Request{Platform: req.Platform, Strategy: dls.StrategyIncC})
			if err != nil {
				return nil, err
			}
			return &dls.Result{Schedule: res.Schedule, Send: res.Send, Return: res.Return}, nil
		}
		if err := dls.RegisterStrategy(customStrategy, func(_ context.Context, req dls.Request) (*dls.Result, error) {
			return incC(req)
		}); err != nil {
			t.Fatal(err)
		}
		if err := dls.RegisterStrategy(countingStrategy, func(_ context.Context, req dls.Request) (*dls.Result, error) {
			countingStrategyRuns.Add(1)
			return incC(req)
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStrategyRegistry(t *testing.T) {
	// Every scheduling entrypoint of the old API has a registered strategy.
	for _, name := range []string{
		dls.StrategyFIFO, dls.StrategyLIFO, dls.StrategyIncC, dls.StrategyIncW,
		dls.StrategyDecC, dls.StrategyFIFOOrder, dls.StrategyLIFOOrder,
		dls.StrategyScenario, dls.StrategyBusFIFO, dls.StrategyFIFOExhaustive,
		dls.StrategyLIFOExhaustive, dls.StrategyPairExhaustive,
		dls.StrategyFIFOAffine, dls.StrategyScenarioAffine,
	} {
		found := false
		for _, got := range dls.Strategies() {
			if got == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("built-in strategy %q not in Strategies()", name)
		}
	}

	// Registration of a custom strategy makes it solvable by name.
	setupTestStrategies(t)
	res, err := dls.Solve(context.Background(), dls.Request{Platform: testPlatform(), Strategy: customStrategy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != customStrategy || res.Throughput <= 0 {
		t.Errorf("custom strategy result: strategy=%q throughput=%g", res.Strategy, res.Throughput)
	}

	// Lookup failure lists the registry; registration rejects bad input.
	if _, err := dls.Solve(context.Background(), dls.Request{Platform: testPlatform(), Strategy: "no-such"}); err == nil {
		t.Error("unknown strategy must fail")
	}
	if err := dls.RegisterStrategy(customStrategy, nil); err == nil {
		t.Error("nil StrategyFunc must be rejected")
	}
	if err := dls.RegisterStrategy("", func(context.Context, dls.Request) (*dls.Result, error) { return nil, nil }); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := dls.RegisterStrategy(dls.StrategyFIFO, func(context.Context, dls.Request) (*dls.Result, error) { return nil, nil }); err == nil {
		t.Error("duplicate registration must be rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	for name, opt := range map[string]dls.Option{
		"parallelism-zero":     dls.WithParallelism(0),
		"parallelism-negative": dls.WithParallelism(-3),
		"cache-negative":       dls.WithCache(-1),
		"timeout-zero":         dls.WithTimeout(0),
		"timeout-negative":     dls.WithTimeout(-time.Second),
		"arith-unknown":        dls.WithArith(dls.Arith(42)),
	} {
		if _, err := dls.NewSolver(opt); err == nil {
			t.Errorf("%s: NewSolver accepted an invalid option", name)
		}
	}
	if _, err := dls.NewSolver(dls.WithParallelism(8), dls.WithCache(64), dls.WithTimeout(time.Second), dls.WithArith(dls.Exact)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestWithSearchParallelism pins the engine-level contract of the
// intra-request search pool: a parallel solver must return byte-identical
// results to a serial one on the exhaustive strategies, and running a
// pair search must advance the Stats().PairSearch counters.
func TestWithSearchParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ws := make([]dls.Worker, 5)
	for i := range ws {
		ws[i] = dls.Worker{
			C: 0.02 + 0.2*rng.Float64(),
			W: 0.05 + 0.5*rng.Float64(),
			D: 0.01 + 0.3*rng.Float64(),
		}
	}
	p := dls.NewPlatform(ws...)
	serial := mustSolver(t, dls.WithSearchParallelism(1))
	par := mustSolver(t, dls.WithSearchParallelism(4))
	for _, strategy := range []string{dls.StrategyFIFOExhaustive, dls.StrategyLIFOExhaustive, dls.StrategyPairExhaustive} {
		req := dls.Request{Platform: p, Strategy: strategy}
		want, err := serial.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Throughput != want.Throughput ||
			!reflect.DeepEqual(got.Schedule.Alpha, want.Schedule.Alpha) ||
			!reflect.DeepEqual(got.Send, want.Send) ||
			!reflect.DeepEqual(got.Return, want.Return) {
			t.Fatalf("%s: parallel result diverges from serial\nparallel: ρ=%v σ1=%v σ2=%v α=%v\nserial:   ρ=%v σ1=%v σ2=%v α=%v",
				strategy, got.Throughput, got.Send, got.Return, got.Schedule.Alpha,
				want.Throughput, want.Send, want.Return, want.Schedule.Alpha)
		}
	}
	st := par.Stats()
	if st.PairSearch.NodesExpanded == 0 || st.PairSearch.LeavesEvaluated == 0 {
		t.Fatalf("pair search left no trace in Stats().PairSearch: %+v", st.PairSearch)
	}
	if st.PairSearch.SubtreesScreened > st.PairSearch.SubtreesPruned {
		t.Fatalf("Stats().PairSearch counts more screened than pruned subtrees: %+v", st.PairSearch)
	}
	// WithSearchParallelism accepts any n: n <= 0 selects auto.
	mustSolver(t, dls.WithSearchParallelism(0))
	mustSolver(t, dls.WithSearchParallelism(-1))
}

func TestRequestValidation(t *testing.T) {
	solver := mustSolver(t)
	ctx := context.Background()
	for name, req := range map[string]dls.Request{
		"nil-platform":  {Strategy: dls.StrategyFIFO},
		"no-strategy":   {Platform: testPlatform()},
		"bad-model":     {Platform: testPlatform(), Strategy: dls.StrategyFIFO, Model: dls.Model(9)},
		"bad-arith":     {Platform: testPlatform(), Strategy: dls.StrategyFIFO, Arith: dls.Arith(9)},
		"negative-load": {Platform: testPlatform(), Strategy: dls.StrategyFIFO, Load: -1},
		"no-affine":     {Platform: testPlatform(), Strategy: dls.StrategyFIFOAffine},
		"bad-platform":  {Platform: dls.NewPlatform(dls.Worker{C: -1, W: 1, D: 1}), Strategy: dls.StrategyFIFO},
	} {
		if _, err := solver.Solve(ctx, req); err == nil {
			t.Errorf("%s: Solve accepted an invalid request", name)
		}
	}
}

// TestCacheHitMiss verifies the acceptance criterion that a cached re-solve
// of an identical request performs no LP solve: the strategy function must
// not run again, which Stats.Solves counts directly.
func TestCacheHitMiss(t *testing.T) {
	setupTestStrategies(t)
	countingStrategyRuns.Store(0)

	solver := mustSolver(t, dls.WithCache(16))
	ctx := context.Background()
	req := dls.Request{Platform: testPlatform(), Strategy: countingStrategy, Load: 100}

	first, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first solve must be a miss")
	}
	second, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical re-solve must hit the cache")
	}
	if n := countingStrategyRuns.Load(); n != 1 {
		t.Errorf("strategy ran %d times for identical requests, want 1 (no re-solve)", n)
	}
	st := solver.Stats()
	if st.Solves != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 solve / 1 hit / 1 miss", st)
	}
	if first.Makespan != second.Makespan || second.Makespan != 100/second.Throughput {
		t.Errorf("makespan mismatch: %g vs %g", first.Makespan, second.Makespan)
	}

	// The cached copy is isolated: mutating a returned schedule must not
	// poison later hits.
	second.Schedule.Alpha[0] = -1
	third, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Schedule.Alpha[0] == -1 {
		t.Error("cache returned an aliased schedule")
	}

	// A different request (other strategy) is a miss, not a collision.
	if res, err := solver.Solve(ctx, dls.Request{Platform: testPlatform(), Strategy: dls.StrategyLIFO}); err != nil {
		t.Fatal(err)
	} else if res.Cached {
		t.Error("distinct request reported as cached")
	}
}

// TestCacheNoLPResolve pins the criterion on a real LP strategy: re-solving
// the same FIFO request must not run the simplex again.
func TestCacheNoLPResolve(t *testing.T) {
	solver := mustSolver(t, dls.WithCache(4))
	ctx := context.Background()
	req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO}
	a, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Stats().Solves; got != 1 {
		t.Errorf("LP solved %d times, want 1", got)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Error("cached schedule differs from computed schedule")
	}
}

func TestSolveCancellation(t *testing.T) {
	// 5 workers: the pair search enumerates (5!)² = 14400 scenario LPs —
	// long enough that a deadline interrupts it mid-enumeration.
	rng := rand.New(rand.NewSource(7))
	p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))

	// Pre-cancelled context: the engine must not even start.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	solver := mustSolver(t)
	if _, err := solver.Solve(cancelled, dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}

	// WithTimeout: the (p!)² search must abort with DeadlineExceeded long
	// before it could finish. The exact-rational backend is pinned so the
	// search stays slow enough for the deadline to hit — the tiered auto
	// pipeline finishes this platform faster than a millisecond.
	timed := mustSolver(t, dls.WithTimeout(time.Millisecond))
	start := time.Now()
	_, err := timed.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive, Arith: dls.Exact})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, search not actually interrupted", elapsed)
	}
}

// TestPairExhaustiveSearch pins the one pair-search strategy at the engine
// level. Under exact arithmetic it runs the flat loop (the search stage of
// the request's trace names the algorithm) and agrees with the float64
// branch-and-bound optimum. A WithTimeout deadline aborts a p = 7 solve
// inside the return-order recursion: the search is far too large to
// finish in a millisecond.
func TestPairExhaustiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t)
	ctx := context.Background()
	ref, err := solver.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("pair-exact", "test", time.Now)
	res, err := solver.Solve(obs.ContextWithTrace(ctx, tr), dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive, Arith: dls.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Throughput - ref.Throughput; d > 1e-9*(1+ref.Throughput) || d < -1e-9*(1+ref.Throughput) {
		t.Errorf("exact throughput %.12g != float64 %.12g", res.Throughput, ref.Throughput)
	}
	// Exact search runs the branch-and-bound with pruning off: no cut, all
	// (4!)² return-order leaves scored.
	attrs := map[string]string{}
	for _, st := range tr.Snapshot().Stages {
		if st.Name == "search" {
			for _, a := range st.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	if attrs["pruned"] != "0" || attrs["screened"] != "0" || attrs["leaves"] != "576" {
		t.Errorf("exact pair-exhaustive search annotated pruned=%q screened=%q leaves=%q, want 0, 0 and 576",
			attrs["pruned"], attrs["screened"], attrs["leaves"])
	}

	big := dls.RandomSpeeds(rng, 7, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	timed := mustSolver(t, dls.WithTimeout(time.Millisecond))
	start := time.Now()
	_, err = timed.Solve(ctx, dls.Request{Platform: big, Strategy: dls.StrategyPairExhaustive})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want context.DeadlineExceeded from the p=7 pair-exhaustive solve, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, the recursion is not polling the deadline", elapsed)
	}
}

// batchRequests builds a mixed workload: several platforms × strategies,
// with deliberate duplicates to exercise batch deduplication.
func batchRequests(t *testing.T) []dls.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var reqs []dls.Request
	for i := 0; i < 6; i++ {
		p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(80 + 20*i))
		for _, strat := range []string{dls.StrategyFIFO, dls.StrategyLIFO, dls.StrategyIncC, dls.StrategyIncW} {
			reqs = append(reqs, dls.Request{Platform: p, Strategy: strat, Load: 1000})
		}
		// Duplicate of the first request of this platform.
		reqs = append(reqs, dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Load: 1000})
	}
	return reqs
}

// TestSolveBatchDeterminism verifies the acceptance criterion that
// SolveBatch under WithParallelism(8) returns byte-identical results to
// sequential solving.
func TestSolveBatchDeterminism(t *testing.T) {
	reqs := batchRequests(t)
	var outputs [][]byte
	var structured [][]*dls.Result
	for _, par := range []int{1, 8} {
		solver := mustSolver(t, dls.WithParallelism(par), dls.WithCache(64))
		results, err := solver.SolveBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(reqs) {
			t.Fatalf("got %d results for %d requests", len(results), len(reqs))
		}
		raw, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, raw)
		structured = append(structured, results)
	}
	if string(outputs[0]) != string(outputs[1]) {
		t.Error("SolveBatch output differs between parallelism 1 and 8")
	}
	if !reflect.DeepEqual(structured[0], structured[1]) {
		t.Error("SolveBatch structured results differ between parallelism 1 and 8")
	}
	// Dedup: the repeated request of each platform is served without a new
	// solve and marked Cached.
	for i, res := range structured[1] {
		if i%5 == 4 && !res.Cached {
			t.Errorf("duplicate request %d not deduplicated", i)
		}
	}
}

func TestSolveBatchErrors(t *testing.T) {
	solver := mustSolver(t, dls.WithParallelism(4))
	// One bad platform (no common z for StrategyFIFO) among good requests.
	noZ := dls.NewPlatform(
		dls.Worker{C: 1, W: 1, D: 0.5},
		dls.Worker{C: 1, W: 1, D: 0.7},
	)
	reqs := []dls.Request{
		{Platform: testPlatform(), Strategy: dls.StrategyFIFO},
		{Platform: noZ, Strategy: dls.StrategyFIFO},
		{Platform: testPlatform(), Strategy: dls.StrategyLIFO},
	}
	results, err := solver.SolveBatch(context.Background(), reqs)
	if !errors.Is(err, dls.ErrNoCommonZ) {
		t.Errorf("joined batch error must wrap ErrNoCommonZ, got %v", err)
	}
	if results[0] == nil || results[1] != nil || results[2] == nil {
		t.Errorf("per-slot results wrong: %v", results)
	}
}

func TestSolveStreamOrdering(t *testing.T) {
	solver := mustSolver(t, dls.WithParallelism(8))
	reqs := batchRequests(t)
	in := make(chan dls.Request)
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- r
		}
	}()
	var got []dls.StreamResult
	for sr := range solver.SolveStream(context.Background(), in) {
		got = append(got, sr)
	}
	if len(got) != len(reqs) {
		t.Fatalf("stream yielded %d results for %d requests", len(got), len(reqs))
	}
	for i, sr := range got {
		if sr.Index != i {
			t.Fatalf("stream out of order: position %d has index %d", i, sr.Index)
		}
		if sr.Err != nil {
			t.Fatalf("request %d failed: %v", i, sr.Err)
		}
	}
	// Streamed results match individually solved ones.
	want, err := solver.Solve(context.Background(), reqs[3])
	if err != nil {
		t.Fatal(err)
	}
	if got[3].Result.Throughput != want.Throughput {
		t.Errorf("stream result %g != solo result %g", got[3].Result.Throughput, want.Throughput)
	}
}

// TestEngineCoversOldAPI solves one request per built-in strategy of the
// paper's historical entrypoints, checks the bus construction against
// Theorem 2's closed form, and checks that the FIFO strategy surfaces the
// paper's sentinel error unwrapped.
func TestEngineCoversOldAPI(t *testing.T) {
	p := testPlatform()
	bus := dls.NewBus(0.1, 0.05, 0.4, 0.6, 0.8)
	order := dls.Order{0, 1, 2}
	rev := dls.Order{2, 1, 0}
	aff := dls.ZeroAffine(p.P())
	ctx := context.Background()
	solver := mustSolver(t)

	probes := map[string]dls.Request{
		"fifo":            {Platform: p, Strategy: dls.StrategyFIFO},
		"fifo-two-port":   {Platform: p, Strategy: dls.StrategyFIFO, Model: dls.TwoPort},
		"lifo":            {Platform: p, Strategy: dls.StrategyLIFO},
		"scenario":        {Platform: p, Strategy: dls.StrategyScenario, Send: order, Return: rev},
		"bus-fifo":        {Platform: bus, Strategy: dls.StrategyBusFIFO},
		"pair-exhaustive": {Platform: p, Strategy: dls.StrategyPairExhaustive},
		"fifo-affine":     {Platform: p, Strategy: dls.StrategyFIFOAffine, Affine: &aff},
	}
	rho, err := dls.BusFIFOThroughput(bus)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range probes {
		res, err := solver.Solve(ctx, req)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !(res.Throughput > 0) {
			t.Errorf("%s: throughput %g", name, res.Throughput)
		}
		if diff := res.Throughput - rho; name == "bus-fifo" && (diff > 1e-9 || diff < -1e-9) {
			t.Errorf("bus-fifo: engine throughput %g != Theorem 2 closed form %g", res.Throughput, rho)
		}
	}

	noZ := dls.NewPlatform(dls.Worker{C: 1, W: 1, D: 0.5}, dls.Worker{C: 1, W: 1, D: 0.7})
	if _, err := solver.Solve(ctx, dls.Request{Platform: noZ, Strategy: dls.StrategyFIFO}); err != dls.ErrNoCommonZ {
		t.Errorf("want ErrNoCommonZ through the engine, got %v", err)
	}
}

// TestErrNoCommonZNamesStrategies checks that the strategies ErrNoCommonZ
// recommends instead are registered, so its text (which dlsd serves in
// its 422 body) never names something a client cannot ask for.
func TestErrNoCommonZNamesStrategies(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range dls.Strategies() {
		registered[name] = true
	}
	msg := dls.ErrNoCommonZ.Error()
	for _, name := range []string{dls.StrategyFIFOExhaustive, dls.StrategyScenario} {
		if !strings.Contains(msg, name) || !registered[name] {
			t.Errorf("ErrNoCommonZ %q must name the registered strategy %q", msg, name)
		}
	}
}

func TestSolverArithDefault(t *testing.T) {
	// WithArith(Exact) makes zero-valued requests solve exactly; the result
	// must agree with an explicitly exact request.
	solver := mustSolver(t, dls.WithArith(dls.Exact))
	res, err := solver.Solve(context.Background(), dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arith != dls.Exact {
		t.Errorf("resolved arith = %v, want Exact", res.Arith)
	}
	want, err := fmtSolve(dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO, Arith: dls.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != want {
		t.Errorf("default-arith throughput %g != explicit exact %g", res.Throughput, want)
	}
}

func fmtSolve(req dls.Request) (float64, error) {
	res, err := dls.Solve(context.Background(), req)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

func ExampleSolver_Solve() {
	solver, err := dls.NewSolver(dls.WithCache(128))
	if err != nil {
		panic(err)
	}
	p := dls.NewPlatform(
		dls.Worker{C: 0.1, W: 0.5, D: 0.05},
		dls.Worker{C: 0.2, W: 0.3, D: 0.10},
	)
	res, err := solver.Solve(context.Background(), dls.Request{
		Platform: p,
		Strategy: dls.StrategyFIFO,
		Load:     1000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("throughput %.4f, makespan for 1000 units %.1f\n", res.Throughput, res.Makespan)
	// Output: throughput 2.7632, makespan for 1000 units 361.9
}

func TestEvalModeKnob(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	ctx := context.Background()

	// Every backend reaches the same optimum through the engine.
	var ref float64
	for i, mode := range []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex, dls.EvalExact} {
		res, err := dls.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Eval: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Eval != mode {
			t.Errorf("result echoes eval %v, want %v", res.Eval, mode)
		}
		if i == 0 {
			ref = res.Throughput
		} else if d := res.Throughput - ref; d > 1e-9 || d < -1e-9 {
			t.Errorf("%v: throughput %g != %g", mode, res.Throughput, ref)
		}
	}

	// Unknown eval modes are rejected at prepare time.
	if _, err := dls.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Eval: dls.EvalMode(42)}); err == nil {
		t.Error("unknown eval mode must be rejected")
	}

	// EvalExact and Arith Exact normalise to the same request: with a
	// cache, the two spellings share one entry.
	solver := mustSolver(t, dls.WithCache(16))
	if _, err := solver.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Eval: dls.EvalExact}); err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Arith: dls.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("Arith Exact must hit the cache entry written by EvalExact")
	}
	if res.Arith != dls.Exact || res.Eval != dls.EvalExact {
		t.Errorf("normalised result: arith %v eval %v", res.Arith, res.Eval)
	}

	// Different float backends are distinct cache entries (their results
	// can legitimately differ in degenerate load distributions).
	st := solver.Stats()
	if _, err := solver.Solve(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Eval: dls.EvalSimplex}); err != nil {
		t.Fatal(err)
	}
	if solver.Stats().Misses != st.Misses+1 {
		t.Error("EvalSimplex must not share a cache entry with EvalExact")
	}
}

func TestParseEvalMode(t *testing.T) {
	m, err := dls.ParseEvalMode("simplex")
	if err != nil || m != dls.EvalSimplex {
		t.Errorf("ParseEvalMode(simplex) = (%v, %v)", m, err)
	}
	for _, name := range []string{"nope", "closed-form", "direct"} {
		_, err := dls.ParseEvalMode(name)
		if err == nil || !strings.Contains(err.Error(), "auto, simplex, exact") {
			t.Errorf("ParseEvalMode(%q) = %v, want an error listing auto, simplex, exact", name, err)
		}
	}
}
