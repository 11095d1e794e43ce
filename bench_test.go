// Root benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 5) plus the two theorem-level benchmarks, as indexed
// in DESIGN.md. Each figure benchmark executes the same protocol as
// cmd/dlsexp with a reduced sweep so a full -bench=. run stays in seconds;
// the emitted metric is the figure's headline number, making regressions in
// the reproduced *shape* visible in benchmark diffs.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// benchConfig is the reduced sweep shared by the figure benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Platforms = 5
	cfg.Sizes = []int{40, 120, 200}
	cfg.M = 500
	return cfg
}

func runFigure(b *testing.B, id string, metric func(*experiments.Result) float64, unit string) {
	b.Helper()
	cfg := benchConfig()
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown figure %q", id)
	}
	var last float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			last = metric(res)
		}
	}
	if metric != nil {
		b.ReportMetric(last, unit)
	}
}

// lastOf returns the final value of the named series (the largest matrix
// size), the headline point of the sweep figures.
func lastOf(name string) func(*experiments.Result) float64 {
	return func(r *experiments.Result) float64 {
		for _, s := range r.Series {
			if s.Name == name && len(s.Y) > 0 {
				return s.Y[len(s.Y)-1]
			}
		}
		return 0
	}
}

// BenchmarkFig08Linearity reproduces Figure 8 (linearity test); the metric
// is the measured slope ratio between the speed-1 and speed-5 workers
// (expected 5.0 under the linear model).
func BenchmarkFig08Linearity(b *testing.B) {
	runFigure(b, "8", func(r *experiments.Result) float64 {
		slow := r.Series[0].Y[len(r.Series[0].Y)-1]
		fast := r.Series[4].Y[len(r.Series[4].Y)-1]
		return slow / fast
	}, "slope-ratio")
}

// BenchmarkFig09Trace reproduces Figure 9 (execution trace); no headline
// metric, the value is the Gantt generation itself.
func BenchmarkFig09Trace(b *testing.B) {
	runFigure(b, "9", nil, "")
}

// BenchmarkFig10HomogeneousBus reproduces Figure 10; metric: LIFO lp /
// INC_C lp at the largest size (≥ 1 on buses, see EXPERIMENTS.md).
func BenchmarkFig10HomogeneousBus(b *testing.B) {
	runFigure(b, "10", lastOf("LIFO lp/INC_C lp"), "lifo/fifo-lp")
}

// BenchmarkFig11HeteroComp reproduces Figure 11; metric: INC_W real /
// INC_C lp at the largest size. On homogeneous-communication platforms all
// FIFO orders share the same LP optimum (bus property), so the heuristics
// only separate in the measured runs.
func BenchmarkFig11HeteroComp(b *testing.B) {
	runFigure(b, "11", lastOf("INC_W real/INC_C lp"), "incw-real/lp")
}

// BenchmarkFig12HeteroStar reproduces Figure 12; metric: LIFO lp / INC_C
// lp at the largest size (< 1: LIFO overtakes FIFO on heterogeneous
// platforms).
func BenchmarkFig12HeteroStar(b *testing.B) {
	runFigure(b, "12", lastOf("LIFO lp/INC_C lp"), "lifo/fifo-lp")
}

// BenchmarkFig13aComputeX10 reproduces Figure 13(a); metric: LIFO real /
// INC_C lp at the largest size.
func BenchmarkFig13aComputeX10(b *testing.B) {
	runFigure(b, "13a", lastOf("LIFO real/INC_C lp"), "lifo-real/lp")
}

// BenchmarkFig13bCommX10 reproduces Figure 13(b); metric: INC_C real /
// INC_C lp at the largest size (grows with size — the linear-model limit).
func BenchmarkFig13bCommX10(b *testing.B) {
	runFigure(b, "13b", lastOf("INC_C real/INC_C lp"), "real/lp")
}

// BenchmarkFig14Participation reproduces Figure 14 (both x = 1 and x = 3);
// metric: number of workers enrolled with 4 available at x = 1 (paper: 3).
func BenchmarkFig14Participation(b *testing.B) {
	cfg := benchConfig()
	var enrolled float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ra, err := experiments.Fig14Participation(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig14Participation(cfg, 3); err != nil {
			b.Fatal(err)
		}
		nb := ra.Series[2].Y
		enrolled = nb[len(nb)-1]
	}
	b.ReportMetric(enrolled, "workers-at-x1")
}

// BenchmarkTheorem1OptimalFIFO benchmarks the polynomial-time optimal FIFO
// computation (Theorem 1 + Proposition 1) on the paper-sized 11-worker
// platform (index TH1 in DESIGN.md), through the engine.
func BenchmarkTheorem1OptimalFIFO(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	sp := dls.RandomSpeeds(rng, 11, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(100))
	req := dls.Request{Platform: p, Strategy: dls.StrategyFIFO}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dls.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine benchmarks ------------------------------------------------------
//
// These track the scaling substrate added by the Solver engine: batch
// fan-out across the worker pool and the LRU result cache.

// batchBenchRequests builds the mixed 64-request workload used by the
// engine benchmarks: 16 heterogeneous 11-worker platforms × 4 strategies.
func batchBenchRequests() []dls.Request {
	rng := rand.New(rand.NewSource(60))
	var reqs []dls.Request
	for i := 0; i < 16; i++ {
		p := dls.RandomSpeeds(rng, 11, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		for _, strat := range []string{dls.StrategyFIFO, dls.StrategyLIFO, dls.StrategyIncC, dls.StrategyIncW} {
			reqs = append(reqs, dls.Request{Platform: p, Strategy: strat, Load: 1000})
		}
	}
	return reqs
}

// BenchmarkSolveBatch measures SolveBatch throughput across parallelism
// settings (the output is byte-identical at every setting; only wall-clock
// changes). No cache, so every request is a fresh LP solve.
func BenchmarkSolveBatch(b *testing.B) {
	reqs := batchBenchRequests()
	ctx := context.Background()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			solver, err := dls.NewSolver(dls.WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveBatch(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(reqs)), "requests/op")
		})
	}
}

// BenchmarkSolveCached compares a cold solve (no cache, LP every time)
// against a warm cache hit on the same request: the cache turns a simplex
// solve into an LRU lookup plus a result clone.
func BenchmarkSolveCached(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	p := dls.RandomSpeeds(rng, 11, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	req := dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Load: 1000}
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		solver, err := dls.NewSolver()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		solver, err := dls.NewSolver(dls.WithCache(16))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := solver.Solve(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// --- Evaluation-pipeline benchmarks ----------------------------------------
//
// These quantify the internal/eval tiering: the certified Auto tiers
// against the simplex-only path on the factorial searches (the acceptance
// benchmarks of the scenario-evaluation pipeline) and on a single scenario
// solve.

// benchExhaustivePlatform is the heterogeneous 7-worker platform shared by
// the exhaustive benchmarks (5040 FIFO scenarios per run).
func benchExhaustivePlatform() *dls.Platform {
	rng := rand.New(rand.NewSource(62))
	return dls.RandomSpeeds(rng, 7, dls.Heterogeneous).Platform(dls.DefaultApp(100))
}

// BenchmarkBestFIFOExhaustive7 runs the p! FIFO order search at p = 7
// under each evaluation backend, with the engine's default search
// parallelism. The auto tiers must produce the same winning order and
// loads as the simplex tier (covered by the agreement tests in
// internal/eval); the benchmark tracks the speedup of the certified tiers
// over the simplex-only path. The platform has a common z, so the
// engine answers fifo-exhaustive on it from Theorem 1: the backends call
// the sweep directly, and the theorem sub-benchmark times what dls.Solve
// serves.
func BenchmarkBestFIFOExhaustive7(b *testing.B) {
	p := benchExhaustivePlatform()
	ctx := core.ContextWithSearchParallelism(context.Background(), 0)
	for _, mode := range []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex} {
		b.Run(mode.String(), fifoSweepBench(ctx, p, mode))
	}
	b.Run("theorem", func(b *testing.B) {
		req := dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive}
		var rho float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dls.Solve(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			rho = res.Throughput
		}
		b.ReportMetric(rho, "rho")
	})
}

// fifoSweepBench is one backend's sub-benchmark of
// BenchmarkBestFIFOExhaustive7: the p! FIFO sweep on p under mode.
func fifoSweepBench(ctx context.Context, p *dls.Platform, mode dls.EvalMode) func(*testing.B) {
	return func(b *testing.B) {
		var rho float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, _, err := core.BestFIFOExhaustiveEval(ctx, p, schedule.OnePort, mode)
			if err != nil {
				b.Fatal(err)
			}
			rho = s.Throughput()
		}
		b.ReportMetric(rho, "rho")
	}
}

// TestFIFOExhaustiveAllocGate guards the sync.Pool discipline of the
// exhaustive loop: BenchmarkBestFIFOExhaustive7/auto, with the engine's
// default search parallelism, evaluates 5040 scenarios per search. The
// search may allocate O(1) setup (sweep state, the winner's verified
// schedule), so fewer than 5040 allocations per search means no scenario
// allocates.
func TestFIFOExhaustiveAllocGate(t *testing.T) {
	ctx := core.ContextWithSearchParallelism(context.Background(), 0)
	res := testing.Benchmark(fifoSweepBench(ctx, benchExhaustivePlatform(), dls.EvalAuto))
	if res.N == 0 {
		t.Fatal("BestFIFOExhaustive7/auto failed")
	}
	allocs := res.AllocsPerOp()
	t.Logf("BestFIFOExhaustive7/auto: %d allocs/op (%.4f per scenario)", allocs, float64(allocs)/5040)
	if allocs >= 5040 {
		t.Fatal("per-scenario allocations detected in the exhaustive loop")
	}
}

// BenchmarkBestFIFOExhaustive8 runs the p! FIFO order search at p = 8
// (40320 scenarios) under the incremental sweep — the scale PR 3's
// transposition-aware engine opened up (the per-scenario active-set reuse
// and dual screening keep the search polynomial-feeling even though the
// enumeration is factorial). Auto only: the simplex-only path takes
// seconds at this size. It calls the sweep directly, since the engine
// answers this common-z platform from Theorem 1.
func BenchmarkBestFIFOExhaustive8(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	p := dls.RandomSpeeds(rng, 8, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	ctx := core.ContextWithSearchParallelism(context.Background(), 0)
	var rho float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := core.BestFIFOExhaustiveEval(ctx, p, schedule.OnePort, dls.EvalAuto)
		if err != nil {
			b.Fatal(err)
		}
		rho = s.Throughput()
	}
	b.ReportMetric(rho, "rho")
}

// BenchmarkBatchChainEval measures the structure-of-arrays batch chain
// evaluator against per-scenario evaluation on the same 512 FIFO orders
// of one compute-bound 11-worker platform (every lane certifies, so both
// sides measure pure chain arithmetic; the batch runs the load and dual
// recurrences 8 scenarios per lockstep step through internal/eval/kern).
func BenchmarkBatchChainEval(b *testing.B) {
	rng := rand.New(rand.NewSource(65))
	p := dls.RandomSpeeds(rng, 11, dls.Heterogeneous).Platform(dls.DefaultApp(100)).ScaleComputation(20)
	const scenarios = 512
	orders := make([]platform.Order, scenarios)
	for i := range orders {
		orders[i] = platform.Order(rng.Perm(p.P()))
	}
	b.Run("batch", func(b *testing.B) {
		batch, err := eval.NewBatch(schedule.OnePort, false, p.P())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			for _, o := range orders {
				if err := batch.Add(p, o); err != nil {
					b.Fatal(err)
				}
			}
			batch.Run()
			for l := 0; l < batch.Len(); l++ {
				if _, ok := batch.Throughput(l); !ok {
					b.Fatal("lane failed to certify on a compute-bound platform")
				}
			}
		}
		b.ReportMetric(scenarios, "scenarios/op")
	})
	b.Run("scalar", func(b *testing.B) {
		sess := eval.NewSession()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, o := range orders {
				sc := eval.Scenario{Platform: p, Send: o, Return: o, Model: schedule.OnePort}
				if _, err := sess.ThroughputTrusted(sc, eval.Auto); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(scenarios, "scenarios/op")
	})
}

// BenchmarkBestPairExhaustive4 runs the (p!)² pair search at p = 4 (576
// scenarios before pruning) under each backend; auto additionally exercises
// the incumbent seeding and the return-order branch-and-bound of the search
// itself.
func BenchmarkBestPairExhaustive4(b *testing.B) {
	p := benchPairPlatform(4)
	ctx := context.Background()
	for _, mode := range []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex} {
		b.Run(mode.String(), func(b *testing.B) {
			req := dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive, Eval: mode}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dls.Solve(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPairPlatform draws the heterogeneous reference platform of the
// pair-search benchmarks (TestPairPruningGate watches the p = 6 instance).
func benchPairPlatform(n int) *dls.Platform {
	rng := rand.New(rand.NewSource(63))
	return dls.RandomSpeeds(rng, n, dls.Heterogeneous).Platform(dls.DefaultApp(100))
}

// pairCutFraction is the fraction of generated return-order children the
// prefix bound cut over an interval of pair searches.
func pairCutFraction(before, after core.PairStats) float64 {
	pruned := after.SubtreesPruned - before.SubtreesPruned
	children := pruned + (after.NodesExpanded - before.NodesExpanded) + (after.LeavesEvaluated - before.LeavesEvaluated)
	if children == 0 {
		return 0
	}
	return float64(pruned) / float64(children)
}

// reportPairPruning attaches the branch-and-bound instrumentation of the
// measured interval as benchmark metrics: subtrees cut per op and the
// fraction of generated return-order children that were cut. See BENCH.md
// for how to read the counters.
func reportPairPruning(b *testing.B, before, after core.PairStats) {
	b.ReportMetric(float64(after.SubtreesPruned-before.SubtreesPruned)/float64(b.N), "pruned-subtrees/op")
	b.ReportMetric(float64(after.OuterPruned-before.OuterPruned)/float64(b.N), "pruned-outer/op")
	if frac := pairCutFraction(before, after); frac > 0 {
		b.ReportMetric(frac, "pruned-frac")
	}
}

// TestPairPruningGate checks that the pair branch-and-bound's subtree
// pruning fires on the p = 6 reference platform. A zero counter means the
// prefix bound silently stopped cutting return-order subtrees (the search
// would still be correct, just far slower); more than half of the
// generated return-order children must be cut. The serial search makes
// both counts deterministic.
func TestPairPruningGate(t *testing.T) {
	ctx := core.ContextWithSearchParallelism(context.Background(), 1)
	before := core.PairStatsSnapshot()
	if _, err := core.BestPairExhaustiveEval(ctx, benchPairPlatform(6), schedule.OnePort, eval.Auto); err != nil {
		t.Fatal(err)
	}
	after := core.PairStatsSnapshot()
	pruned, frac := after.SubtreesPruned-before.SubtreesPruned, pairCutFraction(before, after)
	t.Logf("BestPairExhaustive6: %d subtrees pruned, cut fraction %.3f", pruned, frac)
	if pruned == 0 {
		t.Fatal("subtree-pruning counter is zero: the return-prefix bound stopped firing")
	}
	if frac <= 0.5 {
		t.Fatalf("return-order subtree cut fraction fell to %.3f <= 50%% on the reference platform", frac)
	}
	// The children cut from their parent's one-pass child bounds are a
	// subset of the pruned ones, and that screen must fire too.
	screened := after.SubtreesScreened - before.SubtreesScreened
	t.Logf("BestPairExhaustive6: %d of the pruned subtrees screened", screened)
	if screened == 0 || screened > pruned {
		t.Fatalf("%d subtrees screened of %d pruned: want more than none, and no more than pruned", screened, pruned)
	}
}

// BenchmarkBestPairExhaustive5 runs the pair branch-and-bound at p = 5
// under the auto backend.
func BenchmarkBestPairExhaustive5(b *testing.B) {
	p := benchPairPlatform(5)
	ctx := context.Background()
	b.Run("bb", func(b *testing.B) {
		var rho float64
		before := core.PairStatsSnapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := core.BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
			if err != nil {
				b.Fatal(err)
			}
			rho = pr.Schedule.Throughput()
		}
		b.StopTimer()
		b.ReportMetric(rho, "rho")
		reportPairPruning(b, before, core.PairStatsSnapshot())
	})
}

// benchPairParallel runs the pair branch-and-bound on p at the given
// worker counts as sub-benchmarks (par1 = the serial search), checking
// every parallel result bitwise against the serial one — the scaling curve
// in BENCH_pr7.json is only meaningful if the work done is identical.
func benchPairParallel(b *testing.B, p *dls.Platform, workers []int) {
	serial, err := core.BestPairExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto)
	if err != nil {
		b.Fatal(err)
	}
	want := serial.Schedule.Throughput()
	for _, w := range workers {
		b.Run(fmt.Sprintf("par%d", w), func(b *testing.B) {
			ctx := core.ContextWithSearchParallelism(context.Background(), w)
			var rho float64
			before := core.PairStatsSnapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr, err := core.BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
				if err != nil {
					b.Fatal(err)
				}
				rho = pr.Schedule.Throughput()
			}
			b.StopTimer()
			if rho != want {
				b.Fatalf("parallel search (%d workers) returned ρ=%.17g, serial has %.17g", w, rho, want)
			}
			b.ReportMetric(rho, "rho")
			reportPairPruning(b, before, core.PairStatsSnapshot())
		})
	}
}

// BenchmarkBestPairExhaustive6 runs the pair search at p = 6 — 720 send
// orders over up to 720 return orders each, a scale only the
// branch-and-bound reaches (the flat loop takes tens of seconds here) —
// serial and on a 4-worker stealing pool. Acceptance criteria: more than
// half of the generated return-order subtrees cut by the prefix bound
// (the PR 4 gate, on every sub-benchmark), and par4 at least 2× faster
// than par1 on a 4-core runner (the PR 7 gate).
func BenchmarkBestPairExhaustive6(b *testing.B) {
	benchPairParallel(b, benchPairPlatform(6), []int{1, 4})
}

// BenchmarkBestPairExhaustive7 is the p = 7 scale point — 5040 send orders,
// up to 5040 return orders each. Run with -benchtime 1x unless you mean
// it. The PR 7 acceptance criterion is sub-second wall clock on a 4-core
// runner with the incremental bound path.
func BenchmarkBestPairExhaustive7(b *testing.B) {
	benchPairParallel(b, benchPairPlatform(7), []int{1, 4})
}

// BenchmarkPairSearchServedShape is the pair search on the platform shape
// dlsd serves it: 40 six-worker heterogeneous platforms running the
// size-400 matrix-product application, searched serially, alternating
// one-port and two-port. One op is all 40 searches; nodes, pruned and
// screened are per op.
func BenchmarkPairSearchServedShape(b *testing.B) {
	rng := rand.New(rand.NewSource(400))
	plats := make([]*dls.Platform, 40)
	for i := range plats {
		plats[i] = dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(400))
	}
	ctx := core.ContextWithSearchParallelism(context.Background(), 1)
	before := core.PairStatsSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range plats {
			model := schedule.OnePort
			if k%2 == 1 {
				model = schedule.TwoPort
			}
			if _, err := core.BestPairExhaustiveEval(ctx, p, model, eval.Auto); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	after := core.PairStatsSnapshot()
	per := func(v uint64) float64 { return float64(v) / float64(b.N) }
	b.ReportMetric(per(after.NodesExpanded-before.NodesExpanded), "nodes/op")
	b.ReportMetric(per(after.LeavesEvaluated-before.LeavesEvaluated), "leaves/op")
	b.ReportMetric(per(after.SubtreesPruned-before.SubtreesPruned), "pruned/op")
	b.ReportMetric(per(after.SubtreesScreened-before.SubtreesScreened), "screened/op")
}

// BenchmarkReturnPrefixNode isolates the per-node cost of the pair
// branch-and-bound's bound computation at q = 7: one fixed 512-move
// Push/Pop walk through the return-prefix tree, a Bound() at every node.
// "update" is the Sherman–Morrison incremental path (O(q²)/node, the
// default), "refactor" pins SetIncremental(false) so every node pays a
// fresh O(q³) LU. "screen" bounds the same children the way the search
// now does: one ChildBounds per expanded node, and a Push (with its
// Bound) only where the walk descends. "interleaved" runs one update walk
// and one refactor walk per iteration, alternating which goes first, and
// reports the median of the per-iteration time ratios as refactor/update:
// both sides see the same host load, so the ratio holds still on a shared
// machine where separate ns/op rounds do not. dlsgate pairsearch gates
// that ratio at >= 1.5.
func BenchmarkReturnPrefixNode(b *testing.B) {
	const q = 7
	p := benchPairPlatform(q)
	send := make(platform.Order, q)
	for i := range send {
		send[i] = i
	}
	// A fixed walk replaying the search's traversal shape — expand every
	// sibling (Push, Bound, Pop), then descend into one of them — over
	// interior depths only: Bound() at full depth is from-scratch on both
	// paths by design, and the search bounds after Push, never after Pop.
	// pos >= 0: Push(pos) + Bound(); popMove: Pop; screenMove: ChildBounds.
	type move struct{ pos int }
	const popMove, screenMove = -1, -2
	var moves, screenMoves []move
	nodes := 0
	var open [q]bool
	for i := range open {
		open[i] = true
	}
	var walk func(depth, rot int)
	walk = func(depth, rot int) {
		if nodes >= 512 || depth == q-1 {
			return
		}
		var opens []int
		for s := 0; s < q; s++ {
			if open[s] {
				opens = append(opens, s)
			}
		}
		down := opens[rot%len(opens)]
		screenMoves = append(screenMoves, move{pos: screenMove})
		for _, pos := range opens {
			moves = append(moves, move{pos: pos})
			nodes++
			open[pos] = false
			if pos == down {
				screenMoves = append(screenMoves, move{pos: pos})
				walk(depth+1, rot+1)
				screenMoves = append(screenMoves, move{pos: popMove})
			}
			open[pos] = true
			moves = append(moves, move{pos: popMove})
		}
	}
	for rot := 0; nodes < 512; rot++ {
		walk(0, rot)
	}
	newPrefix := func(b *testing.B, incremental bool) *eval.ReturnPrefix {
		rp, err := eval.NewSession().NewReturnPrefix(p, schedule.OnePort, eval.Auto)
		if err != nil {
			b.Fatal(err)
		}
		rp.SetIncremental(incremental)
		return rp
	}
	bounds := make([]float64, q)
	walkOnce := func(b *testing.B, rp *eval.ReturnPrefix, moves []move) {
		if err := rp.Reset(send); err != nil {
			b.Fatal(err)
		}
		for _, mv := range moves {
			switch mv.pos {
			case popMove:
				rp.Pop()
			case screenMove:
				rp.ChildBounds(bounds)
			default:
				rp.Push(mv.pos)
				rp.Bound()
			}
		}
		for rp.Depth() > 0 {
			rp.Pop()
		}
	}
	for _, tc := range []struct {
		name        string
		incremental bool
		moves       []move
	}{{"update", true, moves}, {"refactor", false, moves}, {"screen", true, screenMoves}} {
		b.Run(tc.name, func(b *testing.B) {
			rp := newPrefix(b, tc.incremental)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walkOnce(b, rp, tc.moves)
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
	b.Run("interleaved", func(b *testing.B) {
		update, refactor := newPrefix(b, true), newPrefix(b, false)
		timed := func(rp *eval.ReturnPrefix) time.Duration {
			start := time.Now()
			walkOnce(b, rp, moves)
			return time.Since(start)
		}
		ratios := make([]float64, b.N)
		b.ResetTimer()
		for i := range ratios {
			var tu, tr time.Duration
			if i%2 == 0 {
				tu = timed(update)
				tr = timed(refactor)
			} else {
				tr = timed(refactor)
				tu = timed(update)
			}
			ratios[i] = float64(tr) / float64(tu)
		}
		b.StopTimer()
		sort.Float64s(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "refactor/update")
	})
}

// BenchmarkScenarioEval solves one fixed 11-worker FIFO scenario under each
// backend: the per-scenario cost that the factorial searches multiply. The
// platform is compute-bound (computation scaled up) so Auto's all-tight
// chain applies — the port-bound/resource-selection regimes are
// covered by the exhaustive benchmarks above.
func BenchmarkScenarioEval(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	p := dls.RandomSpeeds(rng, 11, dls.Heterogeneous).Platform(dls.DefaultApp(100)).ScaleComputation(20)
	ctx := context.Background()
	for _, mode := range []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex} {
		b.Run(mode.String(), func(b *testing.B) {
			req := dls.Request{Platform: p, Strategy: dls.StrategyIncC, Eval: mode}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dls.Solve(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem2BusClosedForm benchmarks the closed-form bus throughput
// against its LP counterpart (index TH2 in DESIGN.md): the closed form is
// the fast path, the LP the reference.
func BenchmarkTheorem2BusClosedForm(b *testing.B) {
	p := dls.NewBus(0.1, 0.05, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dls.BusFIFOThroughput(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("linear-program", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks ---------------------------------------------------
//
// These quantify the design choices documented in DESIGN.md: the arithmetic
// of the LP solver, the integer rounding policy, the communication
// discipline, the one-port restriction itself, and the one-round choice.

// BenchmarkAblationArithmetic compares the float64 simplex against the
// exact rational simplex on the paper-sized 11-worker FIFO program.
func BenchmarkAblationArithmetic(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	sp := dls.RandomSpeeds(rng, 11, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(100))
	for _, tc := range []struct {
		name  string
		arith dls.Arith
	}{{"float64", dls.Float64}, {"exact-rational", dls.Exact}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Arith: tc.arith}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRounding compares the paper's rounding policy (floor,
// then top-up the first workers of σ1) against a largest-remainder policy,
// reporting the simulated makespan overhead of each relative to the
// fractional LP prediction.
func BenchmarkAblationRounding(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	app := dls.DefaultApp(100)
	sp := dls.RandomSpeeds(rng, 11, dls.Heterogeneous)
	plat := sp.Platform(app)
	res, err := dls.Solve(context.Background(), dls.Request{Platform: plat, Strategy: dls.StrategyFIFO})
	if err != nil {
		b.Fatal(err)
	}
	sched := res.Schedule
	const M = 1000
	predicted := dls.MakespanForLoad(sched, M)

	largestRemainder := func(alphas []float64, order dls.Order, total int) []int {
		mass := 0.0
		for _, i := range order {
			mass += alphas[i]
		}
		counts := make([]int, len(alphas))
		type frac struct {
			worker int
			rem    float64
		}
		var fr []frac
		assigned := 0
		for _, i := range order {
			share := alphas[i] / mass * float64(total)
			counts[i] = int(share)
			assigned += counts[i]
			fr = append(fr, frac{i, share - float64(counts[i])})
		}
		sort.Slice(fr, func(a, c int) bool { return fr[a].rem > fr[c].rem })
		for k := 0; k < total-assigned; k++ {
			counts[fr[k].worker]++
		}
		return counts
	}

	run := func(counts []int) float64 {
		loads := make([]float64, len(counts))
		for i, c := range counts {
			loads[i] = float64(c)
		}
		res, err := dls.Simulate(dls.SimulationParams{
			App: app, Speeds: sp, Loads: loads,
			SendOrder: sched.SendOrder, ReturnOrder: sched.ReturnOrder,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}

	b.Run("paper-topup", func(b *testing.B) {
		var overhead float64
		for i := 0; i < b.N; i++ {
			counts, err := dls.DistributeInteger(sched.Alpha, sched.SendOrder, M)
			if err != nil {
				b.Fatal(err)
			}
			overhead = run(counts)/predicted - 1
		}
		b.ReportMetric(overhead*100, "%overhead")
	})
	b.Run("largest-remainder", func(b *testing.B) {
		var overhead float64
		for i := 0; i < b.N; i++ {
			counts := largestRemainder(sched.Alpha, sched.SendOrder, M)
			overhead = run(counts)/predicted - 1
		}
		b.ReportMetric(overhead*100, "%overhead")
	})
}

// BenchmarkAblationDiscipline compares the communication disciplines on one
// heterogeneous platform: optimal FIFO, optimal LIFO and the unrestricted
// best permutation pair (small platform so the pair search is exhaustive).
func BenchmarkAblationDiscipline(b *testing.B) {
	rng := rand.New(rand.NewSource(52))
	sp := dls.RandomSpeeds(rng, 5, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(200))
	for _, tc := range []struct{ name, strategy string }{
		{"optimal-fifo", dls.StrategyFIFO},
		{"optimal-lifo", dls.StrategyLIFO},
		{"best-pair-exhaustive", dls.StrategyPairExhaustive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rho float64
			for i := 0; i < b.N; i++ {
				res, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: tc.strategy})
				if err != nil {
					b.Fatal(err)
				}
				rho = res.Throughput
			}
			b.ReportMetric(rho, "units/s")
		})
	}
}

// BenchmarkAblationOnePortPenalty reports the throughput cost of the
// one-port restriction versus the companion paper's two-port model.
func BenchmarkAblationOnePortPenalty(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	sp := dls.RandomSpeeds(rng, 11, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(80))
	var penalty float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := dls.OnePortPenalty(p, dls.Float64)
		if err != nil {
			b.Fatal(err)
		}
		penalty = r
	}
	b.ReportMetric(penalty, "two/one-port")
}

// BenchmarkAblationMultiRound reports the best uniform round count for a
// naive equal split with per-message latency (the one-round design choice
// of the paper versus the multi-round extension).
func BenchmarkAblationMultiRound(b *testing.B) {
	rng := rand.New(rand.NewSource(54))
	sp := dls.RandomSpeeds(rng, 6, dls.Heterogeneous)
	p := sp.Platform(dls.DefaultApp(200))
	loads := make([]float64, p.P())
	for i := range loads {
		loads[i] = 1000.0 / float64(p.P())
	}
	params := dls.MultiRoundParams{
		Platform: p,
		Loads:    loads,
		Order:    p.ByC(),
		Latency:  0.004,
	}
	var bestR int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _, err := dls.BestRounds(params, 24)
		if err != nil {
			b.Fatal(err)
		}
		bestR = r
	}
	b.ReportMetric(float64(bestR), "best-rounds")
}
