package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// TestForEachPermutationAdjacentTranspositions pins the generator's
// contract: every emitted order differs from its predecessor by exactly
// one ADJACENT transposition, the reported index names it, all n! orders
// are distinct, and the first emission is the identity with index -1.
// The incremental sweep's O(p−i) updates are only sound under exactly
// this contract.
func TestForEachPermutationAdjacentTranspositions(t *testing.T) {
	factorial := func(n int) int {
		f := 1
		for i := 2; i <= n; i++ {
			f *= i
		}
		return f
	}
	for n := 1; n <= 7; n++ {
		var prev []int
		seen := make(map[string]bool)
		count := 0
		err := forEachPermutation(n, func(perm []int, swapped int) error {
			count++
			key := fmt.Sprint(perm)
			if seen[key] {
				return fmt.Errorf("permutation %v emitted twice", perm)
			}
			seen[key] = true
			if prev == nil {
				if swapped != -1 {
					return fmt.Errorf("first emission reported swap index %d, want -1", swapped)
				}
				for i, v := range perm {
					if v != i {
						return fmt.Errorf("first emission %v is not the identity", perm)
					}
				}
			} else {
				if swapped < 0 || swapped+1 >= n {
					return fmt.Errorf("swap index %d out of range for n=%d", swapped, n)
				}
				diff := 0
				for i := range perm {
					if perm[i] != prev[i] {
						diff++
					}
				}
				if diff != 2 ||
					perm[swapped] != prev[swapped+1] || perm[swapped+1] != prev[swapped] {
					return fmt.Errorf("emission %v does not differ from %v by the adjacent transposition (%d, %d)",
						perm, prev, swapped, swapped+1)
				}
			}
			prev = append(prev[:0], perm...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != factorial(n) {
			t.Fatalf("n=%d: emitted %d permutations, want %d", n, count, factorial(n))
		}
	}
}

// TestForEachPermutationSliceReuse documents (and pins) the aliasing
// hazard: the slice passed to the callback is mutated between calls, so
// retaining it observes later permutations.
func TestForEachPermutationSliceReuse(t *testing.T) {
	var retained []int
	first := ""
	if err := forEachPermutation(4, func(perm []int, _ int) error {
		if retained == nil {
			retained = perm // deliberately aliased, violating the contract
			first = fmt.Sprint(perm)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(retained) == first {
		t.Fatal("retained slice did not change — the documented reuse hazard no longer holds, update the docs")
	}
}

// randomPairPlatform draws a small heterogeneous platform for the pair
// search tests.
func randomPairPlatform(rng *rand.Rand, n int) *platform.Platform {
	ws := make([]platform.Worker, n)
	for i := range ws {
		ws[i] = platform.Worker{
			C: 0.02 + 0.2*rng.Float64(),
			W: 0.05 + 0.5*rng.Float64(),
			D: 0.01 + 0.3*rng.Float64(),
		}
	}
	return platform.New(ws...)
}

// TestPairSeedsNeverExceedOptimum validates the incumbent seeding: every
// certified FIFO/LIFO seed is an achieved throughput of a scenario inside
// the pair-search space, so the seeded incumbent can never exceed the true
// pair optimum — seeding an unachievable incumbent would silently prune
// winning send orders.
func TestPairSeedsNeverExceedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(2)
		p := randomPairPlatform(rng, n)
		core := newSearchCore(t.Context())
		if err := seedPairIncumbent(t.Context(), core, p, schedule.OnePort, n, true); err != nil {
			t.Fatal(err)
		}
		maxSeed := core.bestRho
		pr, err := BestPairExhaustiveContext(context.Background(), p, schedule.OnePort, Float64)
		if err != nil {
			t.Fatal(err)
		}
		opt := pr.Schedule.Throughput()
		if maxSeed > opt*(1+1e-9) {
			t.Fatalf("trial %d: seeded incumbent %.12g exceeds the pair optimum %.12g", trial, maxSeed, opt)
		}
		// The seed's claimed orders must actually achieve the claimed
		// throughput (the incumbent is an achieved point, not a bound).
		rho, err := eval.NewSession().Throughput(eval.Scenario{
			Platform: p, Send: core.best, Return: core.bestRet, Model: schedule.OnePort,
		}, eval.Simplex)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxSeed - rho; d > 1e-9*(1+rho) || d < -1e-9*(1+rho) {
			t.Fatalf("trial %d: seed claims %.12g but its scenario evaluates to %.12g", trial, maxSeed, rho)
		}
	}
}

// TestPairBBSeedingReducesWork pins the incumbent seeding: the optimum
// must be identical with and without seeds, and across the sample the
// seeded searches must expand strictly fewer nodes and evaluate strictly
// fewer leaves — the incumbent from the batch seeds lets the prefix bound
// cut subtrees from the very first send order.
func TestPairBBSeedingReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(655))
	var seededWork, unseededWork uint64
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(2)
		p := randomPairPlatform(rng, n)

		run := func(disable bool) (*PairResult, uint64) {
			disablePairSeeding = disable
			defer func() { disablePairSeeding = false }()
			before := PairStatsSnapshot()
			pr, err := BestPairExhaustiveEval(t.Context(), p, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			after := PairStatsSnapshot()
			return pr, (after.NodesExpanded - before.NodesExpanded) + (after.LeavesEvaluated - before.LeavesEvaluated)
		}
		seeded, workSeeded := run(false)
		unseeded, workUnseeded := run(true)
		if s, u := seeded.Schedule.Throughput(), unseeded.Schedule.Throughput(); s != u {
			t.Fatalf("trial %d: seeding changed the optimum: %.17g != %.17g", trial, s, u)
		}
		seededWork += workSeeded
		unseededWork += workUnseeded
	}
	if seededWork >= unseededWork {
		t.Fatalf("seeding did not reduce branch-and-bound work across the sample: %d (seeded) vs %d (unseeded)",
			seededWork, unseededWork)
	}
}

// forEachLexPermutation calls fn with every permutation of {0..n-1} in
// lexicographic order. The slice is reused between calls.
func forEachLexPermutation(n int, fn func(perm []int)) {
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) == n {
			fn(perm)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			perm = append(perm, v)
			rec()
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	rec()
}

// pairOracle is the reference pair search: a plain double loop that scores
// every (σ1, σ2) with Session.Throughput — no return-prefix state, no
// bound, no seeding. The loops run in lexicographic order and only a
// strictly better throughput replaces the best, so among equal throughputs
// the lexicographically smallest (σ1, σ2) wins, the search's own tie rule.
// The winner is evaluated through Session.Evaluate, as the search does.
func pairOracle(t *testing.T, p *platform.Platform, model schedule.Model, mode eval.Mode) *PairResult {
	t.Helper()
	sess := eval.NewSession()
	n := p.P()
	best := -1.0
	var bestSend, bestRet platform.Order
	forEachLexPermutation(n, func(send []int) {
		forEachLexPermutation(n, func(ret []int) {
			rho, err := sess.Throughput(eval.Scenario{Platform: p, Send: send, Return: ret, Model: model}, mode)
			if err != nil {
				t.Fatal(err)
			}
			if rho > best {
				best = rho
				bestSend = append(bestSend[:0], send...)
				bestRet = append(bestRet[:0], ret...)
			}
		})
	})
	sched, err := sess.Evaluate(eval.Scenario{Platform: p, Send: bestSend, Return: bestRet, Model: model}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return &PairResult{Schedule: sched, Send: bestSend, Return: bestRet}
}

// TestPairBBAgreesWithFlat pins the branch-and-bound pair search against
// the flat double-loop oracle: on random platforms across models the two
// must agree on the optimal throughput, the derived makespan and the
// winning schedule's canonicalised loads to 1e-9, and — whenever the
// optimum is not a floating-point tie — on the winning (σ1, σ2) pair
// itself. The search prunes with a relative margin and certifies leaves
// through its own float64 arithmetic, so two pairs within rounding of each
// other are legitimately interchangeable winners; in that case both pairs
// must still achieve the same optimum.
func TestPairBBAgreesWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	const load = 1000.0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3)
		p := randomPairPlatform(rng, n)
		model := schedule.OnePort
		if trial%5 == 4 {
			model = schedule.TwoPort
		}
		bb, err := BestPairExhaustiveEval(t.Context(), p, model, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		flat := pairOracle(t, p, model, eval.Auto)
		rb, rf := bb.Schedule.Throughput(), flat.Schedule.Throughput()
		tol := 1e-9 * (1 + rb + rf)
		if d := rb - rf; d > tol || d < -tol {
			t.Fatalf("trial %d: bb throughput %.12g != flat %.12g\n%s", trial, rb, rf, p)
		}
		if d := load/rb - load/rf; d > 1e-9*(1+load/rb) || d < -1e-9*(1+load/rb) {
			t.Fatalf("trial %d: makespan disagreement: bb %.12g != flat %.12g", trial, load/rb, load/rf)
		}
		sameOrders := ordersEqual(bb.Send, flat.Send) && ordersEqual(bb.Return, flat.Return)
		if !sameOrders {
			// A tie within rounding: both pairs must achieve the same
			// optimum (re-evaluated through the simplex to decouple the
			// check from the search's own arithmetic).
			sess := eval.NewSession()
			vb, err := sess.Throughput(eval.Scenario{Platform: p, Send: bb.Send, Return: bb.Return, Model: model}, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			vf, err := sess.Throughput(eval.Scenario{Platform: p, Send: flat.Send, Return: flat.Return, Model: model}, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			if d := vb - vf; d > tol || d < -tol {
				t.Fatalf("trial %d: winners differ beyond a tie: bb (σ1=%v σ2=%v)=%.12g, flat (σ1=%v σ2=%v)=%.12g",
					trial, bb.Send, bb.Return, vb, flat.Send, flat.Return, vf)
			}
			continue // tie winners may enroll different workers
		}
		// Canonicalised loads (Evaluate pins degenerate optima to the
		// lex-min vertex) of the two reported schedules.
		for i := range bb.Schedule.Alpha {
			a, b := bb.Schedule.Alpha[i], flat.Schedule.Alpha[i]
			if d := a - b; d > 1e-9*(1+a+b) || d < -1e-9*(1+a+b) {
				t.Fatalf("trial %d: load of worker %d: bb %.12g != flat %.12g", trial, i, a, b)
			}
		}
	}
}

// exactPairCase is one seeded platform and port model of the exact pair
// tests.
type exactPairCase struct {
	p     *platform.Platform
	model schedule.Model
}

// exactPairCases are the seeded p = 3–4 platforms of the exact pair tests,
// each under both port models. Exact trials stay at p ≤ 4: every leaf is a
// rational simplex solve, and a serial p = 5 search takes tens of seconds.
func exactPairCases() []exactPairCase {
	var out []exactPairCase
	for seed := int64(1); seed <= 2; seed++ {
		for _, n := range []int{3, 4} {
			for _, model := range []schedule.Model{schedule.OnePort, schedule.TwoPort} {
				out = append(out, exactPairCase{randomPairPlatform(rand.New(rand.NewSource(seed)), n), model})
			}
		}
	}
	return out
}

// TestPairBBExactMatchesOracle is the exact-arithmetic acceptance check:
// under ExactRational the search prunes nothing (no float64 bound may
// certify an exact comparison) and scores every leaf with the exact LP, so
// its winning (σ1, σ2), throughput bits and loads must equal the oracle's
// bit for bit, and its counters must show all (p!)² leaves and no cut.
func TestPairBBExactMatchesOracle(t *testing.T) {
	for i, tc := range exactPairCases() {
		before := PairStatsSnapshot()
		got, err := BestPairExhaustiveEval(ContextWithSearchParallelism(t.Context(), 1), tc.p, tc.model, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		after := PairStatsSnapshot()
		want := pairOracle(t, tc.p, tc.model, eval.ExactRational)
		if !ordersEqual(got.Send, want.Send) || !ordersEqual(got.Return, want.Return) {
			t.Fatalf("case %d (%v): search won (σ1=%v σ2=%v), oracle (σ1=%v σ2=%v)\n%s",
				i, tc.model, got.Send, got.Return, want.Send, want.Return, tc.p)
		}
		if g, w := math.Float64bits(got.Schedule.Throughput()), math.Float64bits(want.Schedule.Throughput()); g != w {
			t.Fatalf("case %d (%v): throughput bits %x, oracle %x", i, tc.model, g, w)
		}
		if !bitsEqual(scheduleBits(got.Schedule), scheduleBits(want.Schedule)) {
			t.Fatalf("case %d (%v): α %v, oracle %v", i, tc.model, got.Schedule.Alpha, want.Schedule.Alpha)
		}
		f := uint64(factorial(tc.p.P()))
		if pruned := after.SubtreesPruned - before.SubtreesPruned; pruned != 0 {
			t.Errorf("case %d: exact search pruned %d subtrees", i, pruned)
		}
		if outer := after.OuterPruned - before.OuterPruned; outer != 0 {
			t.Errorf("case %d: exact search pruned %d send orders", i, outer)
		}
		if leaves := after.LeavesEvaluated - before.LeavesEvaluated; leaves != f*f {
			t.Errorf("case %d: exact search scored %d leaves, want (p!)² = %d", i, leaves, f*f)
		}
	}
}

// TestPairBBExactParallelByteIdentical runs the exact search at search
// parallelism 1, 2 and 4: orders, throughput and load bits must not
// depend on the worker count.
func TestPairBBExactParallelByteIdentical(t *testing.T) {
	for i, tc := range exactPairCases()[2:4] { // seed 1, p = 4, both models
		var ref *PairResult
		for _, w := range []int{1, 2, 4} {
			got, err := BestPairExhaustiveEval(ContextWithSearchParallelism(t.Context(), w), tc.p, tc.model, eval.ExactRational)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !ordersEqual(got.Send, ref.Send) || !ordersEqual(got.Return, ref.Return) ||
				!bitsEqual(scheduleBits(got.Schedule), scheduleBits(ref.Schedule)) {
				t.Fatalf("case %d (%v) at %d workers: (σ1=%v σ2=%v α=%v), serial (σ1=%v σ2=%v α=%v)",
					i, tc.model, w, got.Send, got.Return, got.Schedule.Alpha, ref.Send, ref.Return, ref.Schedule.Alpha)
			}
		}
	}
}

// TestPairBBExactCancellation checks that a deadline stops an unpruned
// exact p = 5 search — (5!)² rational simplex solves, tens of seconds
// serially — promptly.
func TestPairBBExactCancellation(t *testing.T) {
	p := randomPairPlatform(rand.New(rand.NewSource(5)), 5)
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.ExactRational)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v (after %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, the exact search is not polling the context", elapsed)
	}
}

// TestPairBBCancellationInsideRecursion pins the cancellation granularity
// satellite: a deadline far shorter than the p = 7 search must surface as
// ctx.Err() promptly, with the expiry landing inside the return-order
// recursion (seeding is disabled so the deadline cannot be absorbed by the
// seeding phase, and the incumbent therefore starts unseeded, keeping the
// early subtrees deep).
func TestPairBBCancellationInsideRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	p := randomPairPlatform(rng, 7)
	disablePairSeeding = true
	defer func() { disablePairSeeding = false }()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel()
	start := time.Now()
	_, err := BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v (after %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, the recursion is not polling the context", elapsed)
	}
}

// TestSweepSearchAgreesAcrossBackends pins the incremental order search at
// the strategy level: the Auto (sweep-driven) search must agree with the
// simplex-only search on the winning throughput for FIFO and LIFO.
func TestSweepSearchAgreesAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		p := randomPairPlatform(rng, n)
		for _, lifo := range []bool{false, true} {
			search := BestFIFOExhaustiveEval
			if lifo {
				search = BestLIFOExhaustiveEval
			}
			auto, _, err := search(t.Context(), p, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			simplex, _, err := search(t.Context(), p, schedule.OnePort, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			a, s := auto.Throughput(), simplex.Throughput()
			if diff := a - s; diff > 1e-9*(1+a+s) || diff < -1e-9*(1+a+s) {
				t.Fatalf("trial %d lifo=%v: auto search %.12g != simplex search %.12g", trial, lifo, a, s)
			}
		}
	}
}
