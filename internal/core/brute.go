package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Limits on the exhaustive searches: p! scenario evaluations for FIFO/LIFO
// order search, (p!)² return-order nodes for permutation pairs. The order
// limit keeps worst cases around a few million tiny evaluations; the pair
// limit rose from 5 to 7 when the branch-and-bound recursion over return
// orders replaced the flat inner loop — the prefix bound cuts whole σ2
// subtrees, so the explored node count stays far below the (p!)² ceiling —
// and from 7 to 8 (with the order limit moving 8 → 9) when the
// work-stealing pool spread the searches over all cores and the incremental
// factorisation cut the per-node bound to O(q²). Exact-rational pair
// searches keep the historical cap: they run the same branch-and-bound with
// seeding and pruning off (float64 bounds cannot certify exact
// comparisons), so every one of the (p!)² leaves is an exact simplex solve —
// (7!)² of them would take days where the fail-fast error takes
// microseconds.
const (
	maxExhaustiveOrder     = 9
	maxExhaustivePair      = 8
	maxExhaustivePairExact = 5 // ExactRational: the unpruned search
)

// pruneSlack is the relative safety margin of the searches' upper-bound
// pruning: a subtree (or inner loop) is pruned only when its bound is
// WORSE than the incumbent by more than this relative slack,
// bound·(1+pruneSlack) < incumbent. The strict direction matters for the
// parallel search's byte-identity guarantee: a subtree containing an
// optimum-achieving leaf has bound ≥ ρ* ≥ incumbent and therefore can
// never satisfy the prune test, REGARDLESS of how the shared incumbent
// happened to rise — so the set of surviving optima (and with the lex-min
// tie rule, the winner) does not depend on worker interleaving. The slack
// is wide enough (1e-9 ≫ the incremental factorisation's refinement-
// guarded drift) that bound noise cannot flip the test either.
const pruneSlack = 1e-9

// screenSlack derives the incumbent handed to the sweeps' dual screening
// (eval.Sweep.ThroughputBound): the searches pass incumbent·(1-screenSlack)
// so an order that exactly TIES the shared best is never screened — its
// exact optimum is always computed, keeping the lex-min tie resolution
// deterministic under any worker interleaving. Screened orders report a
// value capped at the screening incumbent, i.e. strictly below the shared
// best, so they can never become a winner either.
const screenSlack = 1e-11

// ctxPollMask throttles context polling in the search cores' hot loops:
// the context is checked every ctxPollMask+1 nodes, bounding the
// cancellation latency to a few microseconds of chain evaluations while
// keeping the per-node cost free of the atomic loads ctx.Err() performs.
const ctxPollMask = 0x3f

// disablePairSeeding switches off the batched FIFO/LIFO incumbent seeding
// of the pair searches. It exists for tests — the seeding property tests
// compare pruning counts with and without seeds, and the cancellation test
// steers a deadline into the recursion itself — and is not part of the
// package API.
var disablePairSeeding bool

// PairStats is a snapshot of the pair searches' cumulative
// instrumentation, kept as process-global atomics (searches may run
// concurrently; each worker accumulates locally and flushes once). The
// counters make the branch-and-bound's effectiveness observable — the
// pruning gate test fails if SubtreesPruned stops advancing on the
// reference platform, i.e. if the bound silently stopped firing.
type PairStats struct {
	// OuterPruned counts send orders whose entire return-order tree was
	// skipped because the root-node bound could not beat the incumbent.
	OuterPruned uint64
	// NodesExpanded counts branch-and-bound nodes whose children were
	// generated (including the per-σ1 roots).
	NodesExpanded uint64
	// SubtreesPruned counts children cut by the return-prefix bound —
	// whole subtrees of return orders discarded without evaluation
	// (leaves pruned at full depth count too).
	SubtreesPruned uint64
	// SubtreesScreened counts the children of SubtreesPruned cut by the
	// parent's one-pass child bounds, without ever being pushed.
	SubtreesScreened uint64
	// LeavesEvaluated counts complete return orders whose throughput was
	// actually computed (certified bound or fallback evaluation).
	LeavesEvaluated uint64
}

// pairCounters holds the PairStats counters as atomics. One process-global
// set backs PairStatsSnapshot; every search also owns a set of its own,
// which its traced span annotates, so concurrent searches never count each
// other's nodes.
type pairCounters struct {
	outerPruned, nodes, pruned, screened, leaves atomic.Uint64
}

var pairTotals pairCounters

func (c *pairCounters) snapshot() PairStats {
	return PairStats{
		OuterPruned:      c.outerPruned.Load(),
		NodesExpanded:    c.nodes.Load(),
		SubtreesPruned:   c.pruned.Load(),
		SubtreesScreened: c.screened.Load(),
		LeavesEvaluated:  c.leaves.Load(),
	}
}

// add flushes one worker's local counts into the global and the
// per-search counters.
func (c *pairCounters) add(outerPruned, nodes, pruned, screened, leaves uint64) {
	for _, t := range [...]*pairCounters{&pairTotals, c} {
		t.outerPruned.Add(outerPruned)
		t.nodes.Add(nodes)
		t.pruned.Add(pruned)
		t.screened.Add(screened)
		t.leaves.Add(leaves)
	}
}

// PairStatsSnapshot returns the cumulative pair-search counters. Callers
// interested in one search (benchmarks, the pruning gate test) subtract
// two snapshots.
func PairStatsSnapshot() PairStats { return pairTotals.snapshot() }

// forEachPermutation invokes fn with every permutation of {0..n-1},
// enumerated by the Steinhaus–Johnson–Trotter algorithm: each emitted
// order differs from its predecessor by exactly one transposition of
// ADJACENT positions. fn receives the left index of that transposition —
// the new order swapped positions (swapped, swapped+1) of the previous
// one — or -1 on the first call, which emits the identity. The adjacency
// contract is what makes incremental re-evaluation possible (eval.Sweep
// re-derives only the chain state the swap invalidated) and is pinned by
// a property test.
//
// The slice passed to fn is reused and mutated in place between calls: fn
// must copy it if it escapes the callback (Clone an Order, never retain
// the argument).
func forEachPermutation(n int, fn func(perm []int, swapped int) error) error {
	perm := make([]int, n)
	pos := make([]int, n) // pos[v]: current index of value v
	dir := make([]int, n) // dir[v]: direction v moves (±1)
	for i := range perm {
		perm[i], pos[i], dir[i] = i, i, -1
	}
	if err := fn(perm, -1); err != nil {
		return err
	}
	for {
		left, ok := sjtStep(n, perm, pos, dir)
		if !ok {
			return nil // no mobile value: all n! permutations emitted
		}
		if err := fn(perm, left); err != nil {
			return err
		}
	}
}

// incumbent is the state one search's workers share: the best known
// throughput as atomic float64 bits (throughputs are positive, so the IEEE
// bit patterns order exactly like the values and a CAS-max loop suffices)
// and the cooperative stop flag of the cancellation protocol — the first
// worker that observes a done context (or fails) raises it, and every
// other worker sees it at its next throttled poll.
type incumbent struct {
	bits atomic.Uint64
	stop atomic.Bool
}

// load returns the shared best throughput (0 before the first offer).
func (inc *incumbent) load() float64 {
	return math.Float64frombits(inc.bits.Load())
}

// raise lifts the shared best to rho if it improves it.
func (inc *incumbent) raise(rho float64) {
	if rho <= 0 {
		return
	}
	b := math.Float64bits(rho)
	for {
		cur := inc.bits.Load()
		if cur >= b || inc.bits.CompareAndSwap(cur, b) {
			return
		}
	}
}

// errSearchStopped is the sentinel a worker returns when it quits because
// ANOTHER worker raised the stop flag: the real error (a done context, an
// evaluation failure) travels up from the worker that hit it, and the
// drivers drop the sentinels in favour of it.
var errSearchStopped = errors.New("core: search stopped by another worker")

// searchCore is one worker's view of an order-space search: its private
// poll counter and local best (send, return, throughput) plus the shared
// incumbent every worker prunes against. The FIFO/LIFO order searches are
// depth-1 instances — every SJT emission is a leaf offered directly —
// while the pair searches thread the same core through the σ1 enumeration
// and (for the branch-and-bound) every node of the return-order recursion,
// which is what makes a WithTimeout deadline abort a deep subtree promptly
// instead of waiting for the next outer permutation.
//
// Ties are resolved lexicographically: among leaves of equal throughput
// the worker keeps the lexicographically smallest (send, return) pair, and
// the drivers merge worker bests under the same rule. Combined with the
// strictly-worse prune rule (see pruneSlack) this makes the search result
// a pure function of the platform — byte-identical across worker counts
// and interleavings.
type searchCore struct {
	ctx     context.Context
	inc     *incumbent
	iter    int
	bestRho float64
	best    platform.Order // winning send order
	bestRet platform.Order // winning return order (nil when implied)
}

func newSearchCore(ctx context.Context) *searchCore {
	return newSearchWorker(ctx, &incumbent{})
}

// newSearchWorker is a worker-view core over a shared incumbent.
func newSearchWorker(ctx context.Context, inc *incumbent) *searchCore {
	return &searchCore{ctx: ctx, inc: inc, bestRho: -1}
}

// poll checks the stop flag and the context every ctxPollMask+1 calls.
// Every node of every search calls it on its own counter, so cancellation
// latency is bounded by a few dozen chain evaluations anywhere in the tree
// of every worker.
func (s *searchCore) poll() error {
	if s.iter&ctxPollMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.inc.stop.Store(true)
			return err
		}
		if s.inc.stop.Load() {
			return errSearchStopped
		}
	}
	s.iter++
	return nil
}

// prunable reports whether a subtree bound is strictly worse than the
// shared incumbent (see pruneSlack for why strictness is load-bearing).
// No worker prunes before the first incumbent exists.
func (s *searchCore) prunable(bound float64) bool {
	g := s.inc.load()
	return g > 0 && bound*(1+pruneSlack) < g
}

// screen returns the incumbent to hand to the sweeps' dual screening: a
// hair below the shared best, so exact ties are never screened out (see
// screenSlack).
func (s *searchCore) screen() float64 {
	g := s.inc.load()
	if g <= 0 {
		return -1
	}
	return g * (1 - screenSlack)
}

// offer installs a leaf as the worker's local best when it improves it —
// strictly better throughput, or an exact tie with a lexicographically
// smaller (send, return) pair — cloning the live enumeration slices, and
// lifts the shared incumbent. ret may be nil for searches whose return
// order is implied by the send order (FIFO/LIFO).
func (s *searchCore) offer(rho float64, send, ret platform.Order) {
	if rho < s.bestRho {
		return
	}
	if rho == s.bestRho && !ordersLess(send, ret, s.best, s.bestRet) {
		return
	}
	s.bestRho = rho
	s.best = append(s.best[:0], send...)
	s.bestRet = append(s.bestRet[:0], ret...)
	s.inc.raise(rho)
}

// ordersLess is the lexicographic tie rule: send order first, return order
// second. The permutation searches always compare equal-length sends; the
// affine subset search compares enrolled sets of different sizes, so sends
// compare element-wise up to the shorter length with a strict prefix
// ordering before its extensions.
func ordersLess(aSend, aRet, bSend, bRet platform.Order) bool {
	for i := range aSend {
		if i >= len(bSend) {
			return false // bSend is a strict prefix of aSend
		}
		if aSend[i] != bSend[i] {
			return aSend[i] < bSend[i]
		}
	}
	if len(aSend) < len(bSend) {
		return true
	}
	for i := range aRet {
		if i >= len(bRet) || aRet[i] != bRet[i] {
			return i >= len(bRet) || aRet[i] < bRet[i]
		}
	}
	return false
}

// mergeWorkers folds worker-local bests into dst under the same
// (throughput, lex) rule the workers applied locally, making the final
// winner independent of which worker found it.
func mergeWorkers(dst *searchCore, workers []*searchCore) {
	for _, w := range workers {
		if w == nil || w.bestRho < dst.bestRho {
			continue
		}
		if w.bestRho > dst.bestRho || ordersLess(w.best, w.bestRet, dst.best, dst.bestRet) {
			dst.bestRho, dst.best, dst.bestRet = w.bestRho, w.best, w.bestRet
		}
	}
}

// BestFIFOExhaustiveContext tries every FIFO send order over all workers,
// evaluating the scenario for each, and returns the best schedule together
// with the winning order. It is the optimality oracle used to validate
// Theorem 1 on small platforms, and the fallback when the platform has no
// common z. The factorial search aborts with ctx.Err() as soon as the
// context is done.
func BestFIFOExhaustiveContext(ctx context.Context, p *platform.Platform, model schedule.Model, arith Arith) (*schedule.Schedule, platform.Order, error) {
	mode, err := evalMode(arith)
	if err != nil {
		return nil, nil, err
	}
	return BestFIFOExhaustiveEval(ctx, p, model, mode)
}

// BestFIFOExhaustiveEval is the cancellable FIFO order search with an
// explicit evaluation backend.
func BestFIFOExhaustiveEval(ctx context.Context, p *platform.Platform, model schedule.Model, mode eval.Mode) (*schedule.Schedule, platform.Order, error) {
	return bestOrderExhaustive(ctx, p, model, mode, false)
}

// BestLIFOExhaustiveContext tries every LIFO send order (results in
// reverse), with cancellation.
func BestLIFOExhaustiveContext(ctx context.Context, p *platform.Platform, model schedule.Model, arith Arith) (*schedule.Schedule, platform.Order, error) {
	mode, err := evalMode(arith)
	if err != nil {
		return nil, nil, err
	}
	return BestLIFOExhaustiveEval(ctx, p, model, mode)
}

// BestLIFOExhaustiveEval is the cancellable LIFO order search with an
// explicit evaluation backend.
func BestLIFOExhaustiveEval(ctx context.Context, p *platform.Platform, model schedule.Model, mode eval.Mode) (*schedule.Schedule, platform.Order, error) {
	return bestOrderExhaustive(ctx, p, model, mode, true)
}

// bestOrderExhaustive enumerates all p! send orders — the depth-1 instance
// of the search core: every SJT emission is a leaf offered straight to the
// incumbent. Under the Auto backend the Steinhaus–Johnson–Trotter
// enumeration drives an incremental eval.Sweep: each adjacent
// transposition re-derives only the invalidated prefix/suffix state of the
// FIFO/LIFO load-and-dual chains (O(p−i) after a swap at position i
// instead of O(p) from scratch), and a permutation is handed to the full
// tiered pipeline only when the chain certificate fails (port-bound or
// resource-selecting optima). Other backends — and the certificate
// failures — evaluate through the raw throughput fast path of one pooled
// eval session. Only the winning order is re-evaluated through the
// verified schedule-producing path.
func bestOrderExhaustive(ctx context.Context, p *platform.Platform, model schedule.Model, mode eval.Mode, lifo bool) (*schedule.Schedule, platform.Order, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.P()
	if n > maxExhaustiveOrder {
		return nil, nil, fmt.Errorf("core: exhaustive order search limited to %d workers, platform has %d", maxExhaustiveOrder, n)
	}
	winner := newSearchCore(ctx)
	run := func(core *searchCore, lo, hi int64) error {
		return sweepRange(core, p, model, mode, lifo, lo, hi)
	}
	traced := obs.Enabled(ctx)
	t0 := obs.Now(ctx)
	pool, err := runRangePool(ctx, winner, factorial(n), run)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		kind := "fifo-order"
		if lifo {
			kind = "lifo-order"
		}
		backend := mode.String()
		if mode == eval.Auto {
			backend = "sweep"
		}
		obs.StageAt(ctx, 1, "search", t0, obs.Now(ctx),
			obs.String("kind", kind),
			obs.Int("workers", pool.workers),
			obs.Int64("orders", factorial(n)),
			obs.String("backend", backend))
	}
	sess := eval.GetSession()
	defer sess.Release()
	bestOrder := winner.best
	sc := eval.Scenario{Platform: p, Model: model, Send: bestOrder}
	if lifo {
		sc.Return = bestOrder.Reverse()
	} else {
		sc.Return = bestOrder
	}
	evalStart := obs.Now(ctx)
	best, err := sess.Evaluate(sc, mode)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		recordEvalBackend(ctx, sess, mode, evalStart)
	}
	return best, bestOrder, nil
}

// sweepRange runs one worker's contiguous permutation-rank range of the
// FIFO/LIFO order search: under the Auto backend an incremental eval.Sweep
// rides the SJT transpositions of the range (the range opener rebuilds the
// chains from scratch, exactly like the full enumeration's identity
// emission), other backends evaluate each order through one pooled
// session. On its miss path a sweep value is a pure function of the
// order: the full chain descent and then the pivot tier both start from
// the order alone. The chain warm path, which re-certifies or resumes from
// the optimum cached at the previous order, is not on platforms with exact
// cost ties: two rank ranges can reach one order through different
// certified vertices whose values differ in the last bit, so a
// range-partitioned search can pick a different winner than the serial one
// (ROADMAP item 4). The byte-identity tests use tie-free platforms.
func sweepRange(core *searchCore, p *platform.Platform, model schedule.Model, mode eval.Mode, lifo bool, lo, hi int64) error {
	n := p.P()
	sess := eval.GetSession()
	defer sess.Release()
	sc := eval.Scenario{Platform: p, Model: model}
	reversed := make(platform.Order, n) // scratch for the LIFO return order
	var sweep *eval.Sweep
	return forEachPermutationRange(n, lo, hi, func(perm []int, swapped int) error {
		if err := core.poll(); err != nil {
			return err
		}
		if mode == eval.Auto {
			if swapped < 0 {
				var err error
				if sweep, err = eval.NewSweep(p, perm, model, lifo); err != nil {
					return err
				}
			} else {
				sweep.Delta(swapped)
			}
			// ThroughputBound may return a certified upper bound instead of
			// the exact optimum when the cached dual multipliers prove this
			// order cannot beat the screening incumbent; the screen sits
			// strictly below the shared best (see screenSlack), so a pruned
			// order's capped value can never win and an exact tie is always
			// computed exactly.
			rho, ok := sweep.ThroughputBound(core.screen())
			if !ok {
				return fmt.Errorf("core: send order %v: no tier of the evaluator answered", perm)
			}
			core.offer(rho, platform.Order(perm), nil)
			return nil
		}
		sc.Send = perm
		if lifo {
			for k, v := range perm {
				reversed[n-1-k] = v
			}
			sc.Return = reversed
		} else {
			sc.Return = perm
		}
		rho, err := sess.ThroughputTrusted(sc, mode)
		if err != nil {
			return err
		}
		core.offer(rho, platform.Order(perm), nil)
		return nil
	})
}

// PairResult is the outcome of the general permutation-pair search.
type PairResult struct {
	Schedule *schedule.Schedule
	Send     platform.Order
	Return   platform.Order
}

// BestPairExhaustiveContext searches every (σ1, σ2) permutation pair over
// all workers — the general scheduling problem whose complexity the paper
// leaves open (and conjectures NP-hard). Limited to small platforms; used
// to probe how far the optimal FIFO/LIFO schedules sit from the
// unrestricted optimum. The search polls the context throughout —
// including inside the return-order recursion — and aborts with ctx.Err()
// once it is done.
func BestPairExhaustiveContext(ctx context.Context, p *platform.Platform, model schedule.Model, arith Arith) (*PairResult, error) {
	mode, err := evalMode(arith)
	if err != nil {
		return nil, err
	}
	return BestPairExhaustiveEval(ctx, p, model, mode)
}

// BestPairExhaustiveEval is the cancellable pair search with an explicit
// evaluation backend. The incumbent is seeded first — the FIFO and LIFO
// return orders of every send permutation, batch-evaluated up front in
// structure-of-arrays lockstep — and then every send order's return orders
// are explored as a tree, committing the last returner first and
// discarding every subtree whose prefix relaxation (eval.ReturnPrefix)
// cannot beat the incumbent.
//
// Under ExactRational the seeds and the bounds (float64 computations)
// could not certify exact comparisons, so seeding is off and the bound
// never fires: the same search scores all (p!)² leaves with exact LPs.
func BestPairExhaustiveEval(ctx context.Context, p *platform.Platform, model schedule.Model, mode eval.Mode) (*PairResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.P()
	if n > maxExhaustivePair {
		return nil, fmt.Errorf("core: exhaustive pair search limited to %d workers, platform has %d", maxExhaustivePair, n)
	}
	if mode == eval.ExactRational && n > maxExhaustivePairExact {
		return nil, fmt.Errorf("core: exact-rational pair search limited to %d workers (no pruning certifies exact comparisons), platform has %d", maxExhaustivePairExact, n)
	}
	winner := newSearchCore(ctx)
	traced := obs.Enabled(ctx)
	t0 := obs.Now(ctx)
	seed := mode != eval.ExactRational && !disablePairSeeding
	if err := seedPairIncumbent(ctx, winner, p, model, n, seed); err != nil {
		return nil, err
	}
	var counts pairCounters
	pool, err := pairSearchBB(ctx, winner, p, model, mode, n, &counts)
	if err != nil {
		return nil, err
	}
	if traced {
		st := counts.snapshot()
		obs.StageAt(ctx, 1, "search", t0, obs.Now(ctx),
			obs.String("kind", "pair"),
			obs.Int("workers", pool.workers),
			obs.Int("helpers_retired", pool.retired),
			obs.Uint64("nodes", st.NodesExpanded),
			obs.Uint64("pruned", st.SubtreesPruned),
			obs.Uint64("screened", st.SubtreesScreened),
			obs.Uint64("outer_pruned", st.OuterPruned),
			obs.Uint64("leaves", st.LeavesEvaluated))
	}
	sess := eval.GetSession()
	defer sess.Release()
	bestSend, bestRet := winner.best, winner.bestRet
	evalStart := obs.Now(ctx)
	best, err := sess.Evaluate(eval.Scenario{Platform: p, Send: bestSend, Return: bestRet, Model: model}, mode)
	if err != nil {
		return nil, err
	}
	if traced {
		recordEvalBackend(ctx, sess, mode, evalStart)
	}
	return &PairResult{Schedule: best, Send: bestSend, Return: bestRet}, nil
}

// pairRefactorBounds, set by the benchmark that times the maintained
// inverse, makes every pair search's return-prefix bounds factorise each
// node from scratch (eval.ReturnPrefix.SetIncremental(false)).
var pairRefactorBounds bool

// pairSearchBB drives the branch-and-bound over the work-stealing pool:
// send orders are tasks identified by their SJT rank, initially dealt to
// the workers as contiguous blocks; each worker runs a pruned prefix
// recursion over return orders per send order with its own pooled session
// and ReturnPrefix, pruning against the shared incumbent. Counter flushes
// into the global and the per-search counts happen exactly once per
// worker, including on cancellation.
func pairSearchBB(ctx context.Context, winner *searchCore, p *platform.Platform, model schedule.Model, mode eval.Mode, n int, counts *pairCounters) (poolRun, error) {
	run := func(core *searchCore, next func() (int64, bool)) error {
		sess := eval.GetSession()
		defer sess.Release()
		rp, err := sess.NewReturnPrefix(p, model, mode)
		if err != nil {
			return err
		}
		rp.SetIncremental(!pairRefactorBounds)
		bb := &pairBB{core: core, rp: rp, q: n, counts: counts, screen: make([]float64, n*n)}
		defer bb.flush()
		perm := make([]int, n)
		pos := make([]int, n)
		dir := make([]int, n)
		for {
			rank, ok := next()
			if !ok {
				return nil
			}
			sjtUnrank(n, rank, perm, pos, dir)
			if err := bb.searchSend(platform.Order(perm)); err != nil {
				return err
			}
		}
	}
	return runStealingPool(ctx, winner, factorial(n), run)
}

// pairBB is one branch-and-bound run: the shared search core, the eval
// prefix state and locally accumulated counters (flushed once per worker
// into the global atomics and the search's own counts).
type pairBB struct {
	core   *searchCore
	rp     *eval.ReturnPrefix
	send   platform.Order
	q      int
	counts *pairCounters
	screen []float64 // ChildBounds output, q entries per depth

	outerPruned, nodes, pruned, screened, leaves uint64
}

func (b *pairBB) flush() {
	b.counts.add(b.outerPruned, b.nodes, b.pruned, b.screened, b.leaves)
}

// searchSend explores the return-order tree of one send order: root bound,
// then the pruned prefix recursion. A send order whose root relaxation —
// the send-order relaxation, here one triangular system — cannot beat the
// incumbent skips its whole tree.
func (b *pairBB) searchSend(send platform.Order) error {
	if err := b.core.poll(); err != nil {
		return err
	}
	b.send = send
	if err := b.rp.Reset(send); err != nil {
		return err
	}
	bound := math.Inf(1)
	if bd, _, ok := b.rp.Bound(); ok {
		if b.core.prunable(bd) {
			b.outerPruned++
			return nil
		}
		bound = bd
	}
	b.nodes++
	return b.searchNode(bound)
}

// searchNode expands one node. First every open child is bounded at once
// from the node's maintained inverse (ReturnPrefix.ChildBounds), and a
// child that bound already cuts is pruned without being pushed. Each
// survivor is committed to the deepest open return position, bounded
// again on its own matrix, and either pruned (the whole subtree of return
// orders sharing that prefix is discarded), recursed into, or — at full
// depth — evaluated and offered to the incumbent. Both bounds are
// admissible and the prune rule keeps pruneSlack, so which one cuts a
// child never changes the winner. bound is the tightest certified bound
// along the path; a node whose own bound fails to compute inherits it
// (admissible by the bound's monotonicity in prefix length).
func (b *pairBB) searchNode(bound float64) error {
	if err := b.core.poll(); err != nil {
		return err
	}
	depth := b.rp.Depth()
	screen := b.screen[depth*b.q : (depth+1)*b.q]
	b.rp.ChildBounds(screen)
	for pos := 0; pos < b.q; pos++ {
		if !b.rp.Open(pos) {
			continue
		}
		if b.core.prunable(min(bound, screen[pos])) {
			b.pruned++
			b.screened++
			continue
		}
		b.rp.Push(pos)
		nb := bound
		cb, exact, ok := b.rp.Bound()
		if ok && cb < nb {
			nb = cb
		}
		leaf := b.rp.Depth() == b.q
		switch {
		case b.core.prunable(nb):
			b.pruned++
		case leaf:
			b.leaves++
			rho := cb
			if !(ok && exact) {
				var err error
				if rho, err = b.rp.LeafThroughput(); err != nil {
					b.rp.Pop()
					return err
				}
			}
			b.core.offer(rho, b.send, b.rp.ReturnOrder())
		default:
			b.nodes++
			if err := b.searchNode(nb); err != nil {
				b.rp.Pop()
				return err
			}
		}
		b.rp.Pop()
	}
	return nil
}

// seedPairIncumbent batch-evaluates the FIFO and LIFO scenarios of every
// send permutation in enumeration order (the structure-of-arrays chains
// run 8 permutations per lockstep chunk) and raises the incumbent to the
// best certified seed before any exploration starts: every seed is an
// achieved throughput of a scenario inside the search space, so the very
// first send order's bound is already checked against a near-optimal
// incumbent. Lanes whose chain certificate fails simply contribute no seed
// — the exploration covers those return orders anyway, so seeding never
// affects the search result, only how early the bounds allow pruning. The
// enumeration polls ctx so a deadline cannot hide inside the seeding
// phase.
func seedPairIncumbent(ctx context.Context, core *searchCore, p *platform.Platform, model schedule.Model, n int, enabled bool) error {
	if !enabled {
		return nil
	}
	fifo, err := eval.NewBatch(model, false, n)
	if err != nil {
		return err
	}
	lifo, err := eval.NewBatch(model, true, n)
	if err != nil {
		return err
	}
	iter := 0
	err = forEachPermutation(n, func(perm []int, _ int) error {
		if iter&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		iter++
		if err := fifo.Add(p, perm); err != nil {
			return err
		}
		return lifo.Add(p, perm)
	})
	if err != nil {
		return err
	}
	fifo.Run()
	lifo.Run()
	for k := 0; k < fifo.Len(); k++ {
		if rho, ok := fifo.Throughput(k); ok && rho > core.bestRho {
			sc := fifo.Scenario(k)
			core.offer(rho, sc.Send, sc.Send)
		}
		if rho, ok := lifo.Throughput(k); ok && rho > core.bestRho {
			sc := lifo.Scenario(k)
			core.offer(rho, sc.Send, sc.Send.Reverse())
		}
	}
	return nil
}
