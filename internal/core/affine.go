package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file extends the scenario linear programs to the affine cost model
// discussed in the paper's related-work section: each message pays a fixed
// start-up latency on top of the linear term, and each enrolled worker may
// pay a fixed computation overhead,
//
//	send to Pi:    Lin_i  + α_i·c_i
//	compute on Pi: O_i    + α_i·w_i
//	return from Pi: Lout_i + α_i·d_i.
//
// With the orders fixed the program remains the paper's linear one with
// other right-hand sides: affineRHS lowers each row's horizon by the fixed
// costs it carries, and eval.BuildLP, the one writer of the Section 2.3
// rows, builds the program. Resource selection becomes the hard part: an
// enrolled worker consumes its latencies even with α = 0, and the paper
// cites Legrand, Yang and Casanova for the NP-hardness of the affine
// star problem. BestFIFOAffineContext therefore enumerates participant
// subsets.

// Affine holds the per-worker fixed costs of the affine model, aligned
// with the platform's worker indices. Zero values reduce the model to the
// paper's linear one.
type Affine struct {
	// In is the start-up latency of the initial (master→worker) message.
	In []float64
	// Out is the start-up latency of the result (worker→master) message.
	Out []float64
	// Comp is the fixed computation overhead.
	Comp []float64
}

// ZeroAffine returns an all-zero affine extension for p workers.
func ZeroAffine(p int) Affine {
	return Affine{In: make([]float64, p), Out: make([]float64, p), Comp: make([]float64, p)}
}

// validate checks dimensions and signs against a platform.
func (a Affine) validate(p *platform.Platform) error {
	n := p.P()
	if len(a.In) != n || len(a.Out) != n || len(a.Comp) != n {
		return fmt.Errorf("core: affine extension has (%d, %d, %d) entries for %d workers",
			len(a.In), len(a.Out), len(a.Comp), n)
	}
	for i := 0; i < n; i++ {
		for _, v := range []float64{a.In[i], a.Out[i], a.Comp[i]} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: affine cost %g of worker %d must be finite and >= 0", v, i)
			}
		}
	}
	return nil
}

// ScenarioLPAffine builds the affine-model linear program for a fixed
// scenario: eval's scenario program with the fixed costs moved to the
// right-hand sides. The enrolled set is exactly the workers in send; their
// fixed costs are charged whether or not the optimal α is positive.
func ScenarioLPAffine(p *platform.Platform, aff Affine, send, ret platform.Order, model schedule.Model) (*lp.Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := aff.validate(p); err != nil {
		return nil, err
	}
	if err := eval.ValidOrderPair(p.P(), send, ret); err != nil {
		return nil, err
	}
	if model != schedule.OnePort && model != schedule.TwoPort {
		return nil, fmt.Errorf("core: unknown model %v", model)
	}
	sc := eval.Scenario{Platform: p, Send: send, Return: ret, Model: model}
	return eval.BuildLP(sc, affineRHS(make([]float64, len(send)+2), aff, sc, nil), true), nil
}

// affineRHS fills rhs with the right-hand sides the fixed costs leave on
// the scenario's rows, in eval.BuildLP's layout: each row's horizon 1 less
// the latencies and overhead it carries. charged selects the workers whose
// fixed costs are billed; nil bills every enrolled worker.
func affineRHS(rhs []float64, aff Affine, sc eval.Scenario, charged []bool) []float64 {
	send, ret := sc.Send, sc.Return
	bill := func(i int) bool { return charged == nil || charged[i] }
	for s, i := range send {
		fixed := 0.0
		if bill(i) {
			fixed = aff.Comp[i]
		}
		for _, j := range send[:s+1] {
			if bill(j) {
				fixed += aff.In[j]
			}
		}
		r := 0
		for ret[r] != i {
			r++
		}
		for _, j := range ret[r:] {
			if bill(j) {
				fixed += aff.Out[j]
			}
		}
		rhs[s] = 1 - fixed
	}
	q := len(send)
	if sc.Model == schedule.OnePort {
		fixed := 0.0
		for _, j := range send {
			if bill(j) {
				fixed += aff.In[j] + aff.Out[j]
			}
		}
		rhs[q] = 1 - fixed
		return rhs
	}
	fixedIn, fixedOut := 0.0, 0.0
	for _, j := range send {
		if bill(j) {
			fixedIn += aff.In[j]
			fixedOut += aff.Out[j]
		}
	}
	rhs[q], rhs[q+1] = 1-fixedIn, 1-fixedOut
	return rhs
}

// AffineResult is the outcome of an affine-model solve: the loads and
// throughput of one scenario. No Schedule is produced because the canonical
// timeline of package schedule is linear-model only.
type AffineResult struct {
	// Send and Return are the scenario orders (enrolled workers only).
	Send, Return platform.Order
	// Alpha are the optimal loads, indexed like the platform workers.
	Alpha []float64
	// Throughput is Σα for horizon 1.
	Throughput float64
	// Feasible is false when the fixed costs alone exceed the horizon, in
	// which case the scenario can process no load at all.
	Feasible bool
}

// SolveScenarioAffine computes the optimal loads of an affine-model
// scenario. Unlike the linear model, zero-α workers are NOT pruned: their
// fixed costs have already been charged by enrolling them, so the caller
// (and BestFIFOAffineContext) must treat the enrolled set as given.
func SolveScenarioAffine(p *platform.Platform, aff Affine, send, ret platform.Order, model schedule.Model, arith Arith) (*AffineResult, error) {
	prob, err := ScenarioLPAffine(p, aff, send, ret, model)
	if err != nil {
		return nil, err
	}
	x, rho, feasible, err := solveAffine(prob, arith)
	if err != nil {
		return nil, err
	}
	res := &AffineResult{Send: send.Clone(), Return: ret.Clone(), Alpha: make([]float64, p.P())}
	if !feasible {
		// The fixed costs alone exceed the horizon.
		return res, nil
	}
	res.Feasible = true
	res.Throughput = rho
	for k, i := range send {
		if x[k] > 0 {
			res.Alpha[i] = x[k]
		}
	}
	return res, nil
}

// solveAffine solves an affine scenario LP under arith and returns its
// loads and throughput Σ x[k]>0, the value every search comparison and the
// winner's final re-solve report. feasible is false when the fixed costs
// alone exceed the horizon.
func solveAffine(prob *lp.Problem, arith Arith) (x []float64, rho float64, feasible bool, err error) {
	var status lp.Status
	switch arith {
	case Float64:
		sol, err := prob.Solve()
		if err != nil {
			return nil, 0, false, err
		}
		status, x = sol.Status, sol.X
	case Exact:
		sol, err := prob.SolveExact()
		if err != nil {
			return nil, 0, false, err
		}
		status = sol.Status
		if status == lp.Optimal {
			_, x = sol.Float()
		}
	default:
		return nil, 0, false, fmt.Errorf("core: unknown arithmetic %v", arith)
	}
	if status == lp.Infeasible {
		return nil, 0, false, nil
	}
	if status != lp.Optimal {
		return nil, 0, false, fmt.Errorf("core: affine scenario LP terminated %v (internal error)", status)
	}
	for _, v := range x {
		if v > 0 {
			rho += v
		}
	}
	return x, rho, true, nil
}

// maxAffineSubsets bounds the 2^p subset search of BestFIFOAffineContext.
// The cap rose from 16 to 20 when the branch-and-bound lattice search
// replaced the flat mask loop: the drop-the-fixed-costs bound prunes whole
// half-lattices, so the explored subset count stays far below 2^p on
// float64 backends.
// Exact-rational searches still run the unpruned flat loop (float bounds
// cannot certify exact comparisons) and pay the full 2^p exact solves.
const maxAffineSubsets = 20

// AffineAlgo selects how BestFIFOAffineContext explores the
// participant-subset lattice.
type AffineAlgo int

const (
	// AffineAuto picks the branch-and-bound lattice search for float64
	// arithmetic and the flat subset loop under Exact (whose exact
	// comparisons the float64 bounds cannot certify).
	AffineAuto AffineAlgo = iota
	// AffineBB forces the branch-and-bound over include/exclude decisions.
	AffineBB
	// AffineFlat forces the flat 2^p mask loop (the original search,
	// retained for agreement testing and as the exact-arithmetic path).
	AffineFlat
)

// String names the algorithm ("auto", "bb", "flat").
func (a AffineAlgo) String() string {
	switch a {
	case AffineAuto:
		return "auto"
	case AffineBB:
		return "bb"
	case AffineFlat:
		return "flat"
	default:
		return fmt.Sprintf("AffineAlgo(%d)", int(a))
	}
}

// AffineStats is a snapshot of the affine subset searches' cumulative
// instrumentation, kept as process-global atomics like PairStats (searches
// may run concurrently; each worker accumulates locally and flushes once).
// The counters make the lattice branch-and-bound's effectiveness
// observable — the bench CI job fails if the pruned fraction collapses on
// the reference platform.
type AffineStats struct {
	// NodesExpanded counts interior lattice nodes whose include/exclude
	// children were generated.
	NodesExpanded uint64
	// SubtreesPruned counts exclude-edges (and bound-inheriting interior
	// nodes) cut against the incumbent — whole half-lattices of subsets
	// discarded without evaluation.
	SubtreesPruned uint64
	// LeavesEvaluated counts complete subsets whose scenario LP was
	// actually solved. The flat loop counts every non-empty mask here.
	LeavesEvaluated uint64
	// BoundSolves counts relaxation LPs solved on exclude edges.
	BoundSolves uint64
}

// affineCounters holds the AffineStats counters as atomics: one
// process-global set behind AffineStatsSnapshot and one per search, which
// its traced span annotates (see pairCounters).
type affineCounters struct {
	nodes, pruned, leaves, boundSolves atomic.Uint64
}

var affineTotals affineCounters

func (c *affineCounters) snapshot() AffineStats {
	return AffineStats{
		NodesExpanded:   c.nodes.Load(),
		SubtreesPruned:  c.pruned.Load(),
		LeavesEvaluated: c.leaves.Load(),
		BoundSolves:     c.boundSolves.Load(),
	}
}

// add flushes one worker's local counts into the global and the
// per-search counters.
func (c *affineCounters) add(nodes, pruned, leaves, boundSolves uint64) {
	for _, t := range [...]*affineCounters{&affineTotals, c} {
		t.nodes.Add(nodes)
		t.pruned.Add(pruned)
		t.leaves.Add(leaves)
		t.boundSolves.Add(boundSolves)
	}
}

// AffineStatsSnapshot returns the cumulative affine-search counters.
// Callers interested in one search subtract two snapshots.
func AffineStatsSnapshot() AffineStats { return affineTotals.snapshot() }

// BestFIFOAffineContext searches for the best one-port FIFO schedule under
// the affine model: workers are kept in non-decreasing-c order (the linear
// model's Theorem 1 order, a heuristic here) and the participant subsets
// are searched exhaustively, since with fixed costs the optimal enrolled
// set is no longer given by the LP's support — the problem the paper cites
// as NP-hard. Limited to p ≤ 20. It honours cancellation and — through
// ContextWithSearchParallelism — runs a parallel lattice search, with
// AffineAuto: branch-and-bound for float64, the flat loop for Exact.
func BestFIFOAffineContext(ctx context.Context, p *platform.Platform, aff Affine, arith Arith) (*AffineResult, error) {
	return BestFIFOAffineAlgo(ctx, p, aff, arith, AffineAuto)
}

// BestFIFOAffineAlgo is BestFIFOAffineContext with an explicit search
// algorithm, for agreement tests and benchmarks. Both algorithms share the
// scenario LP formulation and the (throughput, lex-min order) tie rule, so
// they return byte-identical winners.
func BestFIFOAffineAlgo(ctx context.Context, p *platform.Platform, aff Affine, arith Arith, algo AffineAlgo) (*AffineResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := aff.validate(p); err != nil {
		return nil, err
	}
	n := p.P()
	if n > maxAffineSubsets {
		return nil, fmt.Errorf("core: affine subset search limited to %d workers, platform has %d", maxAffineSubsets, n)
	}
	switch algo {
	case AffineAuto:
		if arith == Exact {
			algo = AffineFlat
		} else {
			algo = AffineBB
		}
	case AffineBB:
		if arith == Exact {
			return nil, fmt.Errorf("core: affine branch-and-bound needs float64 arithmetic (float bounds cannot certify exact comparisons)")
		}
	case AffineFlat:
		// Always available.
	default:
		return nil, fmt.Errorf("core: unknown affine-search algorithm %v", algo)
	}
	winner := newSearchCore(ctx)
	sorted := p.ByC()
	traced := obs.Enabled(ctx)
	t0 := obs.Now(ctx)
	var counts affineCounters
	pool := poolRun{workers: 1}
	var err error
	if algo == AffineBB {
		pool, err = affineSearchBB(ctx, winner, p, aff, sorted, &counts)
	} else {
		err = affineSearchFlat(winner, p, aff, arith, sorted, &counts)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		st := counts.snapshot()
		obs.StageAt(ctx, 1, "search", t0, obs.Now(ctx),
			obs.String("kind", "affine-subset"),
			obs.String("algo", algo.String()),
			obs.Int("workers", pool.workers),
			obs.Int("helpers_retired", pool.retired),
			obs.Uint64("nodes", st.NodesExpanded),
			obs.Uint64("pruned", st.SubtreesPruned),
			obs.Uint64("leaves", st.LeavesEvaluated),
			obs.Uint64("bound_solves", st.BoundSolves))
	}
	if len(winner.best) == 0 {
		// Even single workers cannot start within the horizon.
		return &AffineResult{Alpha: make([]float64, n)}, nil
	}
	return SolveScenarioAffine(p, aff, winner.best, winner.best, schedule.OnePort, arith)
}

// affineOnePortLP builds the one-port FIFO affine LP over the candidate
// order without diagnostic names. charged selects the workers whose fixed
// costs are billed: nil bills every candidate — the exact scenario LP of
// the subset — while the branch-and-bound bills only the already-included
// workers, leaving the undecided candidates' linear terms free. That
// relaxation is an upper bound over every completion S of the included
// set: extending S's optimum by zeros satisfies each candidate row
// (undecided rows charge no fixed cost, so their RHS dominates the
// one-port row S satisfies), and included rows only gain RHS as fixed
// costs are dropped.
func affineOnePortLP(p *platform.Platform, aff Affine, order platform.Order, charged []bool) *lp.Problem {
	var rhs [maxAffineSubsets + 1]float64
	sc := eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}
	return eval.BuildLP(sc, affineRHS(rhs[:], aff, sc, charged), false)
}

// affineSearchFlat is the flat 2^p loop: every non-empty mask ascending,
// one scenario LP each, feasible results offered to the core under the
// shared tie rule. The order scratch is reused across masks and the
// context is polled on the core's throttled counter.
func affineSearchFlat(core *searchCore, p *platform.Platform, aff Affine, arith Arith, sorted platform.Order, counts *affineCounters) error {
	n := p.P()
	order := make(platform.Order, 0, n)
	var leaves uint64
	defer func() { counts.add(0, 0, leaves, 0) }()
	for mask := 1; mask < 1<<n; mask++ {
		if err := core.poll(); err != nil {
			return err
		}
		order = order[:0]
		for _, i := range sorted {
			if mask&(1<<i) != 0 {
				order = append(order, i)
			}
		}
		_, rho, feasible, err := solveAffine(affineOnePortLP(p, aff, order, nil), arith)
		if err != nil {
			return err
		}
		leaves++
		if feasible {
			core.offer(rho, order, nil)
		}
	}
	return nil
}

// affineSearchBB drives the lattice branch-and-bound over the
// work-stealing pool: the include/exclude decisions of the first depth
// workers (in c order) index 2^depth prefix tasks dealt to the workers by
// rank; each worker replays its rank's decisions — recomputing the
// exclude-edge bounds, so a hopeless prefix is dropped without descending —
// and then recurses include-first below the prefix, pruning against the
// shared incumbent. Counter flushes happen once per worker. The prefix
// depth follows the worker cap, not how many workers the budget lets
// start, so a search's task split never depends on the process's load.
func affineSearchBB(ctx context.Context, winner *searchCore, p *platform.Platform, aff Affine, sorted platform.Order, counts *affineCounters) (poolRun, error) {
	n := len(sorted)
	depth := 0
	for depth < n-1 && 1<<depth < 4*searchParallelism(ctx) {
		depth++
	}
	total := int64(1) << depth
	run := func(core *searchCore, next func() (int64, bool)) error {
		bb := &affineBB{
			core: core, p: p, aff: aff, sorted: sorted, n: n, counts: counts,
			included: make(platform.Order, 0, n),
			cand:     make(platform.Order, 0, n),
			charged:  make([]bool, p.P()),
		}
		defer bb.flush()
		for {
			rank, ok := next()
			if !ok {
				return nil
			}
			if err := bb.searchPrefix(rank, depth); err != nil {
				return err
			}
		}
	}
	return runStealingPool(ctx, winner, total, run)
}

// affineBB is one worker's branch-and-bound state: the shared search core,
// the live include stack, bound scratch, and locally accumulated counters
// (flushed once per worker into the global atomics and the search's own
// counts).
type affineBB struct {
	core   *searchCore
	p      *platform.Platform
	aff    Affine
	sorted platform.Order
	n      int

	included platform.Order // live include stack, a subsequence of sorted
	cand     platform.Order // bound scratch: included ++ undecided tail
	charged  []bool         // bound scratch, indexed by worker
	counts   *affineCounters

	nodes, pruned, leaves, boundSolves uint64
}

func (b *affineBB) flush() { b.counts.add(b.nodes, b.pruned, b.leaves, b.boundSolves) }

// searchPrefix replays rank's include (bit 0) / exclude (bit 1) decisions
// for the first depth workers, then recurses below. Exclude decisions
// recompute the completion bound exactly like the recursion would, so a
// rank whose prefix is already hopeless against the incumbent is dropped
// here — each surviving rank enters dfs with the tightest bound seen on
// its path.
func (b *affineBB) searchPrefix(rank int64, depth int) error {
	if err := b.core.poll(); err != nil {
		return err
	}
	b.included = b.included[:0]
	bound := math.Inf(1)
	for t := 0; t < depth; t++ {
		if rank&(1<<uint(t)) == 0 {
			b.included = append(b.included, b.sorted[t])
			continue
		}
		nb, feasible, err := b.bound(t + 1)
		if err != nil {
			return err
		}
		if nb > bound {
			nb = bound
		}
		if !feasible || b.core.prunable(nb) {
			b.pruned++
			return nil
		}
		bound = nb
	}
	return b.dfs(depth, bound)
}

// dfs explores the lattice below the current include stack. The include
// child inherits the parent bound unchanged (its completions are a subset
// of the parent's, and the charged set only grows, so the parent's
// relaxation still dominates); only exclude edges — where the candidate
// set actually shrinks — pay a bound LP, capped at the parent bound so the
// path bound is monotone under float noise. An infeasible bound proves
// every completion infeasible and prunes the subtree outright.
func (b *affineBB) dfs(depth int, parentBound float64) error {
	if err := b.core.poll(); err != nil {
		return err
	}
	if b.core.prunable(parentBound) {
		b.pruned++
		return nil
	}
	if depth == b.n {
		if len(b.included) == 0 {
			return nil
		}
		b.leaves++
		_, rho, feasible, err := solveAffine(affineOnePortLP(b.p, b.aff, b.included, nil), Float64)
		if err != nil {
			return err
		}
		if feasible {
			b.core.offer(rho, b.included, nil)
		}
		return nil
	}
	b.nodes++
	b.included = append(b.included, b.sorted[depth])
	if err := b.dfs(depth+1, parentBound); err != nil {
		return err
	}
	b.included = b.included[:len(b.included)-1]
	bound, feasible, err := b.bound(depth + 1)
	if err != nil {
		return err
	}
	if bound > parentBound {
		bound = parentBound
	}
	if !feasible || b.core.prunable(bound) {
		b.pruned++
		return nil
	}
	return b.dfs(depth+1, bound)
}

// bound solves the exclude-edge relaxation: the affine LP over the
// included workers plus every undecided worker from position from on,
// charging only the included workers' fixed costs (see affineOnePortLP for
// the admissibility argument). An empty candidate set means the only
// completion is the empty subset, which the search skips anyway.
func (b *affineBB) bound(from int) (float64, bool, error) {
	b.cand = append(b.cand[:0], b.included...)
	b.cand = append(b.cand, b.sorted[from:]...)
	if len(b.cand) == 0 {
		return 0, false, nil
	}
	b.boundSolves++
	for i := range b.charged {
		b.charged[i] = false
	}
	for _, i := range b.included {
		b.charged[i] = true
	}
	sol, err := affineOnePortLP(b.p, b.aff, b.cand, b.charged).Solve()
	if err != nil {
		return 0, false, err
	}
	if sol.Status == lp.Infeasible {
		return 0, false, nil
	}
	if sol.Status != lp.Optimal {
		return 0, false, fmt.Errorf("core: affine bound LP terminated %v (internal error)", sol.Status)
	}
	return sol.Objective, true, nil
}
