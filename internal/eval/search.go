package eval

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the eval-layer state of the branch-and-bound search
// over return orders: the pair search fixes a send order σ1 and explores
// the space of return orders σ2 as a tree, committing one worker at a time
// to the DEEPEST open return position (the last returner first, then the
// second-to-last, ...). A ReturnPrefix maintains, across Push/Pop moves of
// that exploration, the q×q matrix of the node's prefix relaxation:
//
//   - a committed worker's constraint row is EXACT — every worker returning
//     at or after it is committed too (the committed set is a suffix of σ2),
//     so its return-message terms are fully determined;
//   - an uncommitted worker's row keeps the send prefix, its own w and d,
//     and the d terms of every committed worker (all of which provably
//     return after it) — a valid relaxation of its row under ANY completion
//     of the prefix, since completions only add d terms of other
//     uncommitted workers to the left-hand side.
//
// The relaxation therefore contains every completion's feasible region, so
// its optimal throughput is an admissible upper bound on the subtree (an
// admissible LOWER bound on the subtree's makespan, the branch-and-bound
// view): the search can discard a whole subtree of return orders the
// moment the bound cannot beat the incumbent. Committing one more worker
// only adds d terms to the uncommitted rows and leaves the newly committed
// row unchanged, so the bound is monotone non-increasing along a root-leaf
// path, and at a leaf (all workers committed) the relaxation IS the
// scenario's all-tight system — the bound collapses to the exact optimum
// whenever the tight candidate certifies, making most leaf evaluations
// free.
//
// With nothing committed the relaxation is the send-order relaxation
// (each row keeps only the send prefix, w and the worker's own d; the
// tests pin it against that LP), solved through the tight-system
// machinery instead of a fresh simplex per send order: the root system is
// lower triangular (a LIFO-shaped chain), deeper systems are one LU
// factorisation, and the transpose solve reuses the cached-dual
// certificate logic — any non-negative dual vector of the relaxation
// bounds the subtree by weak duality even when the primal candidate is
// infeasible.

// ReturnPrefix is the per-σ1 state of the return-order branch-and-bound.
// It owns its matrix and factorisation scratch (no aliasing with the
// Session buffers used by the leaf fallback), and is reused across send
// orders via Reset. Not safe for concurrent use.
type ReturnPrefix struct {
	sess  *Session
	p     *platform.Platform
	model schedule.Model
	mode  Mode
	q     int

	send platform.Order // fixed σ1 (copied by Reset)

	r     []float64 // q×q relaxed tight matrix of the current node
	base  []float64 // Reset-time matrix (the exact Pop restore target)
	lu    []float64 // factorisation scratch (copy of r, clobbered)
	piv   []int
	alpha []float64 // primal candidate of the relaxation
	lam   []float64 // dual candidate (transpose solve)

	// Incremental factorisation state (see Bound): the maintained inverse
	// M ≈ r⁻¹, its row sums α̃ = M·1 and column sums λ̃ = Mᵀ·1, all kept
	// current across Push/Pop by Sherman–Morrison rank-one updates. The
	// update to M itself is LAZY: a Push computes the rank-one factors
	// (y = M·c, δ) and updates only the O(q) candidate vectors; M absorbs
	// the factors (materialize) only when the child is expanded further.
	// The pair search bounds most children without pushing them at all
	// (ChildBounds reads them off the parent's M), so the lazy update now
	// pays off on the pushed children the search then prunes or scores as
	// leaves, and on push-bound-pop walks that skip the screen.
	m             []float64
	malpha, mlam  []float64
	my, mrow      []float64 // rank-one update scratch
	mcIdx         []int     // support of the column change (the open rows ≠ pos); ChildBounds' open list
	mcD           float64   // its uniform value: +d on Push, −d on Pop
	mValid        bool      // α̃ and λ̃ belong to the current node matrix
	mInv          bool      // so does M (refactor leaves it to ensureInverse)
	incremental   bool
	sinceRefactor int

	// Per-depth lazy-update stacks, indexed by the tail level a Push
	// created: the rank-one factors (y, δ) and the parent's candidate
	// vectors, restored on Pop in O(q). msavedOK marks levels whose stack
	// entries are live; mmat marks levels whose factors were materialised
	// into M (their Pop reverses the update via M += y·(δ·M[pos,:])/δ,
	// using M'[pos,:] = M[pos,:]/δ). mPending is the single level (at most
	// one, the deepest) whose factors are not yet in M, or -1.
	myStack          [][]float64
	msavedA, msavedL [][]float64
	mden             []float64
	msavedOK, mmat   []bool
	mPending         int

	// Dual-descent scratch (the bound-tightening loop of Bound).
	rows   []int     // active dual rows
	sub    []float64 // row/column-restricted system
	subLam []float64 // multipliers of the restricted system
	full   []float64 // restricted multipliers scattered back to all rows

	tail []int  // committed send positions, deepest return slot first
	open []bool // by send position: not yet committed
	ret  []int  // scratch: materialised return order (worker indices)
}

// NewReturnPrefix prepares a return-order branch-and-bound state for
// repeated use over send orders of the full platform (Reset fixes each
// σ1). Under ExactRational the float64 tight-system bounds cannot certify
// exact comparisons, so Bound never reports one and LeafThroughput solves
// every leaf's LP in rational arithmetic: the search prunes nothing.
func (s *Session) NewReturnPrefix(p *platform.Platform, model schedule.Model, mode Mode) (*ReturnPrefix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if model != schedule.OnePort && model != schedule.TwoPort {
		return nil, fmt.Errorf("eval: unknown model %v", model)
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("eval: unknown mode %d", int(mode))
	}
	q := p.P()
	stack := func() [][]float64 {
		backing := make([]float64, q*q)
		s := make([][]float64, q)
		for i := range s {
			s[i] = backing[i*q : (i+1)*q]
		}
		return s
	}
	return &ReturnPrefix{
		sess: s, p: p, model: model, mode: mode, q: q,
		send:        make(platform.Order, q),
		r:           make([]float64, q*q),
		base:        make([]float64, q*q),
		lu:          make([]float64, q*q),
		piv:         make([]int, q),
		alpha:       make([]float64, q),
		lam:         make([]float64, q),
		m:           make([]float64, q*q),
		malpha:      make([]float64, q),
		mlam:        make([]float64, q),
		mcIdx:       make([]int, 0, q),
		my:          make([]float64, q),
		mrow:        make([]float64, q),
		myStack:     stack(),
		msavedA:     stack(),
		msavedL:     stack(),
		mden:        make([]float64, q),
		msavedOK:    make([]bool, q),
		mmat:        make([]bool, q),
		mPending:    -1,
		rows:        make([]int, q),
		sub:         make([]float64, q*q),
		subLam:      make([]float64, q),
		full:        make([]float64, q),
		tail:        make([]int, 0, q),
		open:        make([]bool, q),
		ret:         make([]int, q),
		incremental: true,
	}, nil
}

// SetIncremental toggles the Sherman–Morrison update path of Bound
// (default on). Off, every Bound factorises the node matrix from scratch —
// the reference the update-vs-refactor agreement test and the
// node-throughput benchmark compare against.
func (rp *ReturnPrefix) SetIncremental(on bool) {
	rp.incremental = on
	rp.mValid = false
}

// Reset fixes a new send order (copied; the branch-and-bound drivers pass
// the live permutation slice of the enumeration) and empties the committed
// tail. The root relaxation matrix — send-prefix c terms, diagonal w + d —
// is rebuilt in O(q²).
func (rp *ReturnPrefix) Reset(send platform.Order) error {
	if len(send) != rp.q {
		return fmt.Errorf("eval: return-prefix search enrolls all %d workers, got a %d-worker send order", rp.q, len(send))
	}
	copy(rp.send, send)
	buildTightBase(rp.r, rp.p, rp.send)
	for s := 0; s < rp.q; s++ {
		rp.r[s*rp.q+s] += rp.p.Workers[rp.send[s]].D
		rp.open[s] = true
	}
	copy(rp.base, rp.r)
	rp.tail = rp.tail[:0]
	rp.mValid = false // lazily refactorised by the first Bound
	rp.mPending = -1
	return nil
}

// Depth returns the number of committed return positions.
func (rp *ReturnPrefix) Depth() int { return len(rp.tail) }

// Open reports whether the worker at send position pos is still
// uncommitted.
func (rp *ReturnPrefix) Open(pos int) bool { return rp.open[pos] }

// Push commits the worker at send position pos to the deepest open return
// position. Its own row is already exact (it carries its own d and every
// previously committed worker's d); the other uncommitted rows each gain
// its d term, since that worker now provably returns after them. The
// column change is mirrored into the maintained bound state as a lazy
// Sherman–Morrison rank-one update (see pushUpdate), so the whole move is
// O(q²) with a small constant — one M·c product.
func (rp *ReturnPrefix) Push(pos int) {
	rp.ensureInverse()
	d := rp.p.Workers[rp.send[pos]].D
	q := rp.q
	rp.mcIdx = rp.mcIdx[:0]
	for s := 0; s < q; s++ {
		if rp.open[s] && s != pos {
			rp.r[s*q+pos] += d
			rp.mcIdx = append(rp.mcIdx, s)
		}
	}
	// The update path treats the column change as the uniform d on the
	// support rows. The true applied deltas differ by at most one rounding
	// each ((x+d)−x ≠ d in general) — an O(ε) perturbation of M, far below
	// mResidTol and absorbed by the residual-gated refine/refactor cycle.
	rp.mcD = d
	rp.open[pos] = false
	rp.tail = append(rp.tail, pos)
	rp.pushUpdate(pos)
}

// Pop undoes the deepest Push by restoring column pos from the Reset-time
// base matrix rather than subtracting d: float addition is not exactly
// reversible ((x+d)−d ≠ x in general), but an open row's entry in an open
// column ALWAYS equals its base value — only committed columns carry
// d terms — so the assignment is the exact inverse and the node matrix
// stays a pure function of the committed prefix, independent of the
// exploration path that reached it. That purity is what makes leaf values
// (and with them the search winner) byte-identical across serial and
// parallel exploration.
func (rp *ReturnPrefix) Pop() {
	rp.ensureInverse()
	n := len(rp.tail) - 1
	pos := rp.tail[n]
	rp.tail = rp.tail[:n]
	rp.open[pos] = true
	q := rp.q
	rp.mcIdx = rp.mcIdx[:0]
	for s := 0; s < q; s++ {
		if rp.open[s] && s != pos {
			idx := s*q + pos
			rp.r[idx] = rp.base[idx]
			rp.mcIdx = append(rp.mcIdx, s)
		}
	}
	rp.mcD = -rp.p.Workers[rp.send[pos]].D
	rp.popUpdate(pos, n)
}

// pushUpdate records the rank-one change of the Push that just committed
// level len(tail)-1: it computes the Sherman–Morrison factors y = M·c and
// δ = 1 + y[pos], saves the parent's candidate vectors, and applies the
// O(q) vector updates
//
//	α̃' = α̃ − y·α̃[pos]/δ,   λ̃' = λ̃ − (Σy)·M[pos,:]/δ,
//
// but does NOT touch M: the factors wait on the level's stack entry and
// are folded into M (materialize) only if a deeper Push needs them. At
// most one level is ever pending — the deepest.
func (rp *ReturnPrefix) pushUpdate(pos int) {
	level := len(rp.tail) - 1
	if !rp.incremental || !rp.mValid {
		rp.msavedOK[level] = false
		return
	}
	if rp.mPending >= 0 {
		rp.materialize()
	}
	q := rp.q
	y := rp.myStack[level]
	d := rp.mcD
	idx := rp.mcIdx
	ysum := 0.0
	for i := 0; i < q; i++ {
		mi := rp.m[i*q : (i+1)*q]
		s := 0.0
		for _, j := range idx {
			s += mi[j]
		}
		s *= d
		y[i] = s
		ysum += s
	}
	den := 1 + y[pos]
	if math.IsNaN(den) || math.Abs(den) < 1e-12 {
		rp.mValid = false
		rp.msavedOK[level] = false
		return
	}
	copy(rp.msavedA[level], rp.malpha)
	copy(rp.msavedL[level], rp.mlam)
	f := rp.malpha[pos] / den
	for i := 0; i < q; i++ {
		rp.malpha[i] -= y[i] * f
	}
	g := ysum / den
	row := rp.m[pos*q : (pos+1)*q] // pre-update row: M is not yet materialised
	for j := 0; j < q; j++ {
		rp.mlam[j] -= g * row[j]
	}
	rp.mden[level] = den
	rp.msavedOK[level] = true
	rp.mmat[level] = false
	rp.mPending = level
}

// materialize folds the pending level's rank-one factors into M:
// M' = M − (y/δ)·M[pos,:].
func (rp *ReturnPrefix) materialize() {
	level := rp.mPending
	rp.mPending = -1
	q := rp.q
	y := rp.myStack[level]
	den := rp.mden[level]
	pos := rp.tail[level]
	row := rp.mrow
	copy(row, rp.m[pos*q:(pos+1)*q])
	for i := 0; i < q; i++ {
		f := y[i] / den
		if f == 0 {
			continue
		}
		mi := rp.m[i*q : (i+1)*q]
		for j := 0; j < q; j++ {
			mi[j] -= f * row[j]
		}
	}
	rp.mmat[level] = true
}

// popUpdate undoes level's pushUpdate. With a live stack entry the
// parent's candidate vectors restore by copy; M needs work only if the
// level's factors were materialised, and then the reverse update is free
// of new M·c products: from M' = M − (y/δ)·row with row = M[pos,:] comes
// M'[pos,:] = row/δ, so M = M' + y·M'[pos,:]. Levels without a live entry
// (pushed while invalid, or crossed by a refactor) fall back to the
// generic column update against the already-restored parent matrix.
func (rp *ReturnPrefix) popUpdate(pos, level int) {
	if !rp.incremental || !rp.mValid {
		return
	}
	if !rp.msavedOK[level] {
		rp.mColumnUpdate(pos)
		return
	}
	rp.msavedOK[level] = false
	if rp.mPending == level {
		rp.mPending = -1
	} else if rp.mmat[level] {
		q := rp.q
		y := rp.myStack[level]
		row := rp.mrow
		copy(row, rp.m[pos*q:(pos+1)*q])
		for i := 0; i < q; i++ {
			f := y[i]
			if f == 0 {
				continue
			}
			mi := rp.m[i*q : (i+1)*q]
			for j := 0; j < q; j++ {
				mi[j] += f * row[j]
			}
		}
	}
	copy(rp.malpha, rp.msavedA[level])
	copy(rp.mlam, rp.msavedL[level])
}

// mColumnUpdate folds the column change c = mcD·1_mcIdx (support: open rows,
// already applied to rp.r at column pos) into the maintained inverse by
// the Sherman–Morrison identity
//
//	(A + c·e_posᵀ)⁻¹ = M − (M·c)(e_posᵀ·M)/(1 + (M·c)_pos),
//
// updating the row sums α̃ and column sums λ̃ from the same rank-one
// factors in O(q). A vanishing denominator means the updated matrix is
// (numerically) singular through this update; the state is marked invalid
// and the next Bound refactorises from scratch.
func (rp *ReturnPrefix) mColumnUpdate(pos int) {
	if !rp.incremental || !rp.mValid {
		return
	}
	q := rp.q
	y := rp.my
	d := rp.mcD
	idx := rp.mcIdx
	ysum := 0.0
	for i := 0; i < q; i++ {
		mi := rp.m[i*q : (i+1)*q]
		s := 0.0
		for _, j := range idx {
			s += mi[j]
		}
		s *= d
		y[i] = s
		ysum += s
	}
	den := 1 + y[pos]
	if math.IsNaN(den) || math.Abs(den) < 1e-12 {
		rp.mValid = false
		return
	}
	row := rp.mrow
	copy(row, rp.m[pos*q:(pos+1)*q])
	apos := rp.malpha[pos]
	for i := 0; i < q; i++ {
		f := y[i] / den
		if f == 0 {
			continue
		}
		mi := rp.m[i*q : (i+1)*q]
		for j := 0; j < q; j++ {
			mi[j] -= f * row[j]
		}
		rp.malpha[i] -= f * apos
	}
	f := ysum / den
	for j := 0; j < q; j++ {
		rp.mlam[j] -= f * row[j]
	}
}

// refactorPeriod caps how many incremental Bound evaluations may ride one
// factorisation before a fresh one is forced, bounding inverse drift even
// when every periodic residual check passes.
const refactorPeriod = 256

// refineStride is the cadence (in Bound calls, a power of two) of the
// residual-checked refinement pass: between passes the maintained
// candidates are used as the rank-one updates left them. The stride
// bounds raw Sherman–Morrison drift to a handful of updates — orders of
// magnitude below both the 1e-12 agreement the eval tests pin and the
// 1e-9 pruning slack the search correctness rests on — while keeping the
// amortised refinement cost per node at 4q²/refineStride flops.
const refineStride = 16

// mResidTol gates the per-call residual of the maintained candidates
// (constraint right-hand sides are 1, so the tolerance is absolute): a
// larger residual means the rank-one trajectory degraded the inverse and
// the node is refactorised from scratch instead.
const mResidTol = 1e-8

// refactor rebuilds α̃ and λ̃ from a fresh LU of the current node matrix
// (O(q³), amortised over the O(q²) incremental moves between
// refactorisations). The inverse M waits for ensureInverse: the bound
// needs only the two solves, and most send orders are cut by their root
// bound before any move or child screen reads M.
func (rp *ReturnPrefix) refactor() bool {
	q := rp.q
	copy(rp.lu, rp.r)
	rp.mValid = false
	rp.sinceRefactor = 0
	// The fresh factor belongs to the CURRENT node: every outstanding lazy
	// stack entry (factors relative to ancestors' M) is now void, so the
	// Pops crossing this node fall back to generic column updates.
	rp.mPending = -1
	for i := range rp.msavedOK {
		rp.msavedOK[i] = false
	}
	if !luFactor(rp.lu, rp.piv, q) {
		return false
	}
	for i := 0; i < q; i++ {
		rp.malpha[i] = 1
		rp.mlam[i] = 1
	}
	luSolve(rp.lu, rp.piv, q, rp.malpha)
	luSolveTranspose(rp.lu, rp.piv, q, rp.mlam)
	rp.mValid = true
	rp.mInv = false
	return true
}

// ensureInverse builds M for a state refactor left without one. It must
// run before a move changes r.
func (rp *ReturnPrefix) ensureInverse() {
	if rp.mValid && !rp.mInv {
		rp.buildInverse()
	}
}

// buildInverse builds M = r⁻¹ column by column from a fresh factor of the
// node matrix (dualDescentBound reuses the pivot scratch after refactor);
// the LU is deterministic, so M is bitwise the inverse an eager refactor
// would have built. A non-finite entry invalidates the state, and the
// next Bound refactorises.
func (rp *ReturnPrefix) buildInverse() {
	q := rp.q
	copy(rp.lu, rp.r)
	rp.mValid = false
	if !luFactor(rp.lu, rp.piv, q) {
		return
	}
	col := rp.mrow
	for j := 0; j < q; j++ {
		for i := 0; i < q; i++ {
			col[i] = 0
		}
		col[j] = 1
		luSolve(rp.lu, rp.piv, q, col)
		for i := 0; i < q; i++ {
			v := col[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
			rp.m[i*q+j] = v
		}
	}
	rp.mValid = true
	rp.mInv = true
}

// refine performs one step of iterative refinement on the maintained
// primal and dual candidates (α̃ += M·(1 − A·α̃), λ̃ += Mᵀ·(1 − Aᵀ·λ̃)),
// which pins them to the from-scratch solution to ~machine precision as
// long as M stays a reasonable approximate inverse — the property the
// update-vs-refactor agreement test relies on. Returns false (caller
// refactorises) when a pre-refinement residual exceeds mResidTol.
func (rp *ReturnPrefix) refine() bool {
	if rp.ensureInverse(); !rp.mValid {
		return false
	}
	if rp.mPending >= 0 {
		rp.materialize() // the corrections below multiply by M
	}
	q := rp.q
	res := rp.my
	worst := 0.0
	for i := 0; i < q; i++ {
		ri := rp.r[i*q : (i+1)*q]
		s := 1.0
		for j := 0; j < q; j++ {
			s -= ri[j] * rp.malpha[j]
		}
		res[i] = s
		if a := math.Abs(s); !(a <= worst) {
			worst = a
		}
	}
	if !(worst <= mResidTol) {
		return false
	}
	for i := 0; i < q; i++ {
		mi := rp.m[i*q : (i+1)*q]
		s := 0.0
		for j := 0; j < q; j++ {
			s += mi[j] * res[j]
		}
		rp.malpha[i] += s
	}
	worst = 0.0
	for j := 0; j < q; j++ {
		s := 1.0
		for i := 0; i < q; i++ {
			s -= rp.r[i*q+j] * rp.mlam[i]
		}
		res[j] = s
		if a := math.Abs(s); !(a <= worst) {
			worst = a
		}
	}
	if !(worst <= mResidTol) {
		return false
	}
	for i := 0; i < q; i++ {
		s := 0.0
		for j := 0; j < q; j++ {
			s += rp.m[j*q+i] * res[j]
		}
		rp.mlam[i] += s
	}
	return true
}

// Bound evaluates the current node's relaxation through its all-tight
// candidate: one LU factorisation, a primal solve α = A⁻¹·1 and a
// transpose solve λ = A⁻ᵀ·1.
//
//   - ok reports that a usable bound was computed at all (false on a
//     singular or numerically broken system — the caller keeps its parent
//     bound, which remains admissible by monotonicity);
//   - exact reports the full KKT certificate (α ≥ 0, port feasible,
//     λ ≥ 0): the bound then equals the relaxation's LP optimum — at a
//     leaf, the scenario's exact optimal throughput;
//   - otherwise dualDescentBound finds a tight dual-feasible point of the
//     relaxation; its value bounds the subtree from above by weak duality.
//
// Two implementations share this contract. boundScratch is the O(q³)
// from-scratch path: LU of the node matrix, fresh solves. The incremental
// path reuses the Sherman–Morrison-maintained inverse and candidates
// (O(q²) per node: one refinement step plus certificate scans),
// refactorising when the maintained state is invalid, stale
// (refactorPeriod) or fails its residual gate. Leaves ALWAYS take the
// from-scratch path: a leaf value can become the search winner, and winner
// values must be pure functions of the orders — bit-for-bit independent of
// the Push/Pop trajectory — for the parallel searches to reproduce the
// serial result byte-identically.
//
// Under ExactRational ok is always false: no float64 bound may prune or
// certify an exact comparison.
func (rp *ReturnPrefix) Bound() (bound float64, exact, ok bool) {
	if rp.mode == ExactRational {
		return 0, false, false
	}
	if !rp.incremental || len(rp.tail) == rp.q {
		return rp.boundScratch()
	}
	rp.sinceRefactor++
	if !rp.mValid || rp.sinceRefactor >= refactorPeriod {
		if !rp.refactor() {
			return 0, false, false
		}
	} else if rp.sinceRefactor%refineStride == 0 && !rp.refine() {
		if !rp.refactor() {
			return 0, false, false
		}
	}
	tol := numeric.CertTol
	dualOK := true
	for _, l := range rp.mlam {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			rp.mValid = false
			return 0, false, false
		}
		if l < -tol {
			dualOK = false
		}
	}
	primalOK := true
	for _, a := range rp.malpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			rp.mValid = false
			return 0, false, false
		}
		if a < -tol {
			primalOK = false
		}
	}
	if primalOK && dualOK && portFeasible(rp.p, rp.send, rp.malpha, rp.model) {
		return sum(rp.malpha), true, true
	}
	// dualDescentBound starts from rp.lam and is self-certifying against
	// the exact node matrix, so seeding it with the maintained (refined)
	// dual candidate is safe even if that candidate has drifted.
	copy(rp.lam, rp.mlam)
	return rp.dualDescentBound(dualOK)
}

func (rp *ReturnPrefix) boundScratch() (bound float64, exact, ok bool) {
	q := rp.q
	copy(rp.lu, rp.r)
	if !luFactor(rp.lu, rp.piv, q) {
		return 0, false, false
	}
	for i := range rp.alpha {
		rp.alpha[i] = 1
		rp.lam[i] = 1
	}
	luSolve(rp.lu, rp.piv, q, rp.alpha)
	luSolveTranspose(rp.lu, rp.piv, q, rp.lam)
	tol := numeric.CertTol
	dualOK := true
	for _, l := range rp.lam {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return 0, false, false
		}
		if l < -tol {
			dualOK = false
		}
	}
	primalOK := true
	for _, a := range rp.alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return 0, false, false
		}
		if a < -tol {
			primalOK = false
		}
	}
	if primalOK && dualOK && portFeasible(rp.p, rp.send, rp.alpha, rp.model) {
		// Strong duality: all rows of the relaxation tight, duals
		// non-negative, port row slack with a zero multiplier — the
		// candidate is the relaxation's optimum.
		return sum(rp.alpha), true, true
	}
	return rp.dualDescentBound(dualOK)
}

// dualDescentBound constructs a tight dual-feasible point of the node's
// relaxation when the all-tight candidate failed its certificate, walking
// the dual active set instead of merely clamping:
//
//  1. while some multiplier is negative, zero the most negative row's
//     multiplier and re-solve stationarity on the remaining rows only
//     ((R_EE)ᵀ·λ_E = 1 — the relaxation's resource selection, seen from
//     the dual side);
//  2. clamp whatever negativity survives the capped descent to zero —
//     harmless for feasibility, since every matrix entry is non-negative;
//  3. repair the dual constraints of columns the reduced row set leaves
//     uncovered with the port-row multiplier: μ = max_j deficit_j/g_j
//     restores Σ_i λ_i·R_ij + μ·g_j ≥ 1 for every column at once.
//
// The result is dual feasible by construction, so Σλ + μ·(#port rows)
// bounds every completion of the prefix by weak duality; it is far tighter
// than clamping alone because re-solving redistributes the dropped rows'
// weight instead of keeping their inflated complements. rp.lam must hold
// the full-system transpose solve on entry.
func (rp *ReturnPrefix) dualDescentBound(dualOK bool) (bound float64, exact, ok bool) {
	q := rp.q
	tol := numeric.CertTol
	lam := rp.full[:q]
	copy(lam, rp.lam)
	if !dualOK {
		rows := rp.rows[:0]
		for i := 0; i < q; i++ {
			rows = append(rows, i)
		}
		// Each iteration drops EVERY negative-multiplier row at once and
		// re-solves — one sub-factorisation prices the survivors together,
		// instead of one per dropped row. Still bounded: the row set
		// strictly shrinks, and any subset yields a dual-feasible point
		// after the clamp + column repair below.
		for len(rows) > 1 {
			worst, at := -tol, -1
			for r, i := range rows {
				if lam[i] < worst {
					worst, at = lam[i], r
				}
			}
			if at < 0 {
				break // every remaining multiplier is (near) non-negative
			}
			k := 0
			for _, i := range rows {
				if lam[i] >= -tol {
					rows[k] = i
					k++
				}
			}
			if k == 0 {
				// Every multiplier negative: keep all but the worst so the
				// restricted system stays non-empty.
				for r, i := range rows {
					if r != at {
						rows[k] = i
						k++
					}
				}
			}
			rows = rows[:k]
			m := len(rows)
			sub := rp.sub[:m*m]
			for r, i := range rows {
				for c, j := range rows {
					sub[r*m+c] = rp.r[i*q+j]
				}
			}
			if !luFactor(sub, rp.piv[:m], m) {
				// Singular restriction: keep the previous iterate (clamped
				// below), still feasible.
				break
			}
			subLam := rp.subLam[:m]
			for r := range subLam {
				subLam[r] = 1
			}
			luSolveTranspose(sub, rp.piv[:m], m, subLam)
			bad := false
			for _, l := range subLam {
				if math.IsNaN(l) || math.IsInf(l, 0) {
					bad = true
					break
				}
			}
			if bad {
				break
			}
			for i := range lam {
				lam[i] = 0
			}
			for r, i := range rows {
				lam[i] = subLam[r]
			}
		}
	}
	lamSum := 0.0
	for i, l := range lam {
		if l < 0 {
			lam[i] = 0
			l = 0
		}
		lamSum += l
	}
	// Column repair: μ lifts every uncovered dual constraint at once. The
	// deficit scan prices each column of the current matrix against the
	// clamped multipliers (row-major accumulation, skipping the rows the
	// descent zeroed).
	col := rp.sub[:q]
	for j := range col {
		col[j] = 0
	}
	for i := 0; i < q; i++ {
		l := lam[i]
		if l == 0 {
			continue
		}
		ri := rp.r[i*q : (i+1)*q]
		for j, v := range ri {
			col[j] += l * v
		}
	}
	deficit := 0.0
	for j := 0; j < q; j++ {
		w := rp.p.Workers[rp.send[j]]
		if short := 1 - col[j]; short > 0 {
			if d := short / (w.C + w.D); d > deficit {
				deficit = d
			}
		}
	}
	bound = lamSum + deficit
	if rp.model == schedule.TwoPort {
		// μ on both port rows (coefficients c_j and d_j sum to g_j), each
		// contributing its right-hand side once.
		bound = lamSum + 2*deficit
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return 0, false, false
	}
	return bound / (1 - tol), false, true
}

// ChildBounds bounds every open child of the current node in one pass over
// the maintained inverse, without pushing any of them. Committing send
// position j changes column j by c = d_j·1_{O∖{j}} (O the open positions),
// so the child's Sherman–Morrison factors read straight off M:
//
//	y = M·c = d_j·(M·1_O − M[:,j]),   δ = 1 + y_j,
//	λ' = λ̃ − (Σy/δ)·M[j,:],
//
// with the open-column row sums M·1_O and the column sums Σ_i M[i,j]
// formed once per node: O(q·|O|) for all children together. Where λ'
// passes Bound's dual check (finite, no entry below −CertTol), out[j] is
// Σλ'₊/(1−CertTol) — weak duality with a zero port multiplier, admissible
// under both port models. Every other out entry (closed positions,
// children whose λ' fails the check) is +Inf.
//
// ChildBounds materialises a pending level and refactorises an invalid
// state first (as after Reset). It reports false, with every entry +Inf,
// where there is no maintained inverse to read: under ExactRational,
// with SetIncremental(false), or when the node matrix is singular.
func (rp *ReturnPrefix) ChildBounds(out []float64) bool {
	q := rp.q
	out = out[:q]
	for j := range out {
		out[j] = math.Inf(1)
	}
	if rp.mode == ExactRational || !rp.incremental {
		return false
	}
	if !rp.mValid && !rp.refactor() {
		return false
	}
	if rp.ensureInverse(); !rp.mValid {
		return false
	}
	if rp.mPending >= 0 {
		rp.materialize()
	}
	// rs = M·1_O over the open columns; col[j] = Σ_i M[i,j] for open j.
	open := rp.mcIdx[:0]
	for j, o := range rp.open {
		if o {
			open = append(open, j)
		}
	}
	rs, col := rp.my, rp.mrow
	for _, j := range open {
		col[j] = 0
	}
	for i := 0; i < q; i++ {
		mi := rp.m[i*q : (i+1)*q]
		s := 0.0
		for _, j := range open {
			s += mi[j]
			col[j] += mi[j]
		}
		rs[i] = s
	}
	total := 0.0
	for _, j := range open {
		total += col[j]
	}
	tol := numeric.CertTol
	for _, j := range open {
		d := rp.p.Workers[rp.send[j]].D
		mj := rp.m[j*q : (j+1)*q]
		den := 1 + d*(rs[j]-mj[j])
		if math.IsNaN(den) || math.Abs(den) < 1e-12 {
			continue
		}
		g := d * (total - col[j]) / den
		lamSum := 0.0
		for k, l := range rp.mlam {
			l -= g * mj[k]
			// NaN fails the comparison too; a +Inf entry leaves out[j]
			// at +Inf, the same as failing.
			if !(l >= -tol) {
				lamSum = math.Inf(1)
				break
			}
			if l > 0 {
				lamSum += l
			}
		}
		out[j] = lamSum / (1 - tol)
	}
	return true
}

// ReturnOrder materialises the committed return order (worker indices,
// first returner first). Valid only at full depth; the slice is reused
// across calls and must be cloned if retained.
func (rp *ReturnPrefix) ReturnOrder() platform.Order {
	for k, pos := range rp.tail {
		rp.ret[rp.q-1-k] = rp.send[pos]
	}
	return rp.ret
}

// LeafThroughput evaluates the fully committed return order exactly when
// Bound could not certify the leaf: the pivot tier on the assembled full
// tight matrix, then the counted simplex safety net. The Simplex and
// ExactRational modes solve the scenario LP directly, the latter in
// rational arithmetic.
func (rp *ReturnPrefix) LeafThroughput() (float64, error) {
	if len(rp.tail) != rp.q {
		return 0, fmt.Errorf("eval: LeafThroughput on a partial return prefix (%d of %d committed)", len(rp.tail), rp.q)
	}
	s := rp.sess
	sc := Scenario{Platform: rp.p, Send: rp.send, Return: rp.ReturnOrder(), Model: rp.model}
	switch rp.mode {
	case Simplex:
		_, rho, err := s.simplexLoads(sc, nil)
		return rho, err
	case ExactRational:
		_, rho, err := s.exactLoads(sc)
		return rho, err
	}
	if alpha, ok := s.pivotLoads(rp.p, rp.send, rp.model, rp.r, nil); ok {
		return sum(alpha), nil
	}
	_, rho, err := s.fallbackLoads(sc, nil)
	return rho, err
}

// ReturnPrefixBound returns the exact optimum of the σ2-prefix relaxation:
// the best throughput achievable when the workers named by tail (send
// positions, in commitment order — the LAST returner first) occupy the
// last len(tail) return positions and every other row is relaxed to its
// send prefix, own processing, own return message and the committed
// returns. The bound dominates the true optimum of every completion of
// the prefix (equivalently, the implied makespan bound load/ρ never
// exceeds any completion's true makespan), it is monotone non-increasing
// as the prefix grows, and at a full prefix it equals the scenario's
// optimal throughput.
//
// The branch-and-bound search computes the same quantity incrementally
// through ReturnPrefix; this one-shot form exists for property tests and
// diagnostics. When the all-tight candidate does not certify, the pivot
// tier solves the relaxation; the value returned always carries a full
// KKT certificate, and an uncertified relaxation is an error.
func (s *Session) ReturnPrefixBound(p *platform.Platform, send platform.Order, model schedule.Model, tail []int) (float64, error) {
	sc := Scenario{Platform: p, Send: send, Return: send, Model: model}
	if err := validate(sc); err != nil {
		return 0, err
	}
	if len(send) != p.P() {
		return 0, fmt.Errorf("eval: return-prefix bound enrolls all %d workers, got %d", p.P(), len(send))
	}
	rp, err := s.NewReturnPrefix(p, model, Auto)
	if err != nil {
		return 0, err
	}
	if err := rp.Reset(send); err != nil {
		return 0, err
	}
	for _, pos := range tail {
		if pos < 0 || pos >= rp.q {
			return 0, fmt.Errorf("eval: tail names send position %d outside [0, %d)", pos, rp.q)
		}
		if !rp.open[pos] {
			return 0, fmt.Errorf("eval: tail commits send position %d twice", pos)
		}
		rp.Push(pos)
	}
	if bound, exact, ok := rp.Bound(); ok && exact {
		return bound, nil
	}
	alpha, ok := s.pivotLoads(p, rp.send, model, rp.r, nil)
	if !ok {
		return 0, fmt.Errorf("eval: return-prefix relaxation of σ1 = %v, tail %v: no certified optimum", send, tail)
	}
	return sum(alpha), nil
}
