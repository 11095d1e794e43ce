package eval

import (
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the transposition-aware evaluator behind the
// exhaustive order searches. The Steinhaus–Johnson–Trotter enumeration
// used by internal/core emits successive send orders differing by exactly
// one adjacent transposition, and a Sweep reuses the certified optimum of
// the previous order across it.
//
// On port-bound or resource-selecting platforms the optimum is not the
// full-enrollment chain but a certified active-set vertex (an enrolled
// subsequence, all-tight or port-tight with one slack row). An adjacent
// transposition usually leaves that structure intact, and the certificate
// pieces it can invalidate are cheap to re-verify:
//
//   - both swapped positions dropped: every certificate component is
//     provably unchanged (the two zero-load workers only crossed each
//     other), so the cached optimum is returned in O(1);
//   - one dropped, one enrolled: the enrolled subsequence — and with it
//     the loads, multipliers and tight-row values — is unchanged; only the
//     crossed dropped worker's primal row and dual column moved, so the
//     O(p) dropped-worker prefix scan re-certifies the cached optimum;
//   - both enrolled: the subsequence changed, so the cached candidate
//     shape (same enrolled set, same slack worker) is re-solved by its
//     O(p) chain and re-certified in full.
//
// Every all-tight chain candidate — full enrollment, the cached shape
// after a swap, each level of the descent — is solved and certified by
// one session routine, Session.tightCandidate, the one Auto's descent
// runs; a certified full-enrollment value is therefore Auto's, bit for
// bit, however the sweep reached the order. Only when the warm candidate
// fails does the sweep fall back to the full active-set descent
// (recording the new optimum's structure), and only when that fails —
// degenerate chains — does it hand the order to the pivot tier, which
// solves it from the order alone. Every certified answer carries the
// complete KKT certificate, so the sweep is exactly as sound as the
// from-scratch pipeline: a certified value IS the scenario's LP optimum,
// never an approximation.
type Sweep struct {
	p     *platform.Platform
	model schedule.Model
	lifo  bool
	q     int
	order []int // current send order: worker index by send position
	rev   []int // reversed order (the LIFO return order), kept in lockstep
	all   []int // every send position, ascending: the full enrolled set

	sess *Session // private scratch for chain solves and the descent

	// Cached optimum structure. needDropped/needChains classify what the
	// transpositions since the last certificate invalidated.
	haveOpt     bool
	needDropped bool
	needChains  bool
	opt         chainOptRecord
	optIn       []bool // by send position: enrolled in the cached optimum
	sub         []int  // scratch: enrolled subsequence as worker indices

	stats SweepStats // resolution-path counters
}

// SweepStats counts how a sweep's orders were answered below the warm
// path.
type SweepStats struct {
	// Fallbacks counts chain-search descents: orders the warm path (cached
	// optimum, dual screen, cached-shape re-solve) did not answer.
	Fallbacks uint64
	// Pivots counts the orders whose descent certified nothing, answered
	// by the pivot tier.
	Pivots uint64
}

// Stats returns the sweep's resolution-path counters.
func (sw *Sweep) Stats() SweepStats { return sw.stats }

// NewSweep starts an incremental sweep over send orders of the given
// scenario shape: FIFO (σ2 = σ1) when lifo is false, LIFO (σ2 = reverse
// σ1) when true. The initial send order is copied; advance the sweep with
// Delta as the enumeration applies adjacent transpositions.
func NewSweep(p *platform.Platform, send platform.Order, model schedule.Model, lifo bool) (*Sweep, error) {
	if err := validate(Scenario{Platform: p, Send: send, Return: send, Model: model}); err != nil {
		return nil, err
	}
	q := len(send)
	sw := &Sweep{
		p: p, model: model, lifo: lifo, q: q,
		sess:  NewSession(),
		order: append([]int(nil), send...),
		rev:   make([]int, q),
		all:   make([]int, q),
		optIn: make([]bool, q),
		sub:   make([]int, q),
	}
	for k, v := range sw.order {
		sw.rev[q-1-k] = v
		sw.all[k] = k
	}
	return sw, nil
}

// Order returns the sweep's current send order. The slice is live — it
// mutates on every Delta — and must not be modified by the caller.
func (sw *Sweep) Order() platform.Order { return sw.order }

// Delta applies the adjacent transposition of send positions (i, i+1).
// The cached optimum structure is reclassified rather than recomputed —
// the work it still needs happens in the next Throughput call.
func (sw *Sweep) Delta(i int) {
	sw.order[i], sw.order[i+1] = sw.order[i+1], sw.order[i]
	j := sw.q - 2 - i
	sw.rev[j], sw.rev[j+1] = sw.rev[j+1], sw.rev[j]
	if !sw.haveOpt {
		return
	}
	ei, ej := sw.optIn[i], sw.optIn[i+1]
	switch {
	case !ei && !ej:
		// Two dropped workers crossed: the cached certificate is intact.
	case ei && ej:
		// Two enrolled workers swapped ranks: re-solve the candidate shape.
		// Their cached loads and multipliers swap ranks with them (the dual
		// screen reuses the multipliers worker-attached).
		for r := 0; r+1 < len(sw.opt.pos); r++ {
			if sw.opt.pos[r] == i {
				if len(sw.opt.alpha) > r+1 {
					sw.opt.alpha[r], sw.opt.alpha[r+1] = sw.opt.alpha[r+1], sw.opt.alpha[r]
					sw.opt.lam[r], sw.opt.lam[r+1] = sw.opt.lam[r+1], sw.opt.lam[r]
				}
				break
			}
		}
		sw.needChains = true
	default:
		// An enrolled worker crossed a dropped one: the subsequence (and
		// with it loads, multipliers, tight rows) is unchanged, but the
		// crossed worker's dropped checks moved.
		sw.optIn[i], sw.optIn[i+1] = ej, ei
		// The enrolled position list swaps i ↔ i+1 (sortedness is
		// preserved: the replaced neighbour was not enrolled).
		for r, pos := range sw.opt.pos {
			if pos == i {
				sw.opt.pos[r] = i + 1
				break
			}
			if pos == i+1 {
				sw.opt.pos[r] = i
				break
			}
		}
		sw.needDropped = true
	}
}

// scenario materialises the sweep's current scenario (shares the live
// order slices).
func (sw *Sweep) scenario() Scenario {
	ret := sw.order
	if sw.lifo {
		ret = sw.rev
	}
	return Scenario{Platform: sw.p, Send: sw.order, Return: ret, Model: sw.model}
}

// Throughput returns the optimal throughput of the current send order,
// the value the tiered Auto pipeline computes; ok is false only when even
// Auto's simplex safety net fails, an internal error. It tries, in order:
// the cached active-set optimum (re-verified to the extent the
// transpositions since the last call invalidated it), the full-enrollment
// all-tight candidate, the full active-set descent and, when no chain
// candidate certifies, the pivot tier.
func (sw *Sweep) Throughput() (float64, bool) {
	return sw.throughput(-1)
}

// ThroughputBound is Throughput for search loops carrying an incumbent: it
// may return early — with a value that is a certified upper bound on the
// current order's optimum, at most the incumbent — when the cached dual
// multipliers prove the order cannot beat the incumbent. The early-out
// costs one division-free O(p) pass instead of a candidate re-solve, and
// is what lets a sweep skim past the bulk of a port-bound platform's
// permutations. Callers that track a running maximum can use the returned
// value exactly like Throughput's (a pruned order never updates the
// maximum, since its bound is at most the incumbent).
func (sw *Sweep) ThroughputBound(incumbent float64) (float64, bool) {
	return sw.throughput(incumbent)
}

func (sw *Sweep) throughput(incumbent float64) (float64, bool) {
	if sw.haveOpt && len(sw.opt.alpha) > 0 {
		// A strict-subset optimum is cached: the warm path answers without
		// touching the full-enrollment chains (if the structure changed,
		// the descent below covers full enrollment anyway).
		if incumbent > 0 && (sw.needChains || sw.needDropped) {
			if bound, pruned := sw.dualScreen(incumbent); pruned {
				return bound, true
			}
		}
		sc := sw.scenario()
		m := len(sw.opt.pos)
		if sw.needChains {
			if rho, ok := sw.resolveCachedShape(sc, m); ok {
				return rho, true
			}
			// The candidate shape no longer certifies: resume the descent
			// from the cached enrolled set (falling back to full enrollment
			// inside descendFrom).
			return sw.descendFrom(sw.opt.pos)
		}
		if sw.needDropped {
			// Subsequence unchanged; only the dropped-worker checks moved.
			if sw.sess.chainDroppedOK(sc, sw.opt.pos, sw.opt.alpha, sw.opt.lam, sw.opt.mu, sw.lifo) {
				sw.needDropped = false
				return sw.opt.rho, true
			}
			return sw.descend()
		}
		// Only dropped workers crossed since the last certificate: the
		// cached optimum is provably intact.
		return sw.opt.rho, true
	}
	if alpha, _, _, _, ok := sw.sess.tightCandidate(sw.scenario(), sw.all, sw.order, sw.lifo); ok {
		// Cache the structure so the next transposition is classified
		// against the full-enrollment all-tight optimum.
		sw.cacheFullEnrollment(sum(alpha))
		return sw.opt.rho, true
	}
	// No usable cache (or the cached full-enrollment candidate was just
	// refuted): run the full descent.
	sw.haveOpt = false
	return sw.descend()
}

// cacheFullEnrollment records the full-enrollment all-tight optimum. Its
// loads and multipliers are not copied: with every worker enrolled there
// are no dropped checks to re-verify, and any transposition within it
// re-solves the full-enrollment candidate.
func (sw *Sweep) cacheFullEnrollment(rho float64) {
	sw.opt.pos = append(sw.opt.pos[:0], sw.all...)
	for k := range sw.optIn {
		sw.optIn[k] = true
	}
	sw.opt.alpha = sw.opt.alpha[:0]
	sw.opt.lam = sw.opt.lam[:0]
	sw.opt.mu = 0
	sw.opt.slackWorker = -1
	sw.opt.rho = rho
	sw.haveOpt = true
	sw.needDropped, sw.needChains = false, false
}

// dualScreen decides whether the current order can be skipped against an
// incumbent throughput without re-solving anything: the cached multipliers
// (λ by enrolled rank, worker-attached across transpositions; μ for the
// port row) are clamped to ≥ 0 and re-checked as a dual-feasible point of
// the CURRENT scenario LP in one division-free O(p) pass. Any dual
// feasible point's value bounds the primal optimum from above (weak
// duality), so when that bound cannot beat the incumbent the order is
// certifiably prunable — regardless of how stale the cached structure is.
// The 1e-12 relative margin mirrors the pair search's pruning margin.
func (sw *Sweep) dualScreen(incumbent float64) (bound float64, pruned bool) {
	if len(sw.opt.alpha) == 0 {
		return 0, false // full-enrollment cache carries no multipliers
	}
	tol := numeric.CertTol
	mu := sw.opt.mu
	if mu < 0 {
		mu = 0
	}
	lamTot := 0.0
	for _, l := range sw.opt.lam {
		if l > 0 {
			lamTot += l
		}
	}
	bound = (lamTot + mu) / (1 - tol)
	if bound > incumbent*(1+1e-12) {
		return 0, false
	}
	if bound > incumbent {
		// The margin admits bounds a hair above the incumbent; cap the
		// reported value so a pruned order can never be promoted to the
		// running maximum (its exact optimum was never computed).
		bound = incumbent
	}
	// Dual feasibility of the clamped point against every column of the
	// current scenario: for FIFO, column j needs
	//   c_j·Λ_{≥j} + w_j·λ_j + d_j·Λ_{≤j} + μ·g_j ≥ 1,
	// for LIFO (σ2 = reverse σ1) the c and d terms both select Λ_{≥j};
	// Λ_{≤j}/Λ_{≥j} are inclusive prefix/suffix sums of the clamped row
	// multipliers by send position (zero on dropped rows).
	wc := sw.sess.derivedCosts(sw.p)
	ei := 0
	pre := 0.0
	m := len(sw.opt.pos)
	for pos, i := range sw.order {
		w := &wc[i]
		lj := 0.0
		if ei < m && sw.opt.pos[ei] == pos {
			if lj = sw.opt.lam[ei]; lj < 0 {
				lj = 0
			}
			ei++
		}
		pre += lj
		suf := lamTot - pre + lj
		var val float64
		if sw.lifo {
			val = w.g*suf + w.w*lj + mu*w.g
		} else {
			val = w.c*suf + w.w*lj + w.d*pre + mu*w.g
		}
		if !certOK(val-1, 1) {
			return 0, false
		}
	}
	return bound, true
}

// resolveCachedShape re-solves the cached candidate shape — same enrolled
// set, same slack worker — on the current subsequence and re-certifies it
// in full.
func (sw *Sweep) resolveCachedShape(sc Scenario, m int) (float64, bool) {
	s := sw.sess
	sub := sw.sub[:m]
	for r, pos := range sw.opt.pos {
		sub[r] = sw.order[pos]
	}
	subOrder := platform.Order(sub)
	var alpha []float64
	var mu float64
	var ok bool
	if sw.opt.slackWorker >= 0 {
		// Port-tight vertex: same slack worker, possibly at a new rank.
		k := -1
		for r, i := range sub {
			if i == sw.opt.slackWorker {
				k = r
				break
			}
		}
		if k < 0 {
			return 0, false
		}
		alpha, mu, ok = s.fifoPortVertex(sw.p, subOrder, k)
		ok = ok && s.chainDroppedOK(sc, sw.opt.pos, alpha, s.lam[:m], mu, sw.lifo)
	} else {
		alpha, _, _, _, ok = s.tightCandidate(sc, sw.opt.pos, subOrder, sw.lifo)
	}
	if !ok {
		return 0, false
	}
	sw.opt.set(sw.opt.pos, alpha, s.lam[:m], mu, sw.opt.slackWorker)
	sw.needChains, sw.needDropped = false, false
	return sw.opt.rho, true
}

// descend runs the full active-set descent and records the new optimum's
// structure for subsequent warm starts.
func (sw *Sweep) descend() (float64, bool) {
	return sw.descendFrom(nil)
}

// descendFrom runs the active-set descent starting from the given enrolled
// positions (nil: full enrollment) and records the optimum it certifies.
func (sw *Sweep) descendFrom(initE []int) (float64, bool) {
	sw.stats.Fallbacks++
	sc := sw.scenario()
	_, ok := sw.sess.chainSearch(sc, sw.lifo, &sw.opt, initE)
	if !ok && initE != nil {
		// Nothing below the cached set certified; the optimum may have
		// re-enrolled a worker — retry from full enrollment.
		_, ok = sw.sess.chainSearch(sc, sw.lifo, &sw.opt, nil)
	}
	if !ok {
		// No chain candidate certifies: the pivot tier answers from the
		// scenario alone, without the cached structure.
		sw.stats.Pivots++
		sw.haveOpt = false
		_, rho, err := sw.sess.pivotScenario(sc, nil)
		return rho, err == nil
	}
	for k := range sw.optIn {
		sw.optIn[k] = false
	}
	for _, pos := range sw.opt.pos {
		sw.optIn[pos] = true
	}
	sw.haveOpt = true
	sw.needDropped, sw.needChains = false, false
	return sw.opt.rho, true
}
