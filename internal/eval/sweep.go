package eval

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the transposition-aware incremental evaluator behind
// the exhaustive order searches. The Steinhaus–Johnson–Trotter enumeration
// used by internal/core emits successive send orders differing by exactly
// one adjacent transposition; a Sweep exploits that in two layers.
//
// Layer 1 — prefix-factorised chains. The FIFO/LIFO load and dual chains
// are kept as per-position prefix state so the swap of positions (i, i+1)
// re-derives only the chain tail instead of the whole O(p) recurrences:
//
//   - the load chain is a running product P_k = Π f_j of per-adjacent-pair
//     factors, kept with the prefix sums Σ P, Σ P·c, Σ P·d that close the
//     first-row normalisation and the port check — a swap at i only
//     changes the factors f_i, f_{i+1}, f_{i+2}, so positions < i are
//     reused verbatim and positions ≥ i rebuilt in one O(p−i) pass;
//   - the FIFO dual chain is a forward affine recurrence in the prefix
//     sums (pu, pv), factorised the same way; the final λ_k = u_k + t·v_k
//     certificate scan stays O(p) because the closure scale t couples
//     every position, but it runs branch-free on materialised columns;
//   - the LIFO dual chain runs backward (λ_k closes on the suffix sum of
//     the later multipliers), so a swap at i instead reuses the suffix
//     state of positions ≥ i+2 and rebuilds positions ≤ i+1, with a
//     running suffix minimum making its certificate check O(1).
//
// When the all-rows-tight full-enrollment candidate certifies, its value
// is exactly what the tiered Auto pipeline would return, at O(p−i)
// incremental cost.
//
// Layer 2 — active-set reuse. On port-bound or resource-selecting
// platforms the optimum is not the full-enrollment chain but a certified
// active-set vertex (an enrolled subsequence, all-tight or port-tight with
// one slack row). An adjacent transposition usually leaves that structure
// intact, and the certificate pieces it can invalidate are cheap to
// re-verify:
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
// Only when the warm candidate fails does the sweep fall back to the full
// active-set descent (recording the new optimum's structure), and only
// when that fails — degenerate chains — does it hand the order to the
// pivot tier, which solves it from the order alone. Every certified
// answer carries the complete KKT certificate, so the sweep is exactly as
// sound as the from-scratch pipeline: a certified value IS the scenario's
// LP optimum, never an approximation.
type Sweep struct {
	p     *platform.Platform
	model schedule.Model
	lifo  bool
	q     int
	order []int // current send order: worker index by send position
	rev   []int // reversed order (the LIFO return order), kept in lockstep

	sess *Session // private scratch for chain solves and the descent

	// Worker-derived columns by send position, swapped alongside order so
	// the recurrences never chase the Workers slice.
	c, d, w              []float64
	cw, wd, g, dc, cwd   []float64
	invCW, invWD, invCWD []float64

	// Load chain: P is the (unnormalised) tight chain product, SP/SC/SD its
	// prefix sums Σ P, Σ P·c, Σ P·d.
	P, SP, SC, SD []float64

	// FIFO dual chain: λ_k = u_k + t·v_k with t closed on the prefix sums
	// pu, pv (see fifoDualHint).
	u, v, pu, pv []float64

	// LIFO dual chain: λ_k closed on the suffix sum sufLam, with minLam the
	// running suffix minimum that makes the certificate check O(1).
	lam, sufLam, minLam []float64

	// Lazy chain watermarks: the load-chain prefixes are valid for
	// positions < chainValid, the FIFO dual prefixes for positions
	// < fifoDualValid, the LIFO dual suffixes for positions
	// ≥ lifoDualValid. Delta only shrinks validity; the certificate code
	// re-derives the missing ranges on demand, so on platforms whose warm
	// active-set path answers every permutation the full-enrollment chains
	// are never maintained at all.
	chainValid    int
	fifoDualValid int
	lifoDualValid int

	// Cached optimum structure (layer 2). needDropped/needChains classify
	// what the transpositions since the last certificate invalidated.
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
		c:     make([]float64, q), d: make([]float64, q), w: make([]float64, q),
		cw: make([]float64, q), wd: make([]float64, q), g: make([]float64, q),
		dc: make([]float64, q), cwd: make([]float64, q),
		invCW: make([]float64, q), invWD: make([]float64, q), invCWD: make([]float64, q),
		P: make([]float64, q), SP: make([]float64, q), SC: make([]float64, q), SD: make([]float64, q),
		optIn: make([]bool, q),
		sub:   make([]int, q),
	}
	sw.rev = make([]int, q)
	for k, v := range sw.order {
		sw.rev[q-1-k] = v
	}
	if lifo {
		sw.lam = make([]float64, q)
		sw.sufLam = make([]float64, q)
		sw.minLam = make([]float64, q)
	} else {
		sw.u = make([]float64, q)
		sw.v = make([]float64, q)
		sw.pu = make([]float64, q)
		sw.pv = make([]float64, q)
	}
	for k := 0; k < q; k++ {
		sw.gather(k)
	}
	sw.chainValid = 0
	sw.fifoDualValid = 0
	sw.lifoDualValid = q
	return sw, nil
}

// gather refreshes the worker-derived columns of position k.
func (sw *Sweep) gather(k int) {
	wc := deriveCosts(sw.p.Workers[sw.order[k]])
	sw.c[k], sw.d[k], sw.w[k] = wc.c, wc.d, wc.w
	sw.cw[k], sw.wd[k], sw.g[k], sw.dc[k], sw.cwd[k] = wc.cw, wc.wd, wc.g, wc.dc, wc.cwd
	sw.invCW[k], sw.invWD[k], sw.invCWD[k] = wc.invCW, wc.invWD, wc.invCWD
}

// Order returns the sweep's current send order. The slice is live — it
// mutates on every Delta — and must not be modified by the caller.
func (sw *Sweep) Order() platform.Order { return sw.order }

// Delta applies the adjacent transposition of send positions (i, i+1) and
// re-derives the invalidated chain state: positions ≥ i of the load (and
// FIFO dual) prefixes, positions ≤ i+1 of the LIFO dual suffixes. The
// cached optimum structure is reclassified rather than recomputed — the
// work it still needs happens in the next Throughput call.
func (sw *Sweep) Delta(i int) {
	sw.order[i], sw.order[i+1] = sw.order[i+1], sw.order[i]
	j := sw.q - 2 - i
	sw.rev[j], sw.rev[j+1] = sw.rev[j+1], sw.rev[j]
	sw.swapCols(i, i+1)
	if i < sw.chainValid {
		sw.chainValid = i
	}
	if sw.lifo {
		if v := i + 2; v > sw.lifoDualValid {
			sw.lifoDualValid = v
		}
	} else if i < sw.fifoDualValid {
		sw.fifoDualValid = i
	}
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

func (sw *Sweep) swapCols(a, b int) {
	for _, col := range [...][]float64{sw.c, sw.d, sw.w, sw.cw, sw.wd, sw.g, sw.dc, sw.cwd, sw.invCW, sw.invWD, sw.invCWD} {
		col[a], col[b] = col[b], col[a]
	}
}

// ensureChain extends the load chain and its prefix sums to the full
// order.
func (sw *Sweep) ensureChain() {
	q := sw.q
	for k := sw.chainValid; k < q; k++ {
		var pk float64
		switch {
		case k == 0 && sw.lifo:
			pk = sw.invCWD[0]
		case k == 0:
			pk = 1
		case sw.lifo:
			pk = sw.P[k-1] * sw.w[k-1] * sw.invCWD[k]
		default:
			pk = sw.P[k-1] * sw.wd[k-1] * sw.invCW[k]
		}
		sw.P[k] = pk
		if k == 0 {
			sw.SP[0], sw.SC[0], sw.SD[0] = pk, pk*sw.c[0], pk*sw.d[0]
		} else {
			sw.SP[k] = sw.SP[k-1] + pk
			sw.SC[k] = sw.SC[k-1] + pk*sw.c[k]
			sw.SD[k] = sw.SD[k-1] + pk*sw.d[k]
		}
	}
	sw.chainValid = q
}

// ensureFIFODual extends the forward FIFO dual prefixes to the full order
// (the λ scan itself happens in fullTight, where the closure scale t is
// known).
func (sw *Sweep) ensureFIFODual() {
	q := sw.q
	for k := sw.fifoDualValid; k < q; k++ {
		var ppu, ppv float64
		if k > 0 {
			ppu, ppv = sw.pu[k-1], sw.pv[k-1]
		}
		uk := (1 - sw.dc[k]*ppu) * sw.invWD[k]
		vk := (-sw.c[k] - sw.dc[k]*ppv) * sw.invWD[k]
		sw.u[k], sw.v[k] = uk, vk
		sw.pu[k], sw.pv[k] = ppu+uk, ppv+vk
	}
	sw.fifoDualValid = q
}

// ensureLIFODual extends the backward LIFO dual suffixes down to 0:
// λ_k = (1 − g_k·Σ_{j>k} λ_j)/(c_k+w_k+d_k), with the running suffix
// minimum for the O(1) certificate check.
func (sw *Sweep) ensureLIFODual() {
	q := sw.q
	for k := sw.lifoDualValid - 1; k >= 0; k-- {
		var suf float64
		if k+1 < q {
			suf = sw.sufLam[k+1]
		}
		l := (1 - sw.g[k]*suf) * sw.invCWD[k]
		sw.lam[k] = l
		sw.sufLam[k] = suf + l
		if k+1 < q && sw.minLam[k+1] < l {
			l = sw.minLam[k+1]
		}
		sw.minLam[k] = l
	}
	sw.lifoDualValid = 0
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
// transpositions since the last call invalidated it), the incrementally
// maintained full-enrollment chain certificate, the full active-set
// descent and, when no chain candidate certifies, the pivot tier.
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
	if rho, ok := sw.fullTight(); ok {
		// Cache the structure so the next transposition is classified
		// against the full-enrollment all-tight optimum.
		sw.cacheFullEnrollment(rho)
		return rho, true
	}
	// No usable cache (or the cached full-enrollment candidate was just
	// refuted): run the full descent.
	sw.haveOpt = false
	return sw.descend()
}

// fullTight evaluates the full-enrollment all-rows-tight candidate from
// the incrementally maintained prefix state.
func (sw *Sweep) fullTight() (float64, bool) {
	q := sw.q
	sw.ensureChain()
	if sw.lifo {
		rho := sw.SP[q-1]
		if math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 {
			return 0, false
		}
		// Port feasibility is automatic for LIFO (the last tight row caps
		// Σα·(c+d) below 1 under either model); only the dual certifies,
		// its least multiplier judged against the dual sum (certOK).
		sw.ensureLIFODual()
		if !certOK(sw.minLam[0], sw.sufLam[0]) {
			return 0, false
		}
		return rho, true
	}
	denom := sw.cw[0] + sw.SD[q-1]
	rho := sw.SP[q-1] / denom
	if !(denom > 0) || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, false
	}
	// Port constraint(s) at the chain loads α_k = P_k/denom, in units of
	// denom.
	if sw.model == schedule.TwoPort {
		if !certOK(denom-sw.SC[q-1], denom) || !certOK(denom-sw.SD[q-1], denom) {
			return 0, false
		}
	} else if !certOK(denom-(sw.SC[q-1]+sw.SD[q-1]), denom) {
		return 0, false
	}
	// Dual closure and certificate scan (same guards as fifoDualHint).
	sw.ensureFIFODual()
	onemv := 1 - sw.pv[q-1]
	if onemv < 1e-12 && onemv > -1e-12 {
		return 0, false
	}
	t := sw.pu[q-1] / onemv
	for k := 0; k < q; k++ {
		if !certOK(sw.u[k]+t*sw.v[k], t) {
			return 0, false
		}
	}
	return rho, true
}

// cacheFullEnrollment records the full-enrollment all-tight optimum. Its
// loads and multipliers are not copied: with every worker enrolled there
// are no dropped checks to re-verify, and any transposition within it is
// re-evaluated by the incremental certificate itself.
func (sw *Sweep) cacheFullEnrollment(rho float64) {
	sw.opt.pos = sw.opt.pos[:0]
	for k := 0; k < sw.q; k++ {
		sw.opt.pos = append(sw.opt.pos, k)
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
	ei := 0
	pre := 0.0
	m := len(sw.opt.pos)
	for pos := 0; pos < sw.q; pos++ {
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
			val = sw.g[pos]*suf + sw.w[pos]*lj + mu*sw.g[pos]
		} else {
			val = sw.c[pos]*suf + sw.w[pos]*lj + sw.d[pos]*pre + mu*sw.g[pos]
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
		va, mu, ok := s.fifoPortVertex(sw.p, subOrder, k)
		if !ok || !s.chainDroppedOK(sc, sw.opt.pos, va, s.lam[:m], mu, sw.lifo) {
			return 0, false
		}
		sw.opt.set(sw.opt.pos, va, s.lam[:m], mu, sw.opt.slackWorker)
		sw.needChains, sw.needDropped = false, false
		return sw.opt.rho, true
	}
	var alpha []float64
	var chainOK, dualOK bool
	if sw.lifo {
		alpha, chainOK = s.lifoTight(sw.p, subOrder)
		if chainOK {
			_, dualOK = s.lifoDualHint(sw.p, subOrder)
		}
	} else {
		alpha, chainOK = s.fifoTight(sw.p, subOrder)
		if chainOK && !portFeasible(sw.p, subOrder, alpha, sw.model) {
			return 0, false
		}
		if chainOK {
			_, dualOK = s.fifoDualHint(sw.p, subOrder)
		}
	}
	if !chainOK || !dualOK || !s.chainDroppedOK(sc, sw.opt.pos, alpha, s.lam[:m], 0, sw.lifo) {
		return 0, false
	}
	sw.opt.set(sw.opt.pos, alpha, s.lam[:m], 0, -1)
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
