package eval

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the tight-system backends: the O(p) FIFO and LIFO
// load/dual chains (closed form), the Theorem 2 bus construction, and the
// general p×p Gaussian elimination with its transpose solve.
//
// Throughout, A is the matrix of per-worker constraints in send-position
// space: row s is the constraint of the worker at send position s, column
// t the load of the worker at send position t. The tight candidate solves
// A·α = 1; the optimality certificate additionally solves Aᵀ·λ = 1 and
// demands α ≥ 0, λ ≥ 0 and slack port rows (see the package comment).

// certOK is the one acceptance rule for a certificate component that is
// non-negative in exact arithmetic: v must be finite and may undershoot
// zero by at most CertTol in units of scale, the quantity v is measured
// against in the schedule's own time scale. A load is judged by its time
// footprint α·(c+w+d) and a row or port slack as is, both against the
// horizon T = 1; a multiplier against the dual objective Σλ (+ μ), which
// equals ρ at an optimum; a dual column's surplus against its objective
// coefficient 1. Raw loads and multipliers would be judged loosely by the
// factor 1/ρ: from a return-to-send ratio z ≈ 1e5 they sum to ρ ≈ 1e-5,
// and a load accepted at −CertTol and clamped to zero moves its worker's
// rows by CertTol·(c+w+d) in time, enough to certify a vertex the checker
// then rejects.
func certOK(v, scale float64) bool {
	return v >= -numeric.CertTol*scale && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// clampLoads zeroes the tiny negative loads admitted by certOK so the
// downstream schedule checker sees α ≥ 0 exactly.
func clampLoads(alpha []float64) {
	for k, a := range alpha {
		if a < 0 {
			alpha[k] = 0
		}
	}
}

// portFeasible verifies the port constraint(s) at the candidate loads.
func portFeasible(p *platform.Platform, send platform.Order, alpha []float64, model schedule.Model) bool {
	sumC, sumD := 0.0, 0.0
	for k, i := range send {
		sumC += alpha[k] * p.Workers[i].C
		sumD += alpha[k] * p.Workers[i].D
	}
	if model == schedule.TwoPort {
		return certOK(1-sumC, 1) && certOK(1-sumD, 1)
	}
	return certOK(1-(sumC+sumD), 1)
}

// --- FIFO chain -----------------------------------------------------------

// fifoTight computes the all-constraints-tight FIFO loads in O(p).
// Subtracting consecutive tight rows gives the two-term recurrence
//
//	α_{k} = α_{k-1} · (w_{k-1} + d_{k-1}) / (c_k + w_k),
//
// and the first row fixes the overall scale. The chain loads are positive
// by construction (all costs are positive), so only the port constraint
// and the dual certificate can reject the candidate.
func (s *Session) fifoTight(p *platform.Platform, send platform.Order) ([]float64, bool) {
	wc := s.derivedCosts(p)
	q := len(send)
	alpha := grow(&s.alpha, q)
	alpha[0] = 1
	// First row: α_0·(c_0 + w_0) + Σ_j α_j·d_j = 1. The sums run in the
	// order of kern's FIFO chain, with the same explicit conversions
	// against fused multiply-add, so a solo evaluation and a Batch lane
	// agree to the bit.
	sd := wc[send[0]].d
	for k := 1; k < q; k++ {
		a := alpha[k-1] * wc[send[k-1]].wd
		a = float64(a * wc[send[k]].invCW)
		alpha[k] = a
		sd += float64(a * wc[send[k]].d)
	}
	denom := wc[send[0]].cw + sd
	if denom <= 0 || math.IsNaN(denom) || math.IsInf(denom, 0) {
		return nil, false
	}
	t := 1 / denom
	for k := range alpha {
		alpha[k] *= t
		if math.IsNaN(alpha[k]) || math.IsInf(alpha[k], 0) {
			return nil, false
		}
	}
	return alpha, true
}

// --- LIFO chain -----------------------------------------------------------

// lifoTight computes the all-constraints-tight LIFO loads in O(p). For
// σ2 = reverse(σ1) the per-worker constraint of the worker at send
// position k involves only positions ≤ k, so A is lower triangular and the
// tight system collapses to
//
//	α_0 = 1/(c_0 + w_0 + d_0),   α_k = α_{k-1}·w_{k-1}/(c_k + w_k + d_k).
//
// The chain loads are positive, and the port constraints hold
// automatically: the last row gives Σα·(c+d) = 1 − α_{q-1}·w_{q-1} < 1.
// Only the dual certificate can reject the candidate.
func (s *Session) lifoTight(p *platform.Platform, send platform.Order) ([]float64, bool) {
	wc := s.derivedCosts(p)
	q := len(send)
	alpha := grow(&s.alpha, q)
	for k, i := range send {
		if k == 0 {
			alpha[0] = wc[i].invCWD
		} else {
			alpha[k] = alpha[k-1] * wc[send[k-1]].w * wc[i].invCWD
		}
		if math.IsNaN(alpha[k]) || math.IsInf(alpha[k], 0) {
			return nil, false
		}
	}
	return alpha, true
}

// --- Theorem 2 bus construction ------------------------------------------

// busFIFO evaluates a one-port FIFO scenario on a bus platform via the
// closed form of Theorem 2, including the port-bound regime the tight
// chain cannot certify: start from the two-port tight loads
// α_i = u_i/(1 + d·Σu) with u_i = 1/(d+w_i)·Π_{j≤i}(d+w_j)/(c+w_j) and,
// when their throughput exceeds the one-port bound 1/(c+d), scale every
// load by 1/(ρ̃·(c+d)); the scaled schedule saturates the port and is
// optimal by the constructive proof of Theorem 2.
func (s *Session) busFIFO(p *platform.Platform, send platform.Order) ([]float64, bool) {
	c, d := p.Workers[send[0]].C, p.Workers[send[0]].D
	for _, i := range send {
		w := p.Workers[i]
		if math.Abs(w.C-c) > numeric.RatioTol*(1+c) || math.Abs(w.D-d) > numeric.RatioTol*(1+d) {
			return nil, false // links of the enrolled workers are not identical
		}
	}
	q := len(send)
	alpha := grow(&s.alpha, q)
	prod, sum := 1.0, 0.0
	for k, i := range send {
		w := p.Workers[i].W
		prod *= (d + w) / (c + w)
		alpha[k] = prod / (d + w) // u_k
		sum += alpha[k]
	}
	scale := 1 / (1 + d*sum)
	if rho2 := sum * scale; rho2 > 1/(c+d) {
		scale /= rho2 * (c + d)
	}
	for k := range alpha {
		alpha[k] *= scale
	}
	return alpha, true
}

// --- General (σ1, σ2) tight system ---------------------------------------

// buildTightBase fills dst (q×q, row-major) with the return-order-
// independent half of the tight system: the send-prefix c terms and the
// diagonal w terms. ReturnPrefix.Reset starts every send order's
// return-order tree from it.
func buildTightBase(dst []float64, p *platform.Platform, send platform.Order) {
	q := len(send)
	for s := 0; s < q; s++ {
		row := dst[s*q : (s+1)*q]
		for t := 0; t < q; t++ {
			if t <= s {
				row[t] = p.Workers[send[t]].C
			} else {
				row[t] = 0
			}
		}
		row[s] += p.Workers[send[s]].W
	}
}

// addReturnTerms adds the d terms of the given return order onto a copied
// base: row s (worker i) gains d_j for every j returning at or after i.
func (s *Session) addReturnTerms(a []float64, p *platform.Platform, send, ret platform.Order) {
	q := len(send)
	retPos := growInt(&s.retPos, p.P())
	for k, i := range ret {
		retPos[i] = k
	}
	for si := 0; si < q; si++ {
		row := a[si*q : (si+1)*q]
		ri := retPos[send[si]]
		for t := 0; t < q; t++ {
			if retPos[send[t]] >= ri {
				row[t] += p.Workers[send[t]].D
			}
		}
	}
}

// luFactor factorises the q×q matrix a in place (Doolittle LU with partial
// pivoting, row swaps recorded in piv). It reports false when a pivot is
// numerically zero (singular or hopelessly ill-conditioned system).
func luFactor(a []float64, piv []int, q int) bool {
	for k := 0; k < q; k++ {
		// Pivot search in column k.
		p, best := k, math.Abs(a[k*q+k])
		for i := k + 1; i < q; i++ {
			if v := math.Abs(a[i*q+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-12 {
			return false
		}
		piv[k] = p
		if p != k {
			for j := 0; j < q; j++ {
				a[k*q+j], a[p*q+j] = a[p*q+j], a[k*q+j]
			}
		}
		inv := 1 / a[k*q+k]
		for i := k + 1; i < q; i++ {
			f := a[i*q+k] * inv
			a[i*q+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < q; j++ {
				a[i*q+j] -= f * a[k*q+j]
			}
		}
	}
	return true
}

// luSolve solves A·x = b in place using the factorisation (PA = LU).
func luSolve(a []float64, piv []int, q int, b []float64) {
	for k := 0; k < q; k++ {
		if piv[k] != k {
			b[k], b[piv[k]] = b[piv[k]], b[k]
		}
	}
	for i := 1; i < q; i++ { // forward: L·y = Pb
		for j := 0; j < i; j++ {
			b[i] -= a[i*q+j] * b[j]
		}
	}
	for i := q - 1; i >= 0; i-- { // backward: U·x = y
		for j := i + 1; j < q; j++ {
			b[i] -= a[i*q+j] * b[j]
		}
		b[i] /= a[i*q+i]
	}
}

// luSolveTranspose solves Aᵀ·x = b in place using the same factorisation:
// Aᵀ = Uᵀ·Lᵀ·P, so solve Uᵀy = b (forward), Lᵀz = y (backward), then
// x = Pᵀz by applying the recorded row swaps in reverse.
func luSolveTranspose(a []float64, piv []int, q int, b []float64) {
	for i := 0; i < q; i++ { // forward: Uᵀ is lower triangular
		for j := 0; j < i; j++ {
			b[i] -= a[j*q+i] * b[j]
		}
		b[i] /= a[i*q+i]
	}
	for i := q - 2; i >= 0; i-- { // backward: Lᵀ is unit upper triangular
		for j := i + 1; j < q; j++ {
			b[i] -= a[j*q+i] * b[j]
		}
	}
	for k := q - 1; k >= 0; k-- {
		if piv[k] != k {
			b[k], b[piv[k]] = b[piv[k]], b[k]
		}
	}
}

// tightReject explains why the closed-form FIFO candidate was refused: a
// port overrun lets the ClosedForm tier try the Theorem 2 bus
// construction; anything else (negative dual, singular chain) indicates
// resource selection or degeneracy, which no closed form covers.
type tightReject int

const (
	rejectNone tightReject = iota
	rejectPort             // candidate violates a port constraint
	rejectOther
)

// fullTightMatrix assembles the complete all-tight system of the scenario
// into dst (and fills s.retPos as a side effect).
func (s *Session) fullTightMatrix(dst []float64, sc Scenario) {
	buildTightBase(dst, sc.Platform, sc.Send)
	s.addReturnTerms(dst, sc.Platform, sc.Send, sc.Return)
}

// tightSearch is the guided active-set solver behind the direct backend,
// for a scenario of arbitrary (σ1, σ2).
//
// Every optimal vertex of a scenario LP has a simple structure dictated by
// the paper's lemmas: the enrolled workers E (positive loads — resource
// selection may drop the rest, Proposition 1) have all their constraint
// rows tight, except that a worker row may be slack — a worker may have
// idle time (Lemma 1) — only when a port row is tight instead. Under the
// one-port model that means at most one slack row (the single port row).
// The two-port model gets no port-row candidates: neither of its port rows
// can be tight at an optimum with positive loads, because the last enrolled
// sender's worker row contains the full send prefix Σ α·c plus its own
// positive w and d terms, and so dominates the send row (symmetrically, the
// first enrolled returner's row dominates the receive row). The search
// walks that vertex space greedily:
//
//	for E = all workers, then ever smaller subsets:
//	    try the all-rows-tight system on E
//	    try (one-port), for each slack row k (last send position first,
//	        Lemma 2), the system with row k replaced by the tight port row
//	    if a candidate passes the full-LP KKT certificate, done
//	    otherwise drop the worker whose candidate load came out most
//	    negative and descend
//
// Each candidate is an m×m linear solve plus a certificate: primal
// feasibility (loads ≥ 0; the slack row, the dropped workers' rows and
// the untight port constraints hold as inequalities), dual feasibility
// (multipliers of the tight rows ≥ 0 via the transpose solve) and, for
// every dropped worker j, the dual inequality
// Σ λ_i·A_{ij} + μ·(c_j + d_j) ≥ 1 that makes α_j = 0 optimal. A
// certified candidate is the LP optimum by strong duality; if the greedy
// path certifies nothing, the caller falls back to the simplex, so the
// search can only ever be fast, never wrong.
func (s *Session) tightSearch(sc Scenario) ([]float64, bool) {
	q := len(sc.Send)
	full := grow(&s.work, q*q)
	s.fullTightMatrix(full, sc)
	return s.tightSearchOn(sc, full, false)
}

// vertexHints carries the descent signals of a failed candidate: the most
// negative candidate load and the most negative worker-row multiplier
// (send positions; -1 when absent). A negative load names a worker the
// candidate wants at zero; a negative multiplier names a row that should
// not be tight — for candidates where the port row already accounts for
// the one allowed slack row, that too means "drop this worker".
type vertexHints struct {
	loadPos, dualPos int
	loadVal, dualVal float64
}

// tightSearchOn runs the greedy active-set descent on a pre-assembled full
// tight matrix (s.retPos must describe sc.Return, as fullTightMatrix
// leaves it). skipFullTight skips the top-level all-tight candidate, for
// callers that have already refuted it.
func (s *Session) tightSearchOn(sc Scenario, full []float64, skipFullTight bool) ([]float64, bool) {
	q := len(sc.Send)
	enrolled := growInt(&s.enrolled, q)
	for i := range enrolled {
		enrolled[i] = i
	}
	for m := q; m >= 1; m-- {
		E := enrolled[:m]
		// Descent hints, by reliability: the all-tight candidate respects
		// the minimal-slack structure of an optimal vertex, so its signals
		// outrank the port-tight candidates'; within a class, the candidate
		// closest to feasibility (least negative value) sits nearest the
		// optimum, and its negative position names the worker resource
		// selection wants to drop.
		var allTight, slackBest vertexHints
		allTight.loadPos, allTight.dualPos = -1, -1
		slackBest.loadPos, slackBest.dualPos = -1, -1
		slackBest.loadVal, slackBest.dualVal = math.Inf(-1), math.Inf(-1)
		if !(m == q && skipFullTight) {
			if out, ok := s.tryCand(sc, full, E, -1, &allTight, &slackBest); ok {
				return out, true
			}
		}
		if sc.Model == schedule.OnePort {
			// At most one worker row may be slack (Lemma 1), and only when
			// the one-port row is tight instead; last send position first
			// (Lemma 2).
			for k := m - 1; k >= 0; k-- {
				if out, ok := s.tryCand(sc, full, E, k, &allTight, &slackBest); ok {
					return out, true
				}
			}
		}
		if m == 1 {
			break
		}
		drop := -1
		for _, cand := range [...]int{allTight.loadPos, allTight.dualPos, slackBest.loadPos, slackBest.dualPos} {
			if cand >= 0 {
				drop = cand
				break
			}
		}
		if drop < 0 {
			drop = E[m-1]
		}
		w := 0
		for _, pos := range E {
			if pos != drop {
				enrolled[w] = pos
				w++
			}
		}
	}
	return nil, false
}

// tryCand runs one active-set candidate and folds its outcome into the
// level's descent hints; on success it returns the certified loads expanded
// back to all send positions.
func (s *Session) tryCand(sc Scenario, full []float64, E []int, slack int, allTight, slackBest *vertexHints) ([]float64, bool) {
	alpha, ok, h := s.tryVertex(sc, full, E, slack)
	if ok {
		q := len(sc.Send)
		out := grow(&s.u, q)
		for t := range out {
			out[t] = 0
		}
		for r, pos := range E {
			out[pos] = alpha[r]
		}
		return out, true
	}
	if slack < 0 {
		*allTight = h
		return nil, false
	}
	if h.loadPos >= 0 && h.loadVal > slackBest.loadVal {
		slackBest.loadPos, slackBest.loadVal = h.loadPos, h.loadVal
	}
	if h.dualPos >= 0 && h.dualVal > slackBest.dualVal {
		slackBest.dualPos, slackBest.dualVal = h.dualPos, h.dualVal
	}
	return nil, false
}

// tryVertex solves and certifies one active-set candidate: enrolled
// positions E, with the slack row E[slack] (an enrolled index; -1 for
// none) replaced by the tight one-port row. On failure it reports descent
// hints (see vertexHints).
func (s *Session) tryVertex(sc Scenario, full []float64, E []int, slack int) (alpha []float64, ok bool, h vertexHints) {
	p, send := sc.Platform, sc.Send
	q := len(send)
	m := len(E)
	// Assemble the m×m candidate system.
	a := grow(&s.a, m*m)
	for r, pos := range E {
		row := a[r*m : (r+1)*m]
		if r == slack {
			for t, cpos := range E {
				w := p.Workers[send[cpos]]
				row[t] = w.C + w.D
			}
			continue
		}
		src := full[pos*q:]
		for t, cpos := range E {
			row[t] = src[cpos]
		}
	}
	piv := growInt(&s.piv, m)
	h.loadPos, h.dualPos = -1, -1
	if !luFactor(a, piv, m) {
		return nil, false, h
	}
	alpha = grow(&s.alpha, m)
	for r := range alpha {
		alpha[r] = 1
	}
	luSolve(a, piv, m, alpha)
	wc := s.derivedCosts(p)
	feasible := true
	for r, v := range alpha {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false, h
		}
		if v < h.loadVal {
			h.loadPos, h.loadVal = E[r], v
		}
		if !certOK(v*wc[send[E[r]]].cwd, 1) {
			feasible = false
		}
	}
	if feasible {
		h.loadPos = -1
		h.loadVal = 0
		clampLoads(alpha)
	}
	// Dual multipliers of the tight rows (λ for worker rows, μ at the
	// slack index for the port row); computed before the feasibility
	// verdict because a negative λ is the resource-selection hint even
	// when the primal side already failed. Their sum is the dual
	// objective the multipliers are judged against.
	lam := grow(&s.lam, m)
	for r := range lam {
		lam[r] = 1
	}
	luSolveTranspose(a, piv, m, lam)
	dualSum := sum(lam)
	dualOK := true
	for r, l := range lam {
		if !certOK(l, dualSum) {
			dualOK = false
			if r != slack && l < h.dualVal {
				h.dualPos, h.dualVal = E[r], l
			}
		}
	}
	if !feasible {
		return nil, false, h
	}
	// Primal feasibility of the rows outside the tight set: the slack
	// row, every dropped worker's row, and the port constraint(s).
	rowLHS := func(pos int) float64 {
		src := full[pos*q:]
		lhs := 0.0
		for t, cpos := range E {
			lhs += src[cpos] * alpha[t]
		}
		return lhs
	}
	if slack >= 0 && !certOK(1-rowLHS(E[slack]), 1) {
		return nil, false, h
	}
	inE := growInt(&s.mask, q)
	for t := range inE {
		inE[t] = -1
	}
	for r, pos := range E {
		inE[pos] = r
	}
	for pos := 0; pos < q; pos++ {
		if inE[pos] < 0 && !certOK(1-rowLHS(pos), 1) {
			return nil, false, h
		}
	}
	// Port constraints not in the tight set must hold as inequalities.
	if slack < 0 {
		sumC, sumD := 0.0, 0.0
		for r, pos := range E {
			w := p.Workers[send[pos]]
			sumC += alpha[r] * w.C
			sumD += alpha[r] * w.D
		}
		if sc.Model == schedule.TwoPort {
			if !certOK(1-sumC, 1) || !certOK(1-sumD, 1) {
				return nil, false, h
			}
		} else if !certOK(1-(sumC+sumD), 1) {
			return nil, false, h
		}
	}
	if !dualOK {
		return nil, false, h
	}
	// Dropped-variable optimality: for every dropped worker j the dual
	// constraint Σ λ_r·A_{rj} ≥ 1 must hold over the tight rows, where a
	// worker row contributes A_{ij} = c_j·[σ1: j before i] + d_j·[σ2: j
	// after i] and the one-port row contributes c_j + d_j (its λ is μ).
	for pos := 0; pos < q; pos++ {
		if inE[pos] >= 0 {
			continue
		}
		j := send[pos]
		wj := p.Workers[j]
		rj := s.retPos[j]
		val := 0.0
		for r, ipos := range E {
			if r == slack {
				val += lam[r] * (wj.C + wj.D) // μ · g_j
				continue
			}
			i := send[ipos]
			if pos <= ipos {
				val += lam[r] * wj.C
			}
			if rj >= s.retPos[i] {
				val += lam[r] * wj.D
			}
		}
		if !certOK(val-1, 1) {
			return nil, false, h
		}
	}
	return alpha, true, h
}

// fifoTightCertified runs the closed-form FIFO pipeline: chain loads, port
// check, dual chain. A port overrun is reported as rejectPort so the
// ClosedForm tier can cascade to the Theorem 2 bus construction.
func (s *Session) fifoTightCertified(sc Scenario) ([]float64, tightReject) {
	alpha, ok := s.fifoTight(sc.Platform, sc.Send)
	if !ok {
		return nil, rejectOther
	}
	if !portFeasible(sc.Platform, sc.Send, alpha, sc.Model) {
		return nil, rejectPort
	}
	if _, ok := s.fifoDualHint(sc.Platform, sc.Send); !ok {
		return nil, rejectOther
	}
	return alpha, rejectNone
}

// lifoTightCertified runs the closed-form LIFO pipeline: chain loads (port
// feasibility is automatic — the last tight row caps Σα·(c+d) below 1),
// dual back substitution.
func (s *Session) lifoTightCertified(sc Scenario) ([]float64, bool) {
	alpha, ok := s.lifoTight(sc.Platform, sc.Send)
	if !ok {
		return nil, false
	}
	if _, ok := s.lifoDualHint(sc.Platform, sc.Send); !ok {
		return nil, false
	}
	return alpha, true
}
