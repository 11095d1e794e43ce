package eval

import (
	"math"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the chain tiers: the active-set descent for FIFO
// and LIFO scenarios. For those scenario shapes every candidate vertex — all rows
// tight on an enrolled subsequence, or port-tight with one slack row — is
// a chain system solvable in O(m), so the whole search runs without any
// Gaussian elimination:
//
//   - the all-tight candidate is the two-term load recurrence of tight.go;
//   - the port-tight candidate with slack row k parameterises the loads as
//     α = t·X + s·Y (t the chain scale, s = α_k) and closes with the first
//     tight row and the port row — a 2×2 solve;
//   - the duals are chain recurrences parameterised by the total T (and,
//     for port-tight vertices, the port multiplier μ), closed by Σλ = T
//     and the stationarity equation of the slack column — another 2×2;
//   - the dropped-worker checks reduce to prefix sums over send positions.
//
// The dual chains double as descent hints: the most negative multiplier
// names the worker that resource selection wants to drop (Proposition 1),
// which is what lets the descent walk straight to the optimal enrolled
// subset instead of enumerating subsets.

// fifoDualHint runs the O(m) FIFO dual chain and reports both whether the
// multipliers certify (each passes certOK against their sum t) and the
// index (into send) of the most negative multiplier — the
// resource-selection descent hint. On success s.lam holds the multipliers.
func (s *Session) fifoDualHint(p *platform.Platform, send platform.Order) (hint int, ok bool) {
	wc := s.derivedCosts(p)
	q := len(send)
	u := grow(&s.u, q)
	v := grow(&s.v, q)
	pu, pv := 0.0, 0.0
	for k, i := range send {
		w := &wc[i]
		u[k] = (1 - w.dc*pu) * w.invWD
		v[k] = (-w.c - w.dc*pv) * w.invWD
		pu += u[k]
		pv += v[k]
	}
	if d := 1 - pv; d < 1e-12 && d > -1e-12 {
		return -1, false // closure degenerate; let the pivot tier decide
	}
	t := pu / (1 - pv)
	lam := grow(&s.lam, q)
	hint, ok = -1, true
	worst := 0.0
	for k := range u {
		lam[k] = u[k] + t*v[k]
		if !certOK(lam[k], t) {
			ok = false
			if lam[k] < worst {
				worst, hint = lam[k], k
			}
		}
	}
	return hint, ok
}

// lifoDualHint is the LIFO counterpart of fifoDualHint (back substitution
// on the upper-triangular transpose); s.lam holds the multipliers.
func (s *Session) lifoDualHint(p *platform.Platform, send platform.Order) (hint int, ok bool) {
	wc := s.derivedCosts(p)
	lam := grow(&s.lam, len(send))
	suffix := 0.0
	for k := len(send) - 1; k >= 0; k-- {
		w := &wc[send[k]]
		lam[k] = (1 - w.g*suffix) * w.invCWD
		suffix += lam[k]
	}
	hint, ok = -1, true
	worst := 0.0
	for k, l := range lam {
		if !certOK(l, suffix) {
			ok = false
			if l < worst {
				worst, hint = l, k
			}
		}
	}
	return hint, ok
}

// fifoPortVertex solves, in O(m), the one-port FIFO vertex over the
// enrolled workers sub in which every worker row except row k is tight and
// the port row is tight instead (worker k is the one allowed idle worker,
// Lemma 1). It certifies the candidate completely except for the
// dropped-worker checks, which the caller runs with the returned λ and μ.
//
// Loads: subtracting consecutive tight rows chains α as α = t·X + s·Y with
// s = α_k; rows k−1 and k+1 are linked by
//
//	α_{k+1}·(c_{k+1}+w_{k+1}) = α_{k−1}·(w_{k−1}+d_{k−1}) + α_k·(d_k−c_k),
//
// and (t, s) close on the first tight row and the tight port row.
//
// Duals: λ_j = (1 − μ·g_j − c_j·T − (d_j−c_j)·P_{j−1})/(w_j+d_j) with
// λ_k = 0, parameterised affinely in (T, μ); the closures are Σλ = T and
// the stationarity equation of column k.
//
// On success the loads are in s.alpha (by enrolled index), the worker-row
// multipliers in s.lam, and the port multiplier is returned as mu.
func (s *Session) fifoPortVertex(p *platform.Platform, sub platform.Order, k int) (alpha []float64, mu float64, ok bool) {
	m := len(sub)
	if m < 2 {
		// A single enrolled worker has no tight worker row left once its
		// own row goes slack; the all-tight candidate covers m = 1.
		return nil, 0, false
	}
	wc := s.derivedCosts(p)
	X := grow(&s.u, m)
	Y := grow(&s.v, m)
	// The first tight row f closes (t, s) together with the port row. The
	// closure takes row f minus the port row,
	//
	//	w_f·α_f − Σ_{j<f} d_j·α_j − Σ_{j>f} c_j·α_j = 0,
	//
	// whose coefficients (a11, a12) hold no common return block: at large
	// z row f and the port row are both dominated by the same d terms, and
	// their difference formed from rounded row sums would cancel most of
	// its digits. The port row's coefficients (a21, a22) accumulate in the
	// same pass that chains X and Y.
	f := 0
	if k == 0 {
		f = 1
	}
	a11, a12 := 0.0, 0.0
	a21, a22 := 0.0, 0.0
	for r := 0; r < m; r++ {
		w := &wc[sub[r]]
		switch {
		case r == k:
			X[r], Y[r] = 0, 1
		case r == 0:
			X[r], Y[r] = 1, 0
		case r == k+1 && k > 0:
			X[r] = X[k-1] * wc[sub[k-1]].wd * w.invCW
			Y[r] = wc[sub[k]].dc * w.invCW
		case r == k+1: // k == 0: the tight chain restarts at row 1
			X[r], Y[r] = 1, 0
		default: // rows r-1 and r both tight
			fct := wc[sub[r-1]].wd * w.invCW
			X[r] = X[r-1] * fct
			Y[r] = Y[r-1] * fct
		}
		a21 += X[r] * w.g
		a22 += Y[r] * w.g
		switch {
		case r < f:
			a11 -= X[r] * w.d
			a12 -= Y[r] * w.d
		case r > f:
			a11 -= X[r] * w.c
			a12 -= Y[r] * w.c
		}
	}
	wf := wc[sub[f]].w
	a11 += X[f] * wf
	a12 += Y[f] * wf
	det := a11*a22 - a12*a21
	if det < 1e-300 && det > -1e-300 {
		return nil, 0, false
	}
	t := -a12 / det
	sv := a11 / det
	alpha = grow(&s.alpha, m)
	loadsOK := true
	// Loads, the slack row's inequality (worker k's idle time ≥ 0) and the
	// NaN guard share one pass; the slack row's send prefix stops at k.
	slackLHS := 0.0
	for r := 0; r < m; r++ {
		w := &wc[sub[r]]
		a := t*X[r] + sv*Y[r]
		alpha[r] = a
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, 0, false
		}
		if !certOK(a*w.cwd, 1) {
			loadsOK = false
		}
		if r <= k {
			slackLHS += a * w.c
		}
		if r >= k {
			slackLHS += a * w.d
		}
	}
	if !loadsOK {
		return nil, 0, false
	}
	clampLoads(alpha)
	slackLHS += alpha[k] * wc[sub[k]].w
	if !certOK(1-slackLHS, 1) {
		return nil, 0, false
	}
	// Dual chain in (T, μ): λ_j = l0[j] + T·lT[j] + μ·lM[j], λ_k = 0.
	l0 := grow(&s.d0, m)
	lT := grow(&s.dT, m)
	lM := grow(&s.dM, m)
	p0, pT, pM := 0.0, 0.0, 0.0 // prefix sums P_{j-1} of the three parts
	k0, kT, kM := 0.0, 0.0, 0.0 // prefix sums at column k
	for j := 0; j < m; j++ {
		if j == k {
			l0[j], lT[j], lM[j] = 0, 0, 0
			k0, kT, kM = p0, pT, pM
			continue
		}
		w := &wc[sub[j]]
		l0[j] = (1 - w.dc*p0) * w.invWD
		lT[j] = (-w.c - w.dc*pT) * w.invWD
		lM[j] = (-w.g - w.dc*pM) * w.invWD
		p0 += l0[j]
		pT += lT[j]
		pM += lM[j]
	}
	// Closure A: stationarity at column k:
	//   c_k·(T − P_{k−1}) + d_k·P_{k−1} + μ·g_k = 1
	// with P_{k−1} = k0 + T·kT + μ·kM.
	wk := &wc[sub[k]]
	// (c_k + dc_k·kT)·T + (g_k + dc_k·kM)·μ = 1 − dc_k·k0
	b11 := wk.c + wk.dc*kT
	b12 := wk.g + wk.dc*kM
	r1 := 1 - wk.dc*k0
	// Closure B: Σλ = T → (ΣlT − 1)·T + ΣlM·μ = −Σl0.
	b21 := pT - 1
	b22 := pM
	r2 := -p0
	det = b11*b22 - b12*b21
	if det < 1e-300 && det > -1e-300 {
		return nil, 0, false
	}
	T := (r1*b22 - b12*r2) / det
	mu = (b11*r2 - r1*b21) / det
	// The dual objective Σλ + μ = T + μ is the scale of every multiplier.
	if !certOK(mu, T+mu) {
		return nil, 0, false
	}
	lam := grow(&s.lam, m)
	for j := 0; j < m; j++ {
		lam[j] = l0[j] + T*lT[j] + mu*lM[j]
		if !certOK(lam[j], T+mu) {
			return nil, 0, false
		}
	}
	return alpha, mu, true
}

// chainOptRecord captures the structure of a certified chain-search
// optimum for the incremental sweep's warm start: which send positions are
// enrolled, the candidate shape (all-tight, or port-tight with a slack
// worker), and the certificate pieces needed to re-verify the candidate
// after an adjacent transposition. Slices are appended in place so a
// long-lived record allocates only on growth.
type chainOptRecord struct {
	rho         float64
	pos         []int     // enrolled send positions, ascending
	alpha       []float64 // loads by enrolled rank
	lam         []float64 // worker-row multipliers by enrolled rank
	mu          float64   // port multiplier (0 for all-tight candidates)
	slackWorker int       // worker index of the slack row, -1 if all tight
}

func (r *chainOptRecord) set(E []int, alpha, lam []float64, mu float64, slackWorker int) {
	r.pos = append(r.pos[:0], E...)
	r.alpha = append(r.alpha[:0], alpha...)
	r.lam = append(r.lam[:0], lam...)
	r.mu = mu
	r.slackWorker = slackWorker
	r.rho = sum(alpha)
}

// tightCandidate solves the all-tight chain candidate on the enrolled send
// positions E of sc, whose workers in send order are sub, and certifies it
// in the one order every caller shares: the load chain, the port check
// (FIFO only: LIFO never saturates the port), the dual chain and the
// dropped-worker checks. It returns the loads by enrolled rank (nil when
// the chain is degenerate), the dual chain's descent hint (see
// fifoDualHint), whether the port and the dual certify, and whether the
// whole candidate does; on success s.lam holds its multipliers. Auto's
// descent, the sweep's full-enrollment candidate and its cached-shape
// re-solve all certify through here, so one candidate has one value
// whichever path asks.
func (s *Session) tightCandidate(sc Scenario, E []int, sub platform.Order, lifo bool) (alpha []float64, hint int, portOK, dualOK, ok bool) {
	p := sc.Platform
	chainOK := false
	if lifo {
		alpha, chainOK = s.lifoTight(p, sub)
	} else {
		alpha, chainOK = s.fifoTight(p, sub)
	}
	if !chainOK {
		return nil, -1, false, false, false
	}
	portOK = lifo || portFeasible(p, sub, alpha, sc.Model)
	if lifo {
		hint, dualOK = s.lifoDualHint(p, sub)
	} else {
		hint, dualOK = s.fifoDualHint(p, sub)
	}
	ok = portOK && dualOK && s.chainDroppedOK(sc, E, alpha, s.lam[:len(E)], 0, lifo)
	return alpha, hint, portOK, dualOK, ok
}

// chainSearch runs the active-set descent for FIFO and LIFO scenarios
// using the O(m) chains for every candidate. Per level, over the enrolled
// subsequence:
//
//  1. solve and certify the all-tight chain (tightCandidate); if it
//     certifies, done;
//  2. on a port overrun (one-port FIFO only — LIFO never saturates the
//     port): scan the port-tight vertices, slack row k = m−1 down to 0;
//  3. otherwise drop the dual chain's most negative position (at a
//     port-bound level with a clean dual, the most port-hungry worker;
//     else the last position) and descend.
//
// Returns loads by send position of the full scenario. When rec is non-nil
// the certified optimum's structure is recorded into it. initE optionally
// restricts the top of the descent to a subset of enrolled send positions
// (ascending; nil enrolls everything) — the incremental sweep uses it to
// resume from the previous permutation's optimal active set.
func (s *Session) chainSearch(sc Scenario, lifo bool, rec *chainOptRecord, initE []int) ([]float64, bool) {
	p := sc.Platform
	q := len(sc.Send)
	top := q
	enrolled := growInt(&s.enrolled, q)
	if initE == nil {
		for i := range enrolled {
			enrolled[i] = i
		}
	} else {
		top = copy(enrolled, initE)
	}
	sub := growInt(&s.sub, q)
	expand := func(E []int, alpha []float64) []float64 {
		out := grow(&s.work, q)
		for t := range out {
			out[t] = 0
		}
		for r, pos := range E {
			out[pos] = alpha[r]
		}
		return out
	}
	for m := top; m >= 1; m-- {
		E := enrolled[:m]
		// The enrolled subsequence as an order (worker indices).
		for r, pos := range E {
			sub[r] = sc.Send[pos]
		}
		subOrder := platform.Order(sub[:m])
		alpha, hint, portOK, dualOK, ok := s.tightCandidate(sc, E, subOrder, lifo)
		if ok {
			if rec != nil {
				rec.set(E, alpha, s.lam[:m], 0, -1)
			}
			return expand(E, alpha), true
		}
		if alpha == nil {
			return nil, false // degenerate chain; let the pivot tier decide
		}
		// Port-bound vertices: one-port FIFO only, and only when the dual
		// chain is clean — a negative chain multiplier means resource
		// selection wants a drop first, so scanning the port vertices of
		// the current (too large) enrolled set would be wasted work.
		if dualOK && !portOK && !lifo && sc.Model == schedule.OnePort {
			for k := m - 1; k >= 0; k-- {
				va, mu, ok := s.fifoPortVertex(p, subOrder, k)
				if ok && s.chainDroppedOK(sc, E, va, s.lam[:m], mu, lifo) {
					if rec != nil {
						rec.set(E, va, s.lam[:m], mu, subOrder[k])
					}
					return expand(E, va), true
				}
			}
		}
		if m == 1 {
			break
		}
		drop := m - 1
		switch {
		case hint >= 0:
			drop = hint
		case !portOK:
			// Port-bound level with a clean relaxed dual: resource
			// selection at a saturated port sheds the worker that consumes
			// the most port time per unit load (largest c+d). The choice is
			// heuristic; certificates make a wrong drop slow, never wrong.
			wc := s.derivedCosts(p)
			worstG := -1.0
			for r, i := range subOrder {
				if g := wc[i].g; g > worstG {
					worstG, drop = g, r
				}
			}
		}
		copy(enrolled[drop:], enrolled[drop+1:m])
	}
	return nil, false
}

// chainDroppedOK verifies the full-LP certificate parts that concern the
// dropped workers of a chain candidate, in O(q) via prefix sums:
//
//   - primal: every dropped worker's row must hold as an inequality,
//     LHS_j = Σ_{i∈E, before j in σ1} α_i·c_i + Σ_{i∈E, after j in σ2} α_i·d_i ≤ 1
//     (the dropped worker's own terms vanish with α_j = 0);
//   - dual: Σ_{i∈E} λ_i·A_{ij} + μ·(c_j+d_j) ≥ 1 with
//     A_{ij} = c_j·[j before i in σ1] + d_j·[j after i in σ2].
//
// For FIFO both conditions reduce to prefix/suffix sums over send
// positions; for LIFO "after in σ2" is "before in σ1". alpha and lam are
// indexed by enrolled index; mu is the port multiplier of the candidate
// (zero for all-tight candidates).
func (s *Session) chainDroppedOK(sc Scenario, E []int, alpha, lam []float64, mu float64, lifo bool) bool {
	q := len(sc.Send)
	m := len(E)
	if m == q {
		return true
	}
	wc := s.derivedCosts(sc.Platform)
	ei := 0 // enrolled index of the next enrolled position ≥ cursor
	preAC, preAD, preLam := 0.0, 0.0, 0.0
	totAD, totLam := 0.0, 0.0
	for r := 0; r < m; r++ {
		totAD += alpha[r] * wc[sc.Send[E[r]]].d
		totLam += lam[r]
	}
	for pos := 0; pos < q; pos++ {
		if ei < m && E[ei] == pos {
			w := &wc[sc.Send[pos]]
			preAC += alpha[ei] * w.c
			preAD += alpha[ei] * w.d
			preLam += lam[ei]
			ei++
			continue
		}
		// Dropped worker at this send position.
		wj := &wc[sc.Send[pos]]
		var rowLHS, dualLHS float64
		if lifo {
			// σ2 = reverse σ1: "after j in σ2" = "before j in σ1", so both
			// the c and d terms of A_{ij} select enrolled rows after pos.
			rowLHS = preAC + preAD
			dualLHS = wj.g * (totLam - preLam)
		} else {
			// FIFO: "after j in σ2" = "at or after j in σ1".
			rowLHS = preAC + (totAD - preAD)
			dualLHS = wj.c*(totLam-preLam) + wj.d*preLam
		}
		dualLHS += mu * wj.g
		if !certOK(1-rowLHS, 1) || !certOK(dualLHS-1, 1) {
			return false
		}
	}
	return true
}
