package eval

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the tight-system pieces: the O(p) FIFO and LIFO
// load chains (the closed forms of the chain tiers), the certificate
// predicate every tier shares, and the p×p LU factorisation with its
// primal and transpose solves that the pivot tier and the pair search's
// bounds re-solve their vertices with.
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
