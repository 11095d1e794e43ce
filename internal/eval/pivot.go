package eval

import (
	"math"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file implements the pivot tier: one certified solver for every
// scenario LP the chain tiers do not settle — general (σ1, σ2) pairs, FIFO
// and LIFO optima no chain descent certifies, pair-search leaves, the
// one-shot return-prefix relaxation and the affine model's programs,
// whose fixed costs lower the right-hand sides. Every caller hands it the
// q×q worker rows of its program in send-position space (row s is the
// constraint of the worker at send position s, column t the load at send
// position t) and the rows' right-hand sides in BuildLP's layout, nil
// meaning 1 on every row; the solver adds the model's port row(s).
//
// A dense primal simplex runs from α = 0, which is feasible whenever every
// right-hand side is non-negative (every coefficient is non-negative), so
// there is no phase 1; a negative right-hand side makes the program
// infeasible outright, which ScenarioLoadsRHS reports before pivoting.
// Columns are scaled by the load footprint 1/(c+w+d), so the
// variables are the time each worker's load occupies. Entering columns
// follow Dantzig's rule, switching to Bland's after a degenerate pivot
// and back after a non-degenerate one (the objective then rose, so no
// basis repeats), under a hard pivot cap. The simplex only finds the optimal structure: its
// final basis names the basic loads E and the tight rows T (|E| = |T|),
// and that vertex is re-solved by LU on the unscaled rows, α = B⁻¹·rhs_T,
// and accepted only on the full KKT certificate, judged component by
// component with certOK:
//
//   - primal: every load of E passes by its time footprint, every row
//     outside T (worker or port) holds with a non-negative slack
//     rhs_i − lhs_i;
//   - dual: the multipliers λ = B⁻ᵀ·1 of the tight rows pass against
//     the dual objective Σ λ_r·rhs_r;
//   - every load outside E has a dual column surplus Σ_T λ_r·A_rj − 1 ≥ 0,
//     so keeping it at zero is optimal.
//
// A certified vertex is the LP optimum by strong duality, whatever rows
// are tight: any number of idle workers (a leaf with σ2 ≠ σ1 can idle
// several), and under the two-port model either or both port rows.

// pivotCap bounds the simplex pivots per program with m rows. On 12,000
// scenarios of TestPivotCertifiesCorpus's draw (up to eight workers,
// m ≤ 10) no solve took more than 13 pivots; the cap only turns a
// numerical breakdown into a counted simplex fallback.
func pivotCap(m int) int { return 8 * m }

// Tolerances of the pivot loop. They steer the search only — the
// certificate decides acceptance — so they sit well below CertTol: a
// column enters when its reduced cost exceeds pivotRC relative to its
// scale, a tableau entry below pivotTol never pivots, and a leaving row
// whose basic value is at most pivotDegen makes the pivot degenerate.
const (
	pivotRC    = 1e-12
	pivotTol   = 1e-11
	pivotDegen = 1e-13
)

// ForcePivotMiss is a test hook: while set, every pivot solve reports a
// certificate miss, so tests here and in internal/core can drive the
// counted simplex fallback. Production code never sets it.
var ForcePivotMiss bool

// portRows returns the number of port rows of the model's program.
func portRows(model schedule.Model) int {
	if model == schedule.TwoPort {
		return 2
	}
	return 1
}

// lpCoef returns the coefficient of the load at send position j in row i
// of the program: a worker row of full for i < q, then the port row(s) —
// c+d under the one-port model, c and d under the two-port model.
func lpCoef(full []float64, wc []workerCosts, send platform.Order, model schedule.Model, i, j int) float64 {
	q := len(send)
	if i < q {
		return full[i*q+j]
	}
	w := &wc[send[j]]
	switch {
	case model == schedule.OnePort:
		return w.c + w.d
	case i == q:
		return w.c
	default:
		return w.d
	}
}

// rhsAt returns the right-hand side of row i: rhs[i], or 1 when rhs is nil.
func rhsAt(rhs []float64, i int) float64 {
	if rhs == nil {
		return 1
	}
	return rhs[i]
}

// pivotLoads solves the program max Σα subject to full·α ≤ rhs on the
// worker rows, the port row(s) ≤ rhs and α ≥ 0 (rhs in BuildLP's layout,
// non-negative; nil means 1 on every row), and returns its certified
// optimal loads by send position (session-owned, valid until the next
// call) and ok; ok is false when the pivot cap is hit or the final vertex
// fails its certificate.
func (s *Session) pivotLoads(p *platform.Platform, send platform.Order, model schedule.Model, full, rhs []float64) ([]float64, bool) {
	if ForcePivotMiss {
		return nil, false
	}
	wc := s.derivedCosts(p)
	q := len(send)
	m := q + portRows(model)
	n := q + m // q scaled loads, then one slack per row
	stride := n + 1
	tab := grow(&s.tab, m*stride)
	red := grow(&s.red, n)
	basis := growInt(&s.basis, m)
	for i := 0; i < m; i++ {
		row := tab[i*stride : (i+1)*stride]
		for j := 0; j < q; j++ {
			row[j] = lpCoef(full, wc, send, model, i, j) * wc[send[j]].invCWD
		}
		for j := q; j < n; j++ {
			row[j] = 0
		}
		row[q+i] = 1
		row[n] = rhsAt(rhs, i)
		basis[i] = q + i
	}
	for j := 0; j < n; j++ {
		red[j] = 0
		if j < q {
			red[j] = wc[send[j]].invCWD
		}
	}
	obj := 0.0
	bland := false
	for pivots := 0; ; pivots++ {
		// Entering column: a load whose reduced cost, in its own footprint
		// units, exceeds pivotRC; a slack whose negative multiplier
		// exceeds pivotRC against the dual objective.
		e, best := -1, 0.0
		for j := 0; j < n; j++ {
			scale := obj
			if j < q {
				scale = wc[send[j]].invCWD
			}
			if !(red[j] > pivotRC*scale) {
				continue
			}
			if bland {
				e = j
				break
			}
			if red[j] > best {
				e, best = j, red[j]
			}
		}
		if e < 0 {
			break
		}
		if pivots == pivotCap(m) {
			return nil, false
		}
		// Ratio test; ties go to the smallest basic column under Bland's
		// rule, to the largest pivot element otherwise.
		r, ratio := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i*stride+e]
			if !(a > pivotTol) {
				continue
			}
			b := math.Max(tab[i*stride+n], 0)
			t := b / a
			switch {
			case t < ratio:
			case t > ratio || r < 0:
				continue
			case bland && basis[i] > basis[r]:
				continue
			case !bland && a <= tab[r*stride+e]:
				continue
			}
			r, ratio = i, t
		}
		if r < 0 {
			return nil, false // unbounded: impossible with a port row, so numerical
		}
		bland = tab[r*stride+n] <= pivotDegen
		prow := tab[r*stride : (r+1)*stride]
		inv := 1 / prow[e]
		for j := range prow {
			prow[j] *= inv
		}
		prow[e] = 1
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			row := tab[i*stride : (i+1)*stride]
			if f := row[e]; f != 0 {
				for j := range row {
					row[j] -= f * prow[j]
				}
				row[e] = 0
			}
		}
		f := red[e]
		for j := range red {
			red[j] -= f * prow[j]
		}
		red[e] = 0
		obj += f * prow[n]
		basis[r] = e
	}
	return s.certifyBasis(p, send, model, full, rhs, basis[:m])
}

// certifyBasis re-solves the vertex named by the final simplex basis —
// basic loads E, tight rows T (the rows whose slack is non-basic) — on the
// unscaled rows and checks its KKT certificate (see the file comment). The
// square system lists E by ascending send position and, for each, its own
// worker row when tight, else the next tight row nobody owns: the port
// row(s) first, then tight worker rows outside E. The order decides how
// ties in the LU's partial pivoting break, and so the last bits of the
// loads: on the vertices Lemma 1 allows (all rows of E tight, or one
// replaced by the one-port row) it is the order the values pinned by
// TestPairSearchServedShapeGolden were computed in.
func (s *Session) certifyBasis(p *platform.Platform, send platform.Order, model schedule.Model, full, rhs []float64, basis []int) ([]float64, bool) {
	wc := s.derivedCosts(p)
	q := len(send)
	m := len(basis)
	// inE[t] is the rank of load t in E (-1 outside); tight[i] marks row i.
	inE := growInt(&s.mask, q)
	tight := growInt(&s.tight, m)
	for t := range inE {
		inE[t] = -1
	}
	for i := range tight {
		tight[i] = 1
	}
	k := 0
	for _, b := range basis {
		if b < q {
			inE[b] = 0
			k++
		} else {
			tight[b-q] = 0
		}
	}
	E := growInt(&s.enrolled, k)[:0]
	for t := 0; t < q; t++ {
		if inE[t] == 0 {
			inE[t] = len(E)
			E = append(E, t)
		}
	}
	// Row order: own worker row, else the next unowned tight row. Both
	// the basis and T have k members, so every tight row is used once.
	spare := growInt(&s.spare, m)[:0]
	for i := q; i < m; i++ {
		if tight[i] == 1 {
			spare = append(spare, i)
		}
	}
	for t := 0; t < q; t++ {
		if tight[t] == 1 && inE[t] < 0 {
			spare = append(spare, t)
		}
	}
	rows := growInt(&s.sub, k)[:0]
	for _, t := range E {
		switch {
		case tight[t] == 1:
			rows = append(rows, t)
		case len(spare) > 0:
			rows = append(rows, spare[0])
			spare = spare[1:]
		default:
			return nil, false
		}
	}
	if k == 0 || len(spare) != 0 {
		return nil, false
	}
	a := grow(&s.a, k*k)
	for r, i := range rows {
		for c, t := range E {
			a[r*k+c] = lpCoef(full, wc, send, model, i, t)
		}
	}
	piv := growInt(&s.piv, k)
	if !luFactor(a, piv, k) {
		return nil, false
	}
	alpha := grow(&s.alpha, k)
	lam := grow(&s.lam, k)
	for r, i := range rows {
		alpha[r] = rhsAt(rhs, i)
		lam[r] = 1
	}
	luSolve(a, piv, k, alpha)
	luSolveTranspose(a, piv, k, lam)
	for c, v := range alpha {
		if !certOK(v*wc[send[E[c]]].cwd, 1) {
			return nil, false
		}
	}
	clampLoads(alpha)
	dualSum := 0.0
	for r, i := range rows {
		dualSum += lam[r] * rhsAt(rhs, i)
	}
	for _, l := range lam {
		if !certOK(l, dualSum) {
			return nil, false
		}
	}
	out := grow(&s.x, q)
	for t := range out {
		out[t] = 0
	}
	for c, t := range E {
		out[t] = alpha[c]
	}
	// Rows outside T must hold; the rows of T are tight by construction.
	for i := 0; i < m; i++ {
		if tight[i] == 1 {
			continue
		}
		lhs := 0.0
		for c, t := range E {
			lhs += lpCoef(full, wc, send, model, i, t) * alpha[c]
		}
		if !certOK(rhsAt(rhs, i)-lhs, 1) {
			return nil, false
		}
	}
	// Loads outside E: the dual column over the system's rows.
	for t := 0; t < q; t++ {
		if inE[t] >= 0 {
			continue
		}
		val := 0.0
		for r, i := range rows {
			val += lam[r] * lpCoef(full, wc, send, model, i, t)
		}
		if !certOK(val-1, 1) {
			return nil, false
		}
	}
	return out, true
}
