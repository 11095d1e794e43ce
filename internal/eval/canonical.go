package eval

import (
	"math"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/schedule"
)

// Degenerate-optimum canonicalisation. On platforms whose enrolled workers
// share identical links (buses), a port-bound optimum is a degenerate face
// of the scenario LP: with every link cost equal, any feasible point that
// saturates the tight port row carries the same total load, so many load
// vectors are simultaneously optimal and the backends would legitimately
// return different vertices (a chain tier's port vertex, the pivot
// tier's final basis, whatever vertex the simplex pivots into). Every schedule-
// producing float64 evaluation therefore funnels through canonicalLoads,
// which detects the degenerate regime and replaces the computed loads by
// the lexicographically smallest optimal load vector (by send position) —
// the same canonical vertex regardless of the backend that found the
// optimum, making results byte-identical across backends.

// degenTol is the port-row tightness threshold of the degeneracy
// detection. It is deliberately the loose CheckTol: a genuinely slack port
// sits far from 1, a genuinely tight one within LP noise of it, and a
// false positive is harmless — the lex-min programs are only feasible on
// the tight face, so a near-miss bails out and keeps the original loads.
const degenTol = numeric.CheckTol

// canonicalSchedule builds the verified schedule of the optimal loads
// alpha, replaced by their canonical vertex where canonicalLoads finds the
// optimum degenerate. A canonical vertex the checker rejects is not
// adopted: at large z the float simplex behind it can pass an infeasible
// lex-min program (a port row a hair short of tight, as a LIFO optimum's
// is) as feasible, while alpha carries its own certificate.
func (s *Session) canonicalSchedule(sc Scenario, alpha []float64) (*schedule.Schedule, error) {
	if out, err := buildSchedule(sc, s.canonicalLoads(sc, alpha)); err == nil {
		return out, nil
	}
	return buildSchedule(sc, alpha)
}

// canonicalLoads returns alpha untouched unless the scenario's optimum is
// detected degenerate (identical links across the send workers and a tight
// port row at alpha), in which case it returns the lexicographically
// smallest optimal loads, computed by minimising each send position in
// turn over the tight-port face. Any failure along the way (an infeasible
// or non-optimal lex-min program) falls back to the original loads.
func (s *Session) canonicalLoads(sc Scenario, alpha []float64) []float64 {
	q := len(sc.Send)
	if q < 2 {
		return alpha
	}
	// Identical links across the enrolled workers (a bus, Theorem 2).
	c0 := sc.Platform.Workers[sc.Send[0]].C
	d0 := sc.Platform.Workers[sc.Send[0]].D
	for _, i := range sc.Send {
		w := sc.Platform.Workers[i]
		if math.Abs(w.C-c0) > numeric.RatioTol*(1+c0) || math.Abs(w.D-d0) > numeric.RatioTol*(1+d0) {
			return alpha
		}
	}
	// A tight port row at the computed optimum.
	sumC, sumD := 0.0, 0.0
	for k, i := range sc.Send {
		sumC += alpha[k] * sc.Platform.Workers[i].C
		sumD += alpha[k] * sc.Platform.Workers[i].D
	}
	var tightSend, tightRecv bool
	if sc.Model == schedule.OnePort {
		tightSend = sumC+sumD >= 1-degenTol
		tightRecv = tightSend
	} else {
		tightSend = sumC >= 1-degenTol
		tightRecv = sumD >= 1-degenTol
	}
	if !tightSend && !tightRecv {
		return alpha
	}
	if canon, ok := s.lexMinLoads(sc, tightSend, tightRecv); ok {
		return canon
	}
	return alpha
}

// lexMinLoads computes the lexicographically smallest loads (by send
// position) on the tight-port optimal face: for k = 0..q−1 it minimises
// α_k subject to the scenario rows, the tight port row(s) as equalities
// and the already-minimised positions bounded above by their minima. The
// programs take no backend-derived inputs — only the scenario and the
// tight-row selection — so every backend that detects the same degeneracy
// solves the same sequence and lands on bit-identical loads.
func (s *Session) lexMinLoads(sc Scenario, tightSend, tightRecv bool) ([]float64, bool) {
	q := len(sc.Send)
	fixed := make([]float64, 0, q)
	var best []float64
	for k := 0; k < q; k++ {
		sol, err := buildLexMinLP(sc, k, tightSend, tightRecv, fixed).Solve()
		if err != nil || sol.Status != lp.Optimal {
			return nil, false
		}
		v := sol.X[k]
		if v < 0 {
			v = 0
		}
		fixed = append(fixed, v)
		best = sol.X
	}
	clampLoads(best)
	return best, true
}

// buildLexMinLP assembles the k-th lex-min program: the scenario program
// with objective −α_k, the tight port row(s) as equalities and
// α_t ≤ fixed_t (plus float slack) for t < k.
func buildLexMinLP(sc Scenario, k int, tightSend, tightRecv bool, fixed []float64) *lp.Problem {
	q := len(sc.Send)
	prob := BuildLP(sc, nil, false)
	for t := 0; t < q; t++ {
		prob.SetObj(t, 0)
	}
	prob.SetObj(k, -1)
	if tightSend {
		prob.SetSense(q, lp.EQ)
	}
	if tightRecv && sc.Model == schedule.TwoPort {
		prob.SetSense(q+1, lp.EQ)
	}
	for t, v := range fixed {
		prob.AddConstraint("", []lp.Coef{{Var: t, Value: 1}}, lp.LE, v+1e-12*(1+v))
	}
	return prob
}
