package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// childBoundsPlatform draws a q-worker platform of one input family:
// family%2 ties d to c through a common z (0) or draws it independently
// (1); (family/2)%3 keeps the costs as drawn (0), ties every worker's c
// and d to one value (1), or scales each worker's links by 1e-6, 1 or 1e6
// so that costs differ by ratios up to 1e12 (2).
func childBoundsPlatform(rng *rand.Rand, q int, family uint8) *platform.Platform {
	z := 0.1 + 2.9*rng.Float64()
	c0 := 0.02 + 0.2*rng.Float64()
	ws := make([]platform.Worker, q)
	for i := range ws {
		w := platform.Worker{C: 0.02 + 0.2*rng.Float64(), W: 0.05 + 0.5*rng.Float64()}
		switch (family / 2) % 3 {
		case 1:
			w.C = c0
		case 2:
			w.C *= []float64{1e-6, 1, 1e6}[rng.Intn(3)]
		}
		if family%2 == 0 {
			w.D = z * w.C
		} else {
			w.D = w.C * (0.05 + 3*rng.Float64())
			if (family/2)%3 == 1 {
				w.D = z * c0
			}
		}
		ws[i] = w
	}
	return platform.New(ws...)
}

// relaxationLP builds the relaxation of rp's current node as an explicit
// LP: the node's worker rows and the model's port row(s).
func relaxationLP(rp *ReturnPrefix) *lp.Problem {
	q := rp.q
	prob := lp.NewMaximize()
	for range rp.send {
		prob.AddVar("", 1)
	}
	for i := 0; i < q+portRows(rp.model); i++ {
		var coefs []lp.Coef
		for t, j := range rp.send {
			var v float64
			switch w := rp.p.Workers[j]; {
			case i < q:
				v = rp.r[i*q+t]
			case rp.model == schedule.OnePort:
				v = w.C + w.D
			case i == q:
				v = w.C
			default:
				v = w.D
			}
			if v != 0 {
				coefs = append(coefs, lp.Coef{Var: t, Value: v})
			}
		}
		prob.AddConstraint("", coefs, lp.LE, 1)
	}
	return prob
}

// exactRelaxationOptimum solves the relaxation of the node tail commits
// in rational arithmetic.
func exactRelaxationOptimum(t *testing.T, p *platform.Platform, send platform.Order, model schedule.Model, tail []int) float64 {
	t.Helper()
	rp, err := NewSession().NewReturnPrefix(p, model, ExactRational)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Reset(send); err != nil {
		t.Fatal(err)
	}
	for _, pos := range tail {
		rp.Push(pos)
	}
	sol, err := relaxationLP(rp).SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("exact relaxation LP terminated %v", sol.Status)
	}
	obj, _ := sol.Float()
	return obj
}

// FuzzReturnPrefixChildBounds holds ChildBounds to the relaxation it
// screens. On a random platform (2 to 7 workers, see childBoundsPlatform),
// port model, send order and committed prefix — walked with a Bound after
// every Push, as the search does — every open child's screened bound must
// be admissible: at least the certified optimum of the child's
// relaxation (ReturnPrefixBound on the extended tail) × (1 − 1e-9). Where Push+Bound
// certifies the child (exact), the screen must have passed its dual check
// and, with its 1/(1−CertTol) safety factor taken off, equal that bound
// within 1e-9 relative.
func FuzzReturnPrefixChildBounds(f *testing.F) {
	for family := uint8(0); family < 6; family++ {
		f.Add(int64(family)+1, uint8(4), family, uint8(1), family%3 == 2)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, family, depth uint8, twoPort bool) {
		rng := rand.New(rand.NewSource(seed))
		q := 2 + int(n%6)
		p := childBoundsPlatform(rng, q, family)
		model := schedule.OnePort
		if twoPort {
			model = schedule.TwoPort
		}
		send := platform.Order(rng.Perm(q))
		sess := NewSession()
		rp, err := sess.NewReturnPrefix(p, model, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Reset(send); err != nil {
			t.Fatal(err)
		}
		rp.Bound()
		var tail []int
		for k := 0; k < int(depth)%q; k++ {
			var open []int
			for pos := 0; pos < q; pos++ {
				if rp.Open(pos) {
					open = append(open, pos)
				}
			}
			pos := open[rng.Intn(len(open))]
			rp.Push(pos)
			rp.Bound()
			tail = append(tail, pos)
		}
		out := make([]float64, q)
		ok := rp.ChildBounds(out)
		oneShot := NewSession()
		for j := 0; j < q; j++ {
			if !rp.Open(j) {
				if !math.IsInf(out[j], 1) {
					t.Fatalf("closed position %d screened to %g, want +Inf", j, out[j])
				}
				continue
			}
			child := append(append([]int(nil), tail...), j)
			want, err := oneShot.ReturnPrefixBound(p, send, model, child)
			if err != nil {
				t.Fatal(err)
			}
			if out[j] < want*(1-1e-9) {
				t.Fatalf("child %v: screened bound %.17g below the relaxation optimum %.17g\nσ1=%v model=%v\n%s",
					child, out[j], want, send, model, p)
			}
			rp.Push(j)
			b, exact, bok := rp.Bound()
			rp.Pop()
			if !bok || !exact {
				continue
			}
			if !ok || math.IsInf(out[j], 1) {
				t.Fatalf("child %v: Push+Bound certifies %.17g, the screen has no bound (ok=%v)\nσ1=%v model=%v\n%s",
					child, b, ok, send, model, p)
			}
			if got := out[j] * (1 - numeric.CertTol); math.Abs(got-b) > 1e-9*b {
				t.Fatalf("child %v: screened bound %.17g (%.17g without its safety factor), certified %.17g\nσ1=%v model=%v\n%s",
					child, out[j], got, b, send, model, p)
			}
		}
	})
}
