package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// sendBound is the LP reference of the send-order relaxation, the root of
// the return-prefix relaxation: an upper bound on the optimal throughput
// over EVERY return order sharing the given send order, from the LP whose
// per-worker rows keep only the send prefix, the computation term and the
// worker's own return message,
//
//	Σ_{send pos ≤ s} α_j·c_j + α_i·(w_i + d_i) ≤ 1,
//
// with the port constraint(s) unchanged. Any σ2's per-worker constraint
// only adds further d terms on the left, so the relaxation is valid for
// all σ2 simultaneously.
func sendBound(p *platform.Platform, send platform.Order, model schedule.Model) (float64, error) {
	if err := validate(Scenario{Platform: p, Send: send, Return: send, Model: model}); err != nil {
		return 0, err
	}
	prob := lp.NewMaximize()
	for range send {
		prob.AddVar("", 1)
	}
	var coefs []lp.Coef
	for si, i := range send {
		coefs = coefs[:0]
		for t, j := range send[:si+1] {
			coefs = append(coefs, lp.Coef{Var: t, Value: p.Workers[j].C})
		}
		w := p.Workers[i]
		coefs = append(coefs, lp.Coef{Var: si, Value: w.W + w.D})
		prob.AddConstraint("", coefs, lp.LE, 1)
	}
	port := func(cost func(platform.Worker) float64) {
		coefs = coefs[:0]
		for t, j := range send {
			coefs = append(coefs, lp.Coef{Var: t, Value: cost(p.Workers[j])})
		}
		prob.AddConstraint("", coefs, lp.LE, 1)
	}
	if model == schedule.TwoPort {
		port(func(w platform.Worker) float64 { return w.C })
		port(func(w platform.Worker) float64 { return w.D })
	} else {
		port(func(w platform.Worker) float64 { return w.C + w.D })
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("send-bound LP terminated %v", sol.Status)
	}
	return sol.Objective, nil
}

// The return-prefix bound property test: on 240 random platforms across
// every shape family, the bound must be admissible — it never understates
// the true optimum of ANY completion of the committed prefix
// (equivalently, the implied makespan lower bound load/ρ never exceeds a
// completion's true makespan) — monotone non-increasing in prefix length,
// and equal to the scenario optimum at a full prefix. Admissibility is
// what makes the branch-and-bound sound: a subtree is discarded only when
// its bound cannot beat the incumbent, which the property guarantees no
// completion inside the subtree could have done either.
func TestReturnPrefixBoundAdmissibleAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	fresh := NewSession()
	sess := NewSession()
	const trials = 240
	for trial := 0; trial < trials; {
		p := randomAgreementPlatform(rng)
		n := p.P()
		if n > 5 {
			continue // keep the per-prefix completion sweeps cheap
		}
		trial++
		send := platform.Order(rng.Perm(n))
		model := schedule.OnePort
		if trial%5 == 0 {
			model = schedule.TwoPort
		}
		// Walk one random root-leaf commitment path; at every prefix along
		// it, check the bound against random (and at full depth, the exact)
		// completions.
		tail := make([]int, 0, n)
		openPos := make([]int, n)
		for i := range openPos {
			openPos[i] = i
		}
		prev := math.Inf(1)
		for depth := 0; depth <= n; depth++ {
			bound, err := sess.ReturnPrefixBound(p, send, model, tail)
			if err != nil {
				t.Fatal(err)
			}
			if bound > prev*(1+1e-9) {
				t.Fatalf("trial %d depth %d: bound %.12g exceeds its parent %.12g — not monotone\nσ1=%v tail=%v\n%s",
					trial, depth, bound, prev, send, tail, p)
			}
			prev = bound
			// Admissibility against completions consistent with the prefix:
			// the committed workers occupy the LAST return positions (in
			// commitment order), the open workers fill the front.
			checks := 3
			if depth == n {
				checks = 1
			}
			for k := 0; k < checks; k++ {
				ret := make(platform.Order, n)
				for i, pos := range tail {
					ret[n-1-i] = send[pos]
				}
				perm := rng.Perm(len(openPos))
				for i, oi := range perm {
					ret[i] = send[openPos[oi]]
				}
				sc := Scenario{Platform: p, Send: send, Return: ret, Model: model}
				rho, err := fresh.Throughput(sc, Simplex)
				if err != nil {
					t.Fatal(err)
				}
				if rho > bound*(1+1e-9) {
					t.Fatalf("trial %d depth %d: completion σ2=%v achieves %.12g above the bound %.12g\nσ1=%v tail=%v\n%s",
						trial, depth, ret, rho, bound, send, tail, p)
				}
				if depth == n {
					// A full prefix admits exactly one completion: the bound
					// must collapse to its optimum.
					if d := bound - rho; d > 1e-9*(1+rho) || d < -1e-9*(1+rho) {
						t.Fatalf("trial %d: full-prefix bound %.12g != scenario optimum %.12g", trial, bound, rho)
					}
				}
			}
			if depth == n {
				break
			}
			// Commit one more random open worker.
			k := rng.Intn(len(openPos))
			tail = append(tail, openPos[k])
			openPos = append(openPos[:k], openPos[k+1:]...)
		}
	}
}

// TestReturnPrefixExactLeaves pins the exact mode of the return-prefix
// state: Bound never reports a bound (no float64 value may prune or
// certify an exact comparison), and every leaf's throughput is the exact
// LP optimum Session.Throughput reports under ExactRational, bit for bit.
func TestReturnPrefixExactLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(2719))
	for trial := 0; trial < 6; trial++ {
		n := 3 + trial%2
		ws := make([]platform.Worker, n)
		for i := range ws {
			ws[i] = platform.Worker{C: 0.02 + 0.2*rng.Float64(), W: 0.05 + 0.5*rng.Float64(), D: 0.01 + 0.3*rng.Float64()}
		}
		p := platform.New(ws...)
		model := schedule.OnePort
		if trial >= 3 {
			model = schedule.TwoPort
		}
		rp, err := NewSession().NewReturnPrefix(p, model, ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		send := platform.Order(rng.Perm(n))
		if err := rp.Reset(send); err != nil {
			t.Fatal(err)
		}
		for _, pos := range rng.Perm(n) {
			rp.Push(pos)
			if _, _, ok := rp.Bound(); ok {
				t.Fatalf("trial %d: exact Bound reported a float64 bound at depth %d", trial, rp.Depth())
			}
		}
		got, err := rp.LeafThroughput()
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSession().Throughput(Scenario{Platform: p, Send: send, Return: rp.ReturnOrder(), Model: model}, ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: exact leaf %.17g != exact scenario %.17g", trial, got, want)
		}
	}
}

// TestReturnPrefixBoundMatchesSendBound pins the root of the prefix
// relaxation to the existing send-order relaxation: with nothing
// committed, both relax each worker row to its send prefix, own
// processing and own return message, so the two bounds must coincide.
func TestReturnPrefixBoundMatchesSendBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	sess := NewSession()
	for trial := 0; trial < 40; trial++ {
		p := randomAgreementPlatform(rng)
		if p.P() > 6 {
			continue
		}
		send := platform.Order(rng.Perm(p.P()))
		root, err := sess.ReturnPrefixBound(p, send, schedule.OnePort, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := sendBound(p, send, schedule.OnePort)
		if err != nil {
			t.Fatal(err)
		}
		if !agreeEq(root, sb) {
			t.Fatalf("trial %d: empty-prefix bound %.12g != SendBound %.12g (σ1=%v)\n%s", trial, root, sb, send, p)
		}
	}
}

// TestReturnPrefixIncrementalMatchesOneShot walks random Push/Pop
// sequences and checks the incremental Bound against the from-scratch
// one-shot: a certified (exact) bound must equal the relaxation optimum,
// and an uncertified one may only be looser — the one-shot optimum is its
// floor, never its ceiling.
func TestReturnPrefixIncrementalMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	sess := NewSession()
	oneShot := NewSession()
	for trial := 0; trial < 60; trial++ {
		p := randomAgreementPlatform(rng)
		n := p.P()
		if n > 5 {
			continue
		}
		send := platform.Order(rng.Perm(n))
		rp, err := sess.NewReturnPrefix(p, schedule.OnePort, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Reset(send); err != nil {
			t.Fatal(err)
		}
		var tail []int
		for step := 0; step < 12; step++ {
			// Random walk: push an open position, or pop.
			var open []int
			for pos := 0; pos < n; pos++ {
				if rp.Open(pos) {
					open = append(open, pos)
				}
			}
			if len(open) > 0 && (len(tail) == 0 || rng.Intn(3) > 0) {
				pos := open[rng.Intn(len(open))]
				rp.Push(pos)
				tail = append(tail, pos)
			} else if len(tail) > 0 {
				rp.Pop()
				tail = tail[:len(tail)-1]
			}
			got, exact, ok := rp.Bound()
			if !ok {
				continue
			}
			want, err := oneShot.ReturnPrefixBound(p, send, schedule.OnePort, tail)
			if err != nil {
				t.Fatal(err)
			}
			if exact {
				if !agreeEq(got, want) {
					t.Fatalf("trial %d tail %v: certified incremental bound %.12g != relaxation optimum %.12g", trial, tail, got, want)
				}
			} else if got < want*(1-1e-9) {
				t.Fatalf("trial %d tail %v: incremental bound %.12g undershoots the relaxation optimum %.12g", trial, tail, got, want)
			}
		}
	}
}

// TestReturnPrefixUpdateMatchesRefactor pins the Sherman–Morrison bound
// path to the from-scratch one: two ReturnPrefix instances walk the SAME
// random Push/Pop trajectory — one on the maintained-inverse path, one
// with SetIncremental(false) so every Bound refactorises — and at every
// node their bounds must agree to 1e-12 relative with identical exact/ok
// flags. 5000+ walk steps across platforms up to p = 8 drive the inverse
// through long update chains (well past refactorPeriod on no trial, so
// the per-call refinement alone must hold the agreement).
func TestReturnPrefixUpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	sess := NewSession()
	steps := 0
	for trial := 0; steps < 5000; trial++ {
		p := randomAgreementPlatform(rng)
		n := p.P()
		send := platform.Order(rng.Perm(n))
		model := schedule.OnePort
		if trial%4 == 0 {
			model = schedule.TwoPort
		}
		inc, err := sess.NewReturnPrefix(p, model, Auto)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sess.NewReturnPrefix(p, model, Auto)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetIncremental(false)
		if err := inc.Reset(send); err != nil {
			t.Fatal(err)
		}
		if err := ref.Reset(send); err != nil {
			t.Fatal(err)
		}
		depth := 0
		for step := 0; step < 60; step++ {
			var open []int
			for pos := 0; pos < n; pos++ {
				if inc.Open(pos) {
					open = append(open, pos)
				}
			}
			if len(open) > 0 && (depth == 0 || rng.Intn(3) > 0) {
				pos := open[rng.Intn(len(open))]
				inc.Push(pos)
				ref.Push(pos)
				depth++
			} else if depth > 0 {
				inc.Pop()
				ref.Pop()
				depth--
			} else {
				continue
			}
			steps++
			gb, gx, gok := inc.Bound()
			wb, wx, wok := ref.Bound()
			if gok != wok || gx != wx {
				t.Fatalf("trial %d step %d depth %d: incremental flags (exact=%v ok=%v) != from-scratch (exact=%v ok=%v)\nσ1=%v\n%s",
					trial, step, depth, gx, gok, wx, wok, send, p)
			}
			if !gok {
				continue
			}
			if d := math.Abs(gb - wb); d > 1e-12*(1+math.Abs(wb)) {
				t.Fatalf("trial %d step %d depth %d: incremental bound %.17g vs from-scratch %.17g (diff %.3g)\nσ1=%v\n%s",
					trial, step, depth, gb, wb, d, send, p)
			}
		}
	}
}
