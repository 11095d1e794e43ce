package eval

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// TestTwoPortPairFamilyAgreesWithSimplex is an agreement corpus for the
// two-port model: a fixed family of random scenarios (fast workers,
// heterogeneous links — the regime where resource selection drops several
// workers), FIFO, LIFO and general return orders, every Auto throughput
// checked against the simplex. Under two-port neither port row can be
// tight at a scenario optimum — the last enrolled sender's row dominates
// the send row, the first enrolled returner's row the receive row — so
// every certificate, from the chain tiers or the pivot tier, has worker
// rows only.
func TestTwoPortPairFamilyAgreesWithSimplex(t *testing.T) {
	sess := NewSession()
	ref := NewSession()
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 13} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			n := 5 + rng.Intn(3)
			ws := make([]platform.Worker, n)
			for i := range ws {
				ws[i] = platform.Worker{
					C: 0.05 + 0.30*rng.Float64(),
					D: 0.05 + 0.30*rng.Float64(),
					W: 0.01 + 0.05*rng.Float64(),
				}
			}
			p := platform.New(ws...)
			send := platform.Order(rng.Perm(n))
			var ret platform.Order
			switch trial % 3 {
			case 0:
				ret = send
			case 1:
				ret = send.Reverse()
			default:
				ret = platform.Order(rng.Perm(n))
			}
			sc := Scenario{Platform: p, Send: send, Return: ret, Model: schedule.TwoPort}
			rho, err := sess.Throughput(sc, Auto)
			if err != nil {
				t.Fatalf("seed %d trial %d: auto: %v", seed, trial, err)
			}
			want, err := ref.Throughput(sc, Simplex)
			if err != nil {
				t.Fatalf("seed %d trial %d: simplex: %v", seed, trial, err)
			}
			if !agreeEq(rho, want) {
				t.Fatalf("seed %d trial %d: auto %.12g != simplex %.12g", seed, trial, rho, want)
			}
		}
	}
}

// TestTwoPortGeneralPairLoadsMatchSimplex pins the load vectors, not just
// the throughput, on two-port general (σ1, σ2) pairs: Auto answers them
// through the pivot tier, whose certificates are full KKT optima, so its
// canonicalised loads must equal the simplex's, and none of the 80 trials
// may fall back to the simplex.
func TestTwoPortGeneralPairLoadsMatchSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sess := NewSession()
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(3)
		ws := make([]platform.Worker, n)
		for i := range ws {
			ws[i] = platform.Worker{
				C: 0.05 + 0.30*rng.Float64(),
				D: 0.05 + 0.30*rng.Float64(),
				W: 0.01 + 0.05*rng.Float64(),
			}
		}
		p := platform.New(ws...)
		send := platform.Order(rng.Perm(n))
		ret := platform.Order(rng.Perm(n))
		sc := Scenario{Platform: p, Send: send, Return: ret, Model: schedule.TwoPort}
		auto, err := sess.Evaluate(sc, Auto)
		if err != nil {
			t.Fatalf("trial %d: auto: %v", trial, err)
		}
		if backend, fallback := sess.Backend(); fallback || backend != "pivot" {
			t.Fatalf("trial %d: answered by %q (fallback %v), want the pivot tier", trial, backend, fallback)
		}
		simplex, err := Evaluate(sc, Simplex)
		if err != nil {
			t.Fatalf("trial %d: simplex: %v", trial, err)
		}
		for i := range auto.Alpha {
			if !agreeEq(auto.Alpha[i], simplex.Alpha[i]) {
				t.Errorf("trial %d: load of worker %d: auto %.12g != simplex %.12g\nσ1=%v σ2=%v\n%s",
					trial, i, auto.Alpha[i], simplex.Alpha[i], send, ret, p)
			}
		}
	}
}
