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
// workers and the active-set descent has the most room to guess wrong),
// FIFO, LIFO and general return orders, every Auto throughput checked
// against the simplex. Under two-port the port rows are dominated by
// worker rows (see tightSearch), so every certificate comes from the
// all-tight candidates of the descent; everything else is the simplex's.
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

// TestTwoPortRescueAgreesOnLoads pins the load vectors, not just the
// throughput: the rescue certificates are full KKT optima, so Auto and the
// simplex must return the same canonicalised loads on the shapes the
// rescues handle.
func TestTwoPortRescueAgreesOnLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
		auto, err := Evaluate(sc, Auto)
		if err != nil {
			t.Fatalf("trial %d: auto: %v", trial, err)
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
