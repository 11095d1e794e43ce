package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// sjtWalk mirrors core.forEachPermutation (Steinhaus–Johnson–Trotter):
// every emitted order differs from its predecessor by one adjacent
// transposition, whose left index is reported. Reimplemented here because
// the core generator is unexported and eval cannot import core (cycle).
func sjtWalk(n, maxSteps int, fn func(perm []int, swapped int)) {
	perm := make([]int, n)
	pos := make([]int, n)
	dir := make([]int, n)
	for i := range perm {
		perm[i], pos[i], dir[i] = i, i, -1
	}
	fn(perm, -1)
	for step := 1; step < maxSteps; step++ {
		v := -1
		for val := n - 1; val >= 0; val-- {
			k := pos[val]
			if t := k + dir[val]; t >= 0 && t < n && perm[t] < val {
				v = val
				break
			}
		}
		if v < 0 {
			return
		}
		k := pos[v]
		t := k + dir[v]
		perm[k], perm[t] = perm[t], perm[k]
		pos[v], pos[perm[k]] = t, k
		for val := v + 1; val < n; val++ {
			dir[val] = -dir[val]
		}
		left := k
		if t < k {
			left = t
		}
		fn(perm, left)
	}
}

// TestSweepMatchesFromScratch is the incremental half of the extended
// agreement property test: walking adjacent transpositions, every
// certified Sweep throughput must equal the from-scratch tiered pipeline
// and the simplex to 1e-9, on 240 random platforms across all shape
// families, FIFO and LIFO, with the exact-rational backend confirming
// every 10th trial.
func TestSweepMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const trials = 240
	for trial := 0; trial < trials; trial++ {
		p := randomAgreementPlatform(rng)
		lifo := trial%2 == 1
		n := p.P()
		var sw *Sweep
		fresh := NewSession()
		steps := 40
		sjtWalk(n, steps, func(perm []int, swapped int) {
			if swapped < 0 {
				var err error
				if sw, err = NewSweep(p, perm, schedule.OnePort, lifo); err != nil {
					t.Fatal(err)
				}
			} else {
				sw.Delta(swapped)
			}
			sc := Scenario{Platform: p, Send: perm, Return: perm, Model: schedule.OnePort}
			rev := platform.Order(perm).Reverse()
			if lifo {
				sc.Return = rev
			}
			rho, ok := sw.Throughput()
			if !ok {
				t.Fatalf("trial %d perm %v (lifo=%v): no tier answered", trial, perm, lifo)
			}
			auto, err := fresh.Throughput(sc, Auto)
			if err != nil {
				t.Fatal(err)
			}
			if !agreeEq(rho, auto) {
				t.Fatalf("trial %d perm %v (lifo=%v): sweep %.12g != auto %.12g", trial, perm, lifo, rho, auto)
			}
			simplex, err := fresh.Throughput(sc, Simplex)
			if err != nil {
				t.Fatal(err)
			}
			if !agreeEq(rho, simplex) {
				t.Fatalf("trial %d perm %v (lifo=%v): sweep %.12g != simplex %.12g", trial, perm, lifo, rho, simplex)
			}
			if trial%10 == 0 {
				exact, err := fresh.Throughput(sc, ExactRational)
				if err != nil {
					t.Fatal(err)
				}
				if !agreeEq(rho, exact) {
					t.Fatalf("trial %d perm %v (lifo=%v): sweep %.12g != exact %.12g", trial, perm, lifo, rho, exact)
				}
			}
		})
	}
}

// TestSweepBoundSoundness pins the dual-screen contract of
// ThroughputBound: whatever it returns, the running maximum it produces
// must match the maximum of the exact per-permutation optima — a pruned
// permutation may report any value, but only when its true optimum cannot
// beat the incumbent.
func TestSweepBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	for trial := 0; trial < 60; trial++ {
		p := randomAgreementPlatform(rng)
		n := p.P()
		if n > 6 {
			continue
		}
		var sw *Sweep
		fresh := NewSession()
		incumbent := -1.0
		exactBest := -1.0
		sjtWalk(n, 1<<31-1, func(perm []int, swapped int) {
			if swapped < 0 {
				var err error
				if sw, err = NewSweep(p, perm, schedule.OnePort, false); err != nil {
					t.Fatal(err)
				}
			} else {
				sw.Delta(swapped)
			}
			sc := Scenario{Platform: p, Send: perm, Return: perm, Model: schedule.OnePort}
			exact, err := fresh.Throughput(sc, Auto)
			if err != nil {
				t.Fatal(err)
			}
			if exact > exactBest {
				exactBest = exact
			}
			v, ok := sw.ThroughputBound(incumbent)
			if !ok {
				v = exact // the search would fall back to the full pipeline
			}
			if v > exact*(1+1e-9) && exact > incumbent*(1+1e-9) {
				t.Fatalf("trial %d perm %v: bound %.12g overstates a winning optimum %.12g (incumbent %.12g)",
					trial, perm, v, exact, incumbent)
			}
			if exact > incumbent*(1+1e-9) && v < exact*(1-1e-9) {
				t.Fatalf("trial %d perm %v: pruned a permutation (%.12g) that beats the incumbent %.12g",
					trial, perm, exact, incumbent)
			}
			if v > incumbent {
				incumbent = v
			}
		})
		if math.Abs(incumbent-exactBest) > 1e-9*(1+incumbent+exactBest) {
			t.Fatalf("trial %d: incremental search max %.12g != exact max %.12g", trial, incumbent, exactBest)
		}
	}
}
