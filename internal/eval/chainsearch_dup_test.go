package eval

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// repeatedCostPlatform builds the duplicate-cost platform: four distinct
// (c, d) link pairs, each shared by two workers that differ only in
// computation speed, with d-heavy links so the port binds and the
// port-greedy drop criterion (largest c+d) ties exactly between twins.
// Ties like these are where the descent's drop choice matters most, so the
// family keeps the chain search's certificates honest.
func repeatedCostPlatform(seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	base := make([]platform.Worker, 4)
	for i := range base {
		base[i] = platform.Worker{
			C: 0.05 + 0.15*rng.Float64(),
			D: 0.05 + 0.2*rng.Float64(),
		}
	}
	ws := make([]platform.Worker, 8)
	for i := range ws {
		ws[i] = base[i%4]
		ws[i].W = 0.05 + 0.4*rng.Float64()
	}
	return platform.New(ws...)
}

// TestChainSearchDuplicateCostBranch is the agreement corpus of the chain
// search on a repeated-(c, d) platform: every certificate the descent
// returns must be the LP optimum, not merely feasible, so each one is
// compared against the simplex. Orders the descent cannot certify go to
// the pivot tier in Auto and are not checked here.
func TestChainSearchDuplicateCostBranch(t *testing.T) {
	p := repeatedCostPlatform(2)
	sess := NewSession()
	fresh := NewSession()
	certified, failed := 0, 0
	sjtWalk(8, 5000, func(perm []int, _ int) {
		send := append(platform.Order(nil), perm...)
		sc := Scenario{Platform: p, Send: send, Return: send, Model: schedule.OnePort}
		alpha, ok := sess.chainSearch(sc, false, nil, nil)
		if !ok {
			failed++
			return
		}
		certified++
		got := sum(alpha)
		want, err := fresh.Throughput(sc, Simplex)
		if err != nil {
			t.Fatal(err)
		}
		if !agreeEq(got, want) {
			t.Fatalf("perm %v: certificate %.12g != simplex %.12g", perm, got, want)
		}
	})
	if certified == 0 {
		t.Fatal("the chain search certified no order on the repeated-cost platform")
	}
	t.Logf("%d certified, %d left to the pivot tier, over 5000 permutations", certified, failed)
}
