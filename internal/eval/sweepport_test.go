package eval

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// portBoundPlatform builds the port-vertex regression platform: eight
// workers with cheap, d-heavy links and slow computation, so every worker
// stays enrolled, the one-port constraint binds, and the optimum is a
// port-tight vertex whose slack row shifts rank as the sweep's
// transpositions reorder the workers — the shape the rescan targets. Seed
// 4 is pinned because its descents are never degenerate and every one of
// them, without the fast path, is such a slack-row shift.
func portBoundPlatform(seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]platform.Worker, 8)
	for i := range ws {
		ws[i] = platform.Worker{
			C: 0.05 + 0.05*rng.Float64(),
			D: 0.1 + 0.1*rng.Float64(),
			W: 0.5 + 0.5*rng.Float64(),
		}
	}
	return platform.New(ws...)
}

// sweepAllPerms runs the full p = 8 sweep on p8 with the port-vertex fast
// path toggled, returning every permutation's throughput and the final
// counters.
func sweepAllPerms(t testing.TB, p8 *platform.Platform, disable bool) ([]float64, SweepStats) {
	disablePortFastPath = disable
	defer func() { disablePortFastPath = false }()
	rhos := make([]float64, 0, 40320)
	var sw *Sweep
	sjtWalk(8, 1<<30, func(perm []int, swapped int) {
		if swapped < 0 {
			var err error
			if sw, err = NewSweep(p8, perm, schedule.OnePort, false); err != nil {
				t.Fatal(err)
			}
		} else {
			sw.Delta(swapped)
		}
		rho, ok := sw.Throughput()
		if !ok {
			t.Fatalf("perm %v: fell back past the chain search", perm)
		}
		rhos = append(rhos, rho)
	})
	return rhos, sw.Stats()
}

// TestSweepPortVertexFastPath is the regression test of the port-vertex
// fast path: on the port-bound platform the O(1)-screened vertex rescan
// must cut the sweep's chain-search fallbacks at least in half, while
// every permutation's throughput stays in agreement with the descent-only
// sweep (both sides return KKT-certified LP optima, so any drift is a
// soundness bug, not a tolerance artefact).
func TestSweepPortVertexFastPath(t *testing.T) {
	p := portBoundPlatform(4)
	slow, slowStats := sweepAllPerms(t, p, true)
	fast, fastStats := sweepAllPerms(t, p, false)
	for i := range slow {
		if !agreeEq(slow[i], fast[i]) {
			t.Fatalf("permutation %d: fast path %.12g != descent-only %.12g", i, fast[i], slow[i])
		}
	}
	if fastStats.PortHits == 0 {
		t.Fatal("the port-vertex scan certified nothing; the fast path is dead code on its regression platform")
	}
	if slowStats.Fallbacks == 0 {
		t.Fatal("the pinned platform no longer defeats the warm re-solve; pick a new regression seed")
	}
	if 2*fastStats.Fallbacks > slowStats.Fallbacks {
		t.Fatalf("fast path cut descent fallbacks %d -> %d: less than the required 50%%",
			slowStats.Fallbacks, fastStats.Fallbacks)
	}
	t.Logf("fallbacks %d -> %d over 40320 permutations (%d scans, %d hits, %d rows screened)",
		slowStats.Fallbacks, fastStats.Fallbacks,
		fastStats.PortScans, fastStats.PortHits, fastStats.PortScreened)
}

// TestSweepPortVertexAllocationFree pins the fast path's allocation
// discipline: the scans run on preallocated sweep scratch, so the full
// p = 8 sweep on the port-bound platform stays allocation-free
// beyond setup and amortised session-buffer growth.
func TestSweepPortVertexAllocationFree(t *testing.T) {
	p := portBoundPlatform(4)
	allocs := testing.AllocsPerRun(1, func() {
		var sw *Sweep
		sjtWalk(8, 1<<30, func(perm []int, swapped int) {
			if swapped < 0 {
				var err error
				if sw, err = NewSweep(p, perm, schedule.OnePort, false); err != nil {
					t.Fatal(err)
				}
				return
			}
			sw.Delta(swapped)
			if _, ok := sw.Throughput(); !ok {
				t.Fatal("fell back past the chain search")
			}
		})
	})
	if allocs > 200 {
		t.Fatalf("p = 8 sweep allocated %.0f times (> 200): a per-permutation allocation crept into the fast path", allocs)
	}
}

// BenchmarkSweepPortVertex times the full p = 8 port-bound sweep with
// the port-vertex fast path on and off — the wall-clock counterpart of the
// fallback-counter regression test.
func BenchmarkSweepPortVertex(b *testing.B) {
	p := portBoundPlatform(4)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fastpath", false}, {"descent", true}} {
		b.Run(mode.name, func(b *testing.B) {
			disablePortFastPath = mode.disable
			defer func() { disablePortFastPath = false }()
			for i := 0; i < b.N; i++ {
				var sw *Sweep
				sjtWalk(8, 1<<30, func(perm []int, swapped int) {
					if swapped < 0 {
						var err error
						if sw, err = NewSweep(p, perm, schedule.OnePort, false); err != nil {
							b.Fatal(err)
						}
						return
					}
					sw.Delta(swapped)
					if _, ok := sw.Throughput(); !ok {
						b.Fatal("fell back past the chain search")
					}
				})
			}
		})
	}
}
