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

// sweepWalk drives a one-port sweep of p (FIFO, or LIFO when lifo is
// true) through the first steps orders of the SJT walk, handing each
// order's throughput to fn, and returns the sweep's final counters.
func sweepWalk(t testing.TB, p *platform.Platform, lifo bool, steps int, fn func(perm []int, rho float64)) SweepStats {
	var sw *Sweep
	sjtWalk(p.P(), steps, func(perm []int, swapped int) {
		if swapped < 0 {
			var err error
			if sw, err = NewSweep(p, perm, schedule.OnePort, lifo); err != nil {
				t.Fatal(err)
			}
		} else {
			sw.Delta(swapped)
		}
		rho, ok := sw.Throughput()
		if !ok {
			t.Fatalf("perm %v (lifo=%v): no tier answered", perm, lifo)
		}
		fn(perm, rho)
	})
	return sw.Stats()
}

// portBoundPlatform builds a port-bound platform: eight workers with
// cheap, d-heavy links and slow computation, so every worker stays
// enrolled, the one-port constraint binds, and the optimum is a port-tight
// vertex whose slack row shifts rank as the sweep's transpositions reorder
// the workers. Seed 4's descents are never degenerate.
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

// largeZPlatform draws a common-z star of 4 to 6 workers with d = z·c,
// the shape of internal/core's large-z corpora.
func largeZPlatform(rng *rand.Rand, z float64) *platform.Platform {
	ws := make([]platform.Worker, 4+rng.Intn(3))
	for i := range ws {
		c := 0.01 + rng.Float64()
		ws[i] = platform.Worker{C: c, W: 0.05 + rng.Float64(), D: z * c}
	}
	return platform.New(ws...)
}

// TestSweepMatchesFromScratch is the incremental half of the extended
// agreement property test: walking adjacent transpositions, every
// certified Sweep throughput must equal the from-scratch tiered pipeline
// and the simplex to 1e-9, on 240 random platforms across all shape
// families, FIFO and LIFO, with the exact-rational backend confirming
// every 10th trial. All 8! FIFO orders of the port-bound platform, whose
// warm path misses thousands of them, are held to Auto.
func TestSweepMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const trials = 240
	fresh := NewSession()
	for trial := 0; trial < trials; trial++ {
		p := randomAgreementPlatform(rng)
		lifo := trial%2 == 1
		sweepWalk(t, p, lifo, 40, func(perm []int, rho float64) {
			sc := Scenario{Platform: p, Send: perm, Return: perm, Model: schedule.OnePort}
			if lifo {
				sc.Return = platform.Order(perm).Reverse()
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
	p := portBoundPlatform(4)
	sweepWalk(t, p, false, 1<<30, func(perm []int, rho float64) {
		sc := Scenario{Platform: p, Send: perm, Return: perm, Model: schedule.OnePort}
		auto, err := fresh.Throughput(sc, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !agreeEq(rho, auto) {
			t.Fatalf("port-bound perm %v: sweep %.12g != auto %.12g", perm, rho, auto)
		}
	})
}

// TestSweepAllocationFree pins the sweep's allocation discipline: the
// warm path and the descent run on preallocated sweep and session
// scratch, so the full p = 8 sweep on the port-bound platform stays
// allocation-free beyond setup and amortised session-buffer growth.
func TestSweepAllocationFree(t *testing.T) {
	p := portBoundPlatform(4)
	allocs := testing.AllocsPerRun(1, func() {
		sweepWalk(t, p, false, 1<<30, func([]int, float64) {})
	})
	if allocs > 200 {
		t.Fatalf("p = 8 sweep allocated %.0f times (> 200): a per-permutation allocation crept into the sweep", allocs)
	}
}

// TestSweepTierCounts pins how many orders of serial FIFO one-port sweeps
// leave the warm path for the descent (Fallbacks) and how many of those
// the pivot tier answers (Pivots), over every order of: the port-bound
// platform, one z = 1e6 large-z platform, and one random p = 6 platform
// whose descents miss. The counts are deterministic, so a change to the
// sweep's tiers fails here instead of only moving a timing.
func TestSweepTierCounts(t *testing.T) {
	for _, tc := range []struct {
		name              string
		p                 *platform.Platform
		fallbacks, pivots uint64
	}{
		{"port-bound", portBoundPlatform(4), 4773, 0},
		{"z=1e6", largeZPlatform(rand.New(rand.NewSource(1e6)), 1e6), 87, 0},
		{"random", randomAgreementPlatform(rand.New(rand.NewSource(4))), 401, 77},
	} {
		got := sweepWalk(t, tc.p, false, 1<<30, func([]int, float64) {})
		if got.Fallbacks != tc.fallbacks || got.Pivots != tc.pivots {
			t.Errorf("%s: %d fallbacks, %d pivots; want %d, %d", tc.name, got.Fallbacks, got.Pivots, tc.fallbacks, tc.pivots)
		}
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

// TestSweepFullEnrollmentMatchesAuto walks every order of a fixed corpus,
// FIFO and LIFO under both port models: eight platforms shaped like
// dlsload -mix search's (p = 7, return speeds drawn independently of the
// forward ones), two common-z DefaultApp platforms and the port-bound
// platform. Wherever the sweep's cached optimum is the all-tight
// full-enrollment candidate after Throughput, its value must equal a
// fresh session's Auto answer bit for bit: both certify the candidate
// through the same chain routine, so the value cannot depend on the
// transpositions that reached the order.
func TestSweepFullEnrollmentMatchesAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var corpus []*platform.Platform
	for i := 0; i < 8; i++ {
		p := platform.RandomSpeeds(rng, 7, platform.Heterogeneous).Platform(platform.DefaultApp(100))
		for k := range p.Workers {
			p.Workers[k].D *= float64(1+rng.Intn(10)) / float64(1+rng.Intn(10))
		}
		corpus = append(corpus, p)
	}
	for i := 0; i < 2; i++ {
		corpus = append(corpus, platform.RandomSpeeds(rng, 6, platform.Heterogeneous).Platform(platform.DefaultApp(400)))
	}
	corpus = append(corpus, portBoundPlatform(4))
	fresh := NewSession()
	checked := 0
	for ci, p := range corpus {
		for _, model := range []schedule.Model{schedule.OnePort, schedule.TwoPort} {
			for _, lifo := range []bool{false, true} {
				var sw *Sweep
				sjtWalk(p.P(), 1<<30, func(perm []int, swapped int) {
					if swapped < 0 {
						var err error
						if sw, err = NewSweep(p, perm, model, lifo); err != nil {
							t.Fatal(err)
						}
					} else {
						sw.Delta(swapped)
					}
					rho, ok := sw.Throughput()
					if !ok {
						t.Fatalf("platform %d perm %v: no tier answered", ci, perm)
					}
					if !sw.haveOpt || len(sw.opt.pos) != p.P() || sw.opt.slackWorker >= 0 {
						return
					}
					sc := Scenario{Platform: p, Send: perm, Return: perm, Model: model}
					if lifo {
						sc.Return = platform.Order(perm).Reverse()
					}
					auto, err := fresh.ThroughputTrusted(sc, Auto)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(rho) != math.Float64bits(auto) {
						t.Fatalf("platform %d %v lifo=%v perm %v: full-enrollment sweep value %.17g, Auto %.17g",
							ci, model, lifo, perm, rho, auto)
					}
					checked++
				})
			}
		}
	}
	if checked == 0 {
		t.Fatal("no order's cached optimum was full enrollment")
	}
}
