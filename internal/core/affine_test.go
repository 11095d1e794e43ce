package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

func TestAffineZeroReducesToLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 4, 0.5)
		order := p.ByC()
		linear, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		affine, err := SolveScenarioAffine(p, ZeroAffine(4), order, order, schedule.OnePort, Float64)
		if err != nil {
			t.Fatal(err)
		}
		if !affine.Feasible {
			t.Fatal("zero affine must be feasible")
		}
		if !approxEq(linear.Throughput(), affine.Throughput) {
			t.Errorf("trial %d: linear %g != zero-affine %g", trial, linear.Throughput(), affine.Throughput)
		}
	}
}

func TestAffineLatencyReducesThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	p := randomStar(rng, 4, 0.5)
	order := p.ByC()
	prev := math.Inf(1)
	// Keep Σ(In+Out) below the horizon: 4 workers × 1.5·lat ≤ 0.9.
	for _, lat := range []float64{0, 0.01, 0.05, 0.1, 0.15} {
		aff := ZeroAffine(4)
		for i := range aff.In {
			aff.In[i], aff.Out[i] = lat, lat/2
		}
		res, err := SolveScenarioAffine(p, aff, order, order, schedule.OnePort, Float64)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("latency %g should still be feasible", lat)
		}
		if res.Throughput > prev+tol {
			t.Errorf("latency %g: throughput %g increased over %g", lat, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestAffineInfeasibleWhenConstantsExceedHorizon(t *testing.T) {
	p := platform.New(
		platform.Worker{C: 0.1, W: 0.1, D: 0.05},
		platform.Worker{C: 0.1, W: 0.1, D: 0.05},
	)
	aff := ZeroAffine(2)
	aff.In[0], aff.In[1] = 0.6, 0.6 // 1.2 of fixed port time > 1
	order := platform.Identity(2)
	res, err := SolveScenarioAffine(p, aff, order, order, schedule.OnePort, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("scenario with 1.2 time units of fixed cost must be infeasible, got ρ=%g", res.Throughput)
	}
}

func TestAffineResourceSelectionShrinksWithLatency(t *testing.T) {
	// With per-message latency, enrolling everyone becomes wasteful: the
	// best achievable throughput decreases, and at extreme latency the
	// optimal subset is strictly smaller than the platform.
	rng := rand.New(rand.NewSource(202))
	p := randomStar(rng, 6, 0.5)
	solve := func(lat float64) (float64, int) {
		aff := ZeroAffine(6)
		for i := range aff.In {
			aff.In[i], aff.Out[i] = lat, lat/2
		}
		best, err := BestFIFOAffineContext(context.Background(), p, aff, Float64)
		if err != nil {
			t.Fatal(err)
		}
		return best.Throughput, len(best.Send)
	}
	rho0, n0 := solve(0)
	rhoMid, _ := solve(0.12)
	rhoHi, nHi := solve(0.3)
	if !(rho0+tol >= rhoMid && rhoMid+tol >= rhoHi) {
		t.Errorf("best throughput not monotone in latency: %g, %g, %g", rho0, rhoMid, rhoHi)
	}
	if nHi > n0 {
		t.Errorf("enrolled set grew with latency: %d → %d", n0, nHi)
	}
	if nHi >= 6 {
		t.Errorf("extreme latency still enrolls all %d workers", nHi)
	}
}

func TestAffineBestSubsetBeatsFullEnrollment(t *testing.T) {
	// Construct a platform where enrolling the second worker costs more in
	// fixed port time than the work it contributes.
	p := platform.New(
		platform.Worker{C: 0.05, W: 0.1, D: 0.025},
		platform.Worker{C: 0.3, W: 2.5, D: 0.15},
	)
	aff := ZeroAffine(2)
	aff.In[1], aff.Out[1] = 0.3, 0.3
	best, err := BestFIFOAffineContext(context.Background(), p, aff, Float64)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveScenarioAffine(p, aff, p.ByC(), p.ByC(), schedule.OnePort, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if full.Feasible && full.Throughput > best.Throughput+tol {
		t.Errorf("subset search %g worse than full enrollment %g", best.Throughput, full.Throughput)
	}
	if len(best.Send) != 1 || best.Send[0] != 0 {
		t.Errorf("expected only worker 0 enrolled, got %v", best.Send)
	}
}

func TestAffineValidation(t *testing.T) {
	p := platform.New(platform.Worker{C: 1, W: 1, D: 0.5})
	short := Affine{In: []float64{0}, Out: []float64{0}, Comp: nil}
	if _, err := ScenarioLPAffine(p, short, platform.Identity(1), platform.Identity(1), schedule.OnePort); err == nil {
		t.Error("mismatched affine dimensions must be rejected")
	}
	neg := ZeroAffine(1)
	neg.In[0] = -1
	if _, err := ScenarioLPAffine(p, neg, platform.Identity(1), platform.Identity(1), schedule.OnePort); err == nil {
		t.Error("negative latency must be rejected")
	}
	nan := ZeroAffine(1)
	nan.Comp[0] = math.NaN()
	if _, err := SolveScenarioAffine(p, nan, platform.Identity(1), platform.Identity(1), schedule.OnePort, Float64); err == nil {
		t.Error("NaN overhead must be rejected")
	}
	if _, err := SolveScenarioAffine(p, ZeroAffine(1), platform.Identity(1), platform.Identity(1), schedule.OnePort, Arith(9)); err == nil {
		t.Error("unknown arithmetic must be rejected")
	}
	big := randomStar(rand.New(rand.NewSource(203)), maxAffineSubsets+1, 0.5)
	if _, err := BestFIFOAffineContext(context.Background(), big, ZeroAffine(maxAffineSubsets+1), Float64); err == nil {
		t.Error("oversized affine search must be rejected")
	}
	if _, err := BestFIFOAffineContext(context.Background(), platform.New(), Affine{}, Float64); err == nil {
		t.Error("invalid platform must be rejected")
	}
	mismatch := ZeroAffine(2)
	if _, err := BestFIFOAffineContext(context.Background(), p, mismatch, Float64); err == nil {
		t.Error("dimension mismatch must be rejected in BestFIFOAffineContext")
	}
}

func TestAffineTwoPortModel(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	p := randomStar(rng, 3, 0.5)
	aff := ZeroAffine(3)
	for i := range aff.In {
		aff.In[i] = 0.02
	}
	order := p.ByC()
	one, err := SolveScenarioAffine(p, aff, order, order, schedule.OnePort, Float64)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveScenarioAffine(p, aff, order, order, schedule.TwoPort, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if one.Throughput > two.Throughput+tol {
		t.Errorf("one-port %g beats two-port %g under affine costs", one.Throughput, two.Throughput)
	}
	if _, err := SolveScenarioAffine(p, aff, order, order, schedule.Model(7), Float64); err == nil {
		t.Error("unknown model must be rejected")
	}
}

// TestQuickAffineMonotoneInLatency: adding latency never increases the
// scenario throughput (for a fixed enrolled set and order).
func TestQuickAffineMonotoneInLatency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		p := randomStar(rng, n, 0.2+0.7*rng.Float64())
		order := p.ByC()
		lo := ZeroAffine(n)
		hi := ZeroAffine(n)
		for i := 0; i < n; i++ {
			lo.In[i] = rng.Float64() * 0.05
			lo.Out[i] = rng.Float64() * 0.05
			lo.Comp[i] = rng.Float64() * 0.05
			hi.In[i] = lo.In[i] + rng.Float64()*0.05
			hi.Out[i] = lo.Out[i] + rng.Float64()*0.05
			hi.Comp[i] = lo.Comp[i] + rng.Float64()*0.05
		}
		a, err := SolveScenarioAffine(p, lo, order, order, schedule.OnePort, Float64)
		if err != nil {
			return false
		}
		b, err := SolveScenarioAffine(p, hi, order, order, schedule.OnePort, Float64)
		if err != nil {
			return false
		}
		if !a.Feasible {
			return true // hi can only be more infeasible
		}
		if !b.Feasible {
			return true
		}
		return b.Throughput <= a.Throughput+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomAffine draws fixed costs of a scale that makes resource selection
// genuinely bite: some subsets infeasible, some workers not worth their
// latency.
func randomAffine(rng *rand.Rand, n int, scale float64) Affine {
	aff := ZeroAffine(n)
	for i := 0; i < n; i++ {
		aff.In[i] = scale * rng.Float64()
		aff.Out[i] = scale * rng.Float64() / 2
		aff.Comp[i] = scale * rng.Float64() / 2
	}
	return aff
}

// TestAffineBBAgreesWithFlat pins the branch-and-bound byte-identical to
// the flat loop — same winning subset/order, same throughput bits, same
// load bits — on 240 random platforms across sizes and cost regimes,
// serial and parallel.
func TestAffineBBAgreesWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	ctxSerial := context.Background()
	ctxPar := ContextWithSearchParallelism(context.Background(), 4)
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(9)
		p := randomStar(rng, n, 0.2+0.6*rng.Float64())
		scale := []float64{0, 0.02, 0.1, 0.4}[trial%4]
		aff := randomAffine(rng, n, scale)

		flat, err := BestFIFOAffineAlgo(ctxSerial, p, aff, Float64, AffineFlat)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctx := range []context.Context{ctxSerial, ctxPar} {
			bb, err := BestFIFOAffineAlgo(ctx, p, aff, Float64, AffineBB)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(bb.Throughput) != math.Float64bits(flat.Throughput) {
				t.Fatalf("trial %d (n=%d scale=%g): bb ρ=%x flat ρ=%x",
					trial, n, scale, math.Float64bits(bb.Throughput), math.Float64bits(flat.Throughput))
			}
			if bb.Feasible != flat.Feasible || len(bb.Send) != len(flat.Send) {
				t.Fatalf("trial %d: bb (%v, %v) vs flat (%v, %v)",
					trial, bb.Feasible, bb.Send, flat.Feasible, flat.Send)
			}
			for k := range bb.Send {
				if bb.Send[k] != flat.Send[k] || bb.Return[k] != flat.Return[k] {
					t.Fatalf("trial %d: bb order %v/%v, flat %v/%v",
						trial, bb.Send, bb.Return, flat.Send, flat.Return)
				}
			}
			for i := range bb.Alpha {
				if math.Float64bits(bb.Alpha[i]) != math.Float64bits(flat.Alpha[i]) {
					t.Fatalf("trial %d worker %d: bb α bits %x, flat %x",
						trial, i, math.Float64bits(bb.Alpha[i]), math.Float64bits(flat.Alpha[i]))
				}
			}
		}
	}
}

// TestAffineBBPrunes asserts the bound actually fires: on a latency-heavy
// 12-worker platform the branch-and-bound must evaluate at most half of
// the 2^12−1 subsets the flat loop pays for.
func TestAffineBBPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	p := randomStar(rng, 12, 0.5)
	aff := randomAffine(rng, 12, 0.08)
	before := AffineStatsSnapshot()
	if _, err := BestFIFOAffineAlgo(context.Background(), p, aff, Float64, AffineBB); err != nil {
		t.Fatal(err)
	}
	after := AffineStatsSnapshot()
	leaves := after.LeavesEvaluated - before.LeavesEvaluated
	pruned := after.SubtreesPruned - before.SubtreesPruned
	total := uint64(1<<12 - 1)
	t.Logf("leaves=%d/%d pruned-subtrees=%d bound-solves=%d",
		leaves, total, pruned, after.BoundSolves-before.BoundSolves)
	if leaves > total/2 {
		t.Errorf("branch-and-bound evaluated %d of %d subsets; want <= 50%%", leaves, total)
	}
	if pruned == 0 {
		t.Error("no subtrees pruned on a latency-heavy platform")
	}
}

// TestAffineAlgoValidation covers the algorithm selector's edges.
func TestAffineAlgoValidation(t *testing.T) {
	p := platform.New(platform.Worker{C: 1, W: 1, D: 0.5})
	if _, err := BestFIFOAffineAlgo(context.Background(), p, ZeroAffine(1), Float64, AffineAlgo(9)); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
	if _, err := BestFIFOAffineAlgo(context.Background(), p, ZeroAffine(1), Exact, AffineBB); err == nil {
		t.Error("forced BB under Exact must be rejected")
	}
	res, err := BestFIFOAffineAlgo(context.Background(), p, ZeroAffine(1), Exact, AffineAuto)
	if err != nil || !res.Feasible {
		t.Errorf("exact auto search failed: %v %+v", err, res)
	}
	for algo, want := range map[AffineAlgo]string{AffineAuto: "auto", AffineBB: "bb", AffineFlat: "flat", AffineAlgo(9): "AffineAlgo(9)"} {
		if algo.String() != want {
			t.Errorf("AffineAlgo(%d).String() = %q, want %q", int(algo), algo.String(), want)
		}
	}
}

// TestAffineCancellation checks both paths abort on a cancelled context.
func TestAffineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	p := randomStar(rng, 10, 0.5)
	aff := randomAffine(rng, 10, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []AffineAlgo{AffineFlat, AffineBB} {
		if _, err := BestFIFOAffineAlgo(ctx, p, aff, Float64, algo); err != context.Canceled {
			t.Errorf("%v: err = %v, want context.Canceled", algo, err)
		}
	}
}

func BenchmarkBestFIFOAffine8(b *testing.B) {
	rng := rand.New(rand.NewSource(205))
	p := randomStar(rng, 8, 0.5)
	aff := ZeroAffine(8)
	for i := range aff.In {
		aff.In[i] = 0.01
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BestFIFOAffineContext(context.Background(), p, aff, Float64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestFIFOAffine12 compares the flat 2^12 loop against the
// branch-and-bound on the CI reference platform; the bench gate requires
// bb ≥ 5× faster with identical winners (the reported rho metrics must
// match to the last digit) and ≥ 50% of the subset lattice pruned.
func BenchmarkBestFIFOAffine12(b *testing.B) {
	rng := rand.New(rand.NewSource(207))
	p := randomStar(rng, 12, 0.5)
	aff := randomAffine(rng, 12, 0.08)
	for _, algo := range []AffineAlgo{AffineFlat, AffineBB} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			before := AffineStatsSnapshot()
			var res *AffineResult
			for i := 0; i < b.N; i++ {
				r, err := BestFIFOAffineAlgo(context.Background(), p, aff, Float64, algo)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(res.Throughput, "rho")
			if algo == AffineBB {
				after := AffineStatsSnapshot()
				leaves := float64(after.LeavesEvaluated-before.LeavesEvaluated) / float64(b.N)
				pruned := float64(after.SubtreesPruned-before.SubtreesPruned) / float64(b.N)
				b.ReportMetric(leaves, "leaves/op")
				b.ReportMetric(pruned, "pruned-subtrees/op")
				b.ReportMetric(1-leaves/float64(1<<12-1), "pruned-frac")
			}
		})
	}
}

// BenchmarkBestFIFOAffine16 exercises the lifted cap: 2^16 subsets are
// flat-loop territory measured in minutes, but the branch-and-bound keeps
// the search inside the CI bench timeout.
func BenchmarkBestFIFOAffine16(b *testing.B) {
	rng := rand.New(rand.NewSource(209))
	p := randomStar(rng, 16, 0.5)
	aff := randomAffine(rng, 16, 0.06)
	b.ReportAllocs()
	var res *AffineResult
	for i := 0; i < b.N; i++ {
		r, err := BestFIFOAffineAlgo(context.Background(), p, aff, Float64, AffineBB)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Throughput, "rho")
}

// affineFuzzDraw draws an affine platform of 2 to 10 workers for
// FuzzAffineBBMatchesFlat. family 0 is dlsbench's search draw (size-400
// heterogeneous speeds, In and Out below 0.02, Comp below 0.05); 1 the
// same platform with zero fixed costs; 2 ties: about half the workers copy
// worker 0's linear and fixed costs, so distinct subsets reach the same ρ;
// 3 fixed costs of at least the horizon on every worker, so no subset is
// feasible.
func affineFuzzDraw(seed int64, n, family uint8) (*platform.Platform, Affine) {
	rng := rand.New(rand.NewSource(seed))
	p := 2 + int(n%9)
	plat := platform.RandomSpeeds(rng, p, platform.Heterogeneous).Platform(platform.DefaultApp(400))
	aff := ZeroAffine(p)
	for i := 0; i < p; i++ {
		aff.In[i] = 0.02 * rng.Float64()
		aff.Out[i] = 0.02 * rng.Float64()
		aff.Comp[i] = 0.05 * rng.Float64()
	}
	switch family % 4 {
	case 1:
		aff = ZeroAffine(p)
	case 2:
		for i := 1; i < p; i++ {
			if rng.Intn(2) == 0 {
				w := plat.Workers[i].Name
				plat.Workers[i] = plat.Workers[0]
				plat.Workers[i].Name = w
				aff.In[i], aff.Out[i], aff.Comp[i] = aff.In[0], aff.Out[0], aff.Comp[0]
			}
		}
	case 3:
		for i := 0; i < p; i++ {
			aff.Comp[i] = 1 + rng.Float64()
		}
	}
	return plat, aff
}

// FuzzAffineBBMatchesFlat holds the affine branch-and-bound, serial and
// parallel, byte-identical to the flat subset loop — winning order, ρ
// bits, load bits — on the families of affineFuzzDraw. Both searches solve
// their LPs through the same builder, so the winner is also re-solved in
// exact rational arithmetic, which must agree within 1e-9 relative; when
// no subset wins, every single worker must be infeasible exactly. The
// committed corpus holds a no-subset-feasible entry and a tie entry.
func FuzzAffineBBMatchesFlat(f *testing.F) {
	for family := uint8(0); family < 4; family++ {
		f.Add(int64(family)+1, 4+family, family)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, family uint8) {
		plat, aff := affineFuzzDraw(seed, n, family)
		flat, err := BestFIFOAffineAlgo(context.Background(), plat, aff, Float64, AffineFlat)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			bb, err := BestFIFOAffineAlgo(ContextWithSearchParallelism(context.Background(), par), plat, aff, Float64, AffineBB)
			if err != nil {
				t.Fatal(err)
			}
			if bb.Feasible != flat.Feasible || !slices.Equal(bb.Send, flat.Send) || !slices.Equal(bb.Return, flat.Return) ||
				math.Float64bits(bb.Throughput) != math.Float64bits(flat.Throughput) {
				t.Fatalf("parallelism %d: bb (%v, %v, ρ %x) vs flat (%v, %v, ρ %x)", par,
					bb.Feasible, bb.Send, math.Float64bits(bb.Throughput), flat.Feasible, flat.Send, math.Float64bits(flat.Throughput))
			}
			for i := range bb.Alpha {
				if math.Float64bits(bb.Alpha[i]) != math.Float64bits(flat.Alpha[i]) {
					t.Fatalf("parallelism %d worker %d: bb α bits %x, flat %x", par, i,
						math.Float64bits(bb.Alpha[i]), math.Float64bits(flat.Alpha[i]))
				}
			}
		}
		if len(flat.Send) == 0 {
			for i := range plat.Workers {
				one := platform.Order{i}
				ex, err := SolveScenarioAffine(plat, aff, one, one, schedule.OnePort, Exact)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Feasible {
					t.Fatalf("no subset won, but worker %d alone is feasible (ρ %g)", i, ex.Throughput)
				}
			}
			return
		}
		ex, err := SolveScenarioAffine(plat, aff, flat.Send, flat.Return, schedule.OnePort, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Feasible || math.Abs(ex.Throughput-flat.Throughput) > 1e-9*ex.Throughput {
			t.Fatalf("winner %v: ρ %v, exact re-solve %v (feasible %v)", flat.Send, flat.Throughput, ex.Throughput, ex.Feasible)
		}
	})
}
