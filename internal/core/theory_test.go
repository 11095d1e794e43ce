package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// randomBus returns a bus platform with random c, d (common) and per-worker
// w. When zBelowOne, d < c.
func randomBus(rng *rand.Rand, p int, zBelowOne bool) *platform.Platform {
	c := 0.02 + 0.2*rng.Float64()
	var d float64
	if zBelowOne {
		d = c * (0.1 + 0.8*rng.Float64())
	} else {
		d = c * (1.1 + 2*rng.Float64())
	}
	ws := make([]float64, p)
	for i := range ws {
		ws[i] = 0.05 + 0.5*rng.Float64()
	}
	return platform.NewBus(c, d, ws...)
}

// --- Theorem 1: sorted-by-c is optimal among all FIFO orders -------------

func TestTheorem1AgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 12; trial++ {
		p := randomStar(rng, 5, 0.2+0.7*rng.Float64())
		opt, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		best, order, err := BestFIFOExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if best.Throughput() > opt.Throughput()+tol {
			t.Errorf("trial %d: exhaustive found better FIFO order %v: %g > %g\n%s",
				trial, order, best.Throughput(), opt.Throughput(), p)
		}
		if !approxEq(best.Throughput(), opt.Throughput()) {
			t.Errorf("trial %d: OptimalFIFO %g below exhaustive best %g",
				trial, opt.Throughput(), best.Throughput())
		}
	}
}

func TestTheorem1AgainstExhaustiveZGreaterOne(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		p := randomStar(rng, 4, 1.2+2*rng.Float64())
		opt, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := BestFIFOExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(best.Throughput(), opt.Throughput()) {
			t.Errorf("trial %d (z>1): OptimalFIFO %g != exhaustive best %g",
				trial, opt.Throughput(), best.Throughput())
		}
	}
}

func TestZEqualsOneOrderIrrelevant(t *testing.T) {
	// Section 3: when z = 1 (c_i = d_i) the ordering of participating
	// workers has no importance — every full order gives the same optimum.
	rng := rand.New(rand.NewSource(102))
	p := randomStar(rng, 4, 1.0)
	ref, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	err = nil
	count := 0
	forEach := func(perm []int, _ int) error {
		order := platform.Order(perm).Clone()
		s, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.Auto)
		if err != nil {
			return err
		}
		if !approxEq(s.Throughput(), ref.Throughput()) {
			t.Errorf("order %v: throughput %g != %g", order, s.Throughput(), ref.Throughput())
		}
		count++
		return nil
	}
	if err := forEachPermutation(4, forEach); err != nil {
		t.Fatal(err)
	}
	if count != 24 {
		t.Fatalf("visited %d permutations, want 24", count)
	}
}

// --- Lemma 1: at most one participant has idle time ----------------------

func TestLemma1AtMostOneIdle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 15; trial++ {
		p := randomStar(rng, 5, 0.5)
		s, err := OptimalFIFO(p, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		idleCount := 0
		for _, wt := range s.Timeline(p) {
			if s.Alpha[wt.Worker] > 0 && wt.Idle > 1e-6 {
				idleCount++
			}
		}
		if idleCount > 1 {
			t.Errorf("trial %d: %d participants idle (Lemma 1 allows 1)\n%v", trial, idleCount, s)
		}
	}
}

// --- Theorem 2: bus closed form ------------------------------------------

func TestTheorem2MatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 20; trial++ {
		p := randomBus(rng, 1+rng.Intn(7), true)
		closed, err := BusFIFOThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(closed, s.Throughput()) {
			t.Errorf("trial %d: closed form %g != LP optimum %g\n%s",
				trial, closed, s.Throughput(), p)
		}
	}
}

func TestTheorem2ExactIdentity(t *testing.T) {
	// The closed form and the LP optimum must agree *exactly* in rational
	// arithmetic — a strong joint test of the simplex and the formula.
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 6; trial++ {
		p := randomBus(rng, 1+rng.Intn(5), true)
		closed, err := ExactBusFIFOThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		order := platform.Identity(p.P())
		prob, err := eval.ScenarioLP(eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := prob.SolveExact()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective.Cmp(closed) != 0 {
			t.Errorf("trial %d: exact closed form %s != exact LP %s\n%s",
				trial, closed.RatString(), sol.Objective.RatString(), p)
		}
	}
}

func TestTheorem2ScheduleConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 20; trial++ {
		p := randomBus(rng, 1+rng.Intn(7), true)
		s, err := BusFIFOSchedule(p) // verified one-port internally
		if err != nil {
			t.Fatal(err)
		}
		closed, err := BusFIFOThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(s.Throughput(), closed) {
			t.Errorf("trial %d: constructed throughput %g != closed form %g",
				trial, s.Throughput(), closed)
		}
		// Theorem 2: all processors are enrolled in the optimal solution.
		if got := len(s.Participants()); got != p.P() {
			t.Errorf("trial %d: %d of %d workers enrolled", trial, got, p.P())
		}
	}
}

func TestTheorem2CommBoundRegime(t *testing.T) {
	// With negligible compute the two-port throughput exceeds 1/(c+d) and
	// the one-port optimum must saturate the port: ρ = 1/(c+d).
	p := platform.NewBus(0.3, 0.15, 1e-9, 1e-9, 1e-9)
	rho, err := BusFIFOThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(rho, 1/0.45) {
		t.Errorf("rho = %g, want 1/(c+d) = %g", rho, 1/0.45)
	}
	s, err := BusFIFOSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Throughput(), 1/0.45) {
		t.Errorf("constructed rho = %g, want %g", s.Throughput(), 1/0.45)
	}
	// In this regime every worker has a positive gap before its return.
	for _, wt := range s.Timeline(p) {
		if wt.Idle <= 0 {
			t.Errorf("worker %d: expected positive idle gap, got %g", wt.Worker, wt.Idle)
		}
	}
}

func TestBusUOrderInvariance(t *testing.T) {
	// Σu_i is permutation invariant (all FIFO orderings equivalent on a
	// bus, Adler-Gong-Rosenberg).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		c := 0.05 + rng.Float64()*0.3
		d := c * (0.1 + 0.8*rng.Float64())
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = 0.05 + rng.Float64()
		}
		sum := func(xs []float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return s
		}
		ref := sum(BusU(c, d, ws))
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, j := range perm {
			shuffled[i] = ws[j]
		}
		got := sum(BusU(c, d, shuffled))
		return math.Abs(ref-got) <= 1e-9*(1+ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBusRoutinesRejectNonBus(t *testing.T) {
	star := platform.New(
		platform.Worker{C: 1, W: 1, D: 0.5},
		platform.Worker{C: 2, W: 1, D: 1},
	)
	if _, err := BusFIFOThroughput(star); err != ErrNotBus {
		t.Errorf("BusFIFOThroughput: want ErrNotBus, got %v", err)
	}
	if _, err := BusFIFOSchedule(star); err != ErrNotBus {
		t.Errorf("BusFIFOSchedule: want ErrNotBus, got %v", err)
	}
	if _, err := BusLIFOThroughput(star); err != ErrNotBus {
		t.Errorf("BusLIFOThroughput: want ErrNotBus, got %v", err)
	}
	if _, err := ExactBusFIFOThroughput(star); err != ErrNotBus {
		t.Errorf("ExactBusFIFOThroughput: want ErrNotBus, got %v", err)
	}
	if _, err := BusFIFOThroughput(platform.New()); err == nil {
		t.Error("empty platform must be rejected")
	}
}

// --- FIFO dominance on buses ----------------------------------------------

// TestBusFIFODominatesAllPairs verifies, in exact arithmetic, the
// Adler-Gong-Rosenberg property the paper cites: on a bus, the optimal FIFO
// schedule is optimal among ALL permutation pairs (σ1, σ2) — in particular
// it dominates every LIFO schedule. This pins down the model behaviour
// behind the Figure 10 deviation recorded in EXPERIMENTS.md.
func TestBusFIFODominatesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 4; trial++ {
		p := randomBus(rng, 3, true)
		fifo, err := OptimalFIFO(p, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := BestPairExhaustiveContext(context.Background(), p, schedule.OnePort, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if pair.Schedule.Throughput() > fifo.Throughput()+1e-9 {
			t.Errorf("trial %d: pair (%v, %v) beats FIFO on a bus: %g > %g",
				trial, pair.Send, pair.Return, pair.Schedule.Throughput(), fifo.Throughput())
		}
		lifo, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		if lifo.Throughput() > fifo.Throughput()+1e-9 {
			t.Errorf("trial %d: LIFO %g beats FIFO %g on a bus", trial, lifo.Throughput(), fifo.Throughput())
		}
	}
}

// TestStarLIFOCanBeatFIFO documents the heterogeneous counterpart: on star
// platforms there are instances where the optimal LIFO schedule strictly
// beats the optimal FIFO schedule (the paper's Figure 12 prose), so neither
// discipline dominates in general.
func TestStarLIFOCanBeatFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	found := false
	for trial := 0; trial < 30 && !found; trial++ {
		ws := make([]platform.Worker, 3)
		z := 0.2 + 0.6*rng.Float64()
		for i := range ws {
			c := 0.02 + 0.2*rng.Float64()
			ws[i] = platform.Worker{C: c, W: 0.2 + 0.8*rng.Float64(), D: z * c}
		}
		p := platform.New(ws...)
		fifo, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		lifo, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if lifo.Throughput() > fifo.Throughput()*(1+1e-6) {
			found = true
		}
	}
	if !found {
		t.Error("no star instance found where LIFO beats FIFO; the Figure 12 regime is gone")
	}
}

// --- LIFO bus closed form -------------------------------------------------

func TestBusLIFOClosedFormMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 15; trial++ {
		p := randomBus(rng, 1+rng.Intn(6), true)
		closed, err := BusLIFOThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		order := platform.Identity(p.P())
		s, err := SolveScenario(context.Background(), p, order, order.Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(closed, s.Throughput()) {
			t.Errorf("trial %d: LIFO closed form %g != LP %g\n%s",
				trial, closed, s.Throughput(), p)
		}
	}
}

// --- FIFO vs LIFO vs unrestricted pairs ----------------------------------

func TestBestPairDominatesFixedDisciplines(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	for trial := 0; trial < 5; trial++ {
		p := randomStar(rng, 3, 0.5)
		pair, err := BestPairExhaustiveContext(context.Background(), p, schedule.OnePort, Float64)
		if err != nil {
			t.Fatal(err)
		}
		fifo, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		lifo, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if fifo.Throughput() > pair.Schedule.Throughput()+tol {
			t.Errorf("trial %d: FIFO %g beats unrestricted best %g",
				trial, fifo.Throughput(), pair.Schedule.Throughput())
		}
		if lifo.Throughput() > pair.Schedule.Throughput()+tol {
			t.Errorf("trial %d: LIFO %g beats unrestricted best %g",
				trial, lifo.Throughput(), pair.Schedule.Throughput())
		}
	}
}

func TestBestLIFOExhaustiveMatchesOptimalLIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 8; trial++ {
		p := randomStar(rng, 4, 0.2+0.7*rng.Float64())
		opt, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		best, order, err := BestLIFOExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(best.Throughput(), opt.Throughput()) {
			t.Errorf("trial %d: LIFO by c %g != exhaustive LIFO best %g (order %v)",
				trial, opt.Throughput(), best.Throughput(), order)
		}
	}
}

// --- Exhaustive search machinery ------------------------------------------

func TestForEachPermutationCounts(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		count := 0
		seen := map[string]bool{}
		err := forEachPermutation(n, func(perm []int, _ int) error {
			count++
			key := ""
			for _, v := range perm {
				key += string(rune('0' + v))
			}
			seen[key] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != want || len(seen) != want {
			t.Errorf("n=%d: %d permutations (%d unique), want %d", n, count, len(seen), want)
		}
	}
}

func TestExhaustiveLimits(t *testing.T) {
	big := randomStar(rand.New(rand.NewSource(110)), maxExhaustiveOrder+1, 0.5)
	if _, _, err := BestFIFOExhaustiveEval(context.Background(), big, schedule.OnePort, eval.Auto); err == nil {
		t.Error("exhaustive FIFO must refuse oversized platforms")
	}
	med := randomStar(rand.New(rand.NewSource(111)), maxExhaustivePair+1, 0.5)
	if _, err := BestPairExhaustiveContext(context.Background(), med, schedule.OnePort, Float64); err == nil {
		t.Error("exhaustive pair search must refuse oversized platforms")
	}
	// Exact arithmetic keeps the historical cap: the flat loop runs
	// unpruned there, so the branch-and-bound's larger ceiling must not
	// admit a days-long (p!)² exact simplex enumeration.
	exactBig := randomStar(rand.New(rand.NewSource(112)), maxExhaustivePairExact+1, 0.5)
	if _, err := BestPairExhaustiveContext(context.Background(), exactBig, schedule.OnePort, Exact); err == nil {
		t.Error("exact-rational pair search must refuse platforms beyond the unpruned cap")
	}
	if _, _, err := BestFIFOExhaustiveEval(context.Background(), platform.New(), schedule.OnePort, eval.Auto); err == nil {
		t.Error("invalid platform must be rejected")
	}
	if _, err := BestPairExhaustiveContext(context.Background(), platform.New(), schedule.OnePort, Float64); err == nil {
		t.Error("invalid platform must be rejected")
	}
}

// --- Resource selection (Proposition 1, Section 5.3.4) --------------------

func TestResourceSelectionDropsHopelessWorker(t *testing.T) {
	// Three fast workers and one with pathological communication: the LP
	// must enroll only the three (cf. Figure 14(a) where worker 4 with
	// x = 1 is never used).
	app := platform.DefaultApp(400)
	p := platform.Fig14Speeds(1).Platform(app)
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range s.Participants() {
		if i == 3 {
			t.Errorf("slow worker 4 enrolled with load %g; Figure 14(a) expects it unused", s.Alpha[3])
		}
	}
	if len(s.Participants()) == 0 {
		t.Error("no participants")
	}
}

func TestResourceSelectionKeepsUsefulWorker(t *testing.T) {
	// With x = 3 the fourth worker becomes (mildly) useful: Figure 14(b).
	app := platform.DefaultApp(400)
	p := platform.Fig14Speeds(3).Platform(app)
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range s.Participants() {
		if i == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("worker 4 (x=3) not enrolled; participants = %v, alphas = %v",
			s.Participants(), s.Alpha)
	}
}

// --- Cross-arithmetic agreement -------------------------------------------

func TestQuickFloatMatchesExactOnScenarios(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomStar(rng, 1+rng.Intn(5), 0.1+0.8*rng.Float64())
		order := p.ByC()
		fs, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Logf("float: %v", err)
			return false
		}
		es, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.ExactRational)
		if err != nil {
			t.Logf("exact: %v", err)
			return false
		}
		return approxEq(fs.Throughput(), es.Throughput())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBusClosedForm(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	p := randomBus(rng, 11, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BusFIFOThroughput(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestFIFOExhaustive5(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	p := randomStar(rng, 5, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := BestFIFOExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto); err != nil {
			b.Fatal(err)
		}
	}
}
