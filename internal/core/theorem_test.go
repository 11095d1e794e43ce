package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// theoremAgreementTol is the relative throughput gap allowed between the
// theorem's order and the sweep's winner.
const theoremAgreementTol = 1e-12

// theoremCase is one order search the theorems cover.
type theoremCase struct {
	name  string
	model schedule.Model
	lifo  bool
}

var theoremCases = []theoremCase{
	{"fifo/one-port", schedule.OnePort, false},
	{"lifo/one-port", schedule.OnePort, true},
	{"lifo/two-port", schedule.TwoPort, true},
}

// checkTheoremAgainstSweep solves p in TheoremOrder's order and checks its
// throughput against the p! sweep's, both under eval.Auto. Both must
// answer; where their float throughputs disagree, the theorem's order must
// be at least as good as the sweep's in exact arithmetic.
func checkTheoremAgainstSweep(t *testing.T, p *platform.Platform, tc theoremCase) {
	t.Helper()
	order, ok := TheoremOrder(p, tc.model, tc.lifo)
	if !ok {
		t.Fatalf("%s: TheoremOrder does not apply to a common-z platform\n%s", tc.name, p)
	}
	if !order.Valid(p.P()) {
		t.Fatalf("%s: TheoremOrder returned %v, not a permutation of %d workers", tc.name, order, p.P())
	}
	ret := order
	if tc.lifo {
		ret = order.Reverse()
	}
	want, sweepOrder, err := bestOrderExhaustive(context.Background(), p, tc.model, eval.Auto, tc.lifo)
	if err != nil {
		t.Fatalf("%s: sweep: %v\n%s", tc.name, err, p)
	}
	got, err := SolveScenario(context.Background(), p, order, ret, tc.model, eval.Auto)
	if err != nil {
		t.Fatalf("%s: theorem order %v: %v\n%s", tc.name, order, err, p)
	}
	if math.Abs(got.Throughput()-want.Throughput()) <= theoremAgreementTol*want.Throughput() {
		return
	}
	// Orders that tie exactly can differ in float by a few 1e-12 where the
	// simplex answers (all-equal c with z ≥ 1), and the sweep keeps
	// whichever rounded highest. The sweep's order must not beat the
	// theorem's in exact arithmetic; it can lose to it, having been picked
	// on rounded values.
	sweepRet := sweepOrder
	if tc.lifo {
		sweepRet = sweepOrder.Reverse()
	}
	ge, _, gerr := eval.ExactObjective(eval.Scenario{Platform: p, Send: order, Return: ret, Model: tc.model})
	we, _, werr := eval.ExactObjective(eval.Scenario{Platform: p, Send: sweepOrder, Return: sweepRet, Model: tc.model})
	if gerr != nil || werr != nil {
		t.Fatalf("%s: exact throughputs: %v, %v", tc.name, gerr, werr)
	}
	if we-ge > theoremAgreementTol*we {
		t.Fatalf("%s: theorem order %v has exact throughput %.17g (float %.17g), sweep order %v %.17g\n%s",
			tc.name, order, ge, got.Throughput(), sweepOrder, we, p)
	}
}

// tiedStar draws a p-worker star with common ratio z whose forward costs
// take at most distinct different values (1 makes every c equal), so
// equal-c ties are frequent.
func tiedStar(rng *rand.Rand, p, distinct int, z float64) *platform.Platform {
	cs := make([]float64, distinct)
	for i := range cs {
		cs[i] = 0.01 + rng.Float64()
	}
	ws := make([]platform.Worker, p)
	for i := range ws {
		c := cs[rng.Intn(distinct)]
		ws[i] = platform.Worker{C: c, W: 0.05 + rng.Float64(), D: z * c}
	}
	return platform.New(ws...)
}

// distinctStar draws a tiedStar-style p-worker star with common ratio z
// whose forward costs are all distinct.
func distinctStar(rng *rand.Rand, p int, z float64) *platform.Platform {
	ws := make([]platform.Worker, p)
	for i := range ws {
		c := 0.01 + rng.Float64()
		ws[i] = platform.Worker{C: c, W: 0.05 + rng.Float64(), D: z * c}
	}
	return platform.New(ws...)
}

// TestLargeZCorpora: 200 seeded common-z platforms at z = 1e5 and 200 at
// z = 1e6, where loads and multipliers sum to ρ ≈ 1/z. On every one,
// Theorem 1's order verifies under eval.Auto within 1e-12 of the exact
// optimum, and the FIFO one-port sweep answers with the same schedule, bit
// for bit, at 1, 2 and 4 search workers. The corpora are tie-free: under
// the one-port model two orders that tie in exact arithmetic can read one
// ulp apart depending on the path the sweep took to them, so with equal
// forward costs the winner can differ between worker counts for a reason
// outside this test (ROADMAP item 7; two-port ties are pinned by
// TestTiedTwoPortSweepMatchesSerial).
func TestLargeZCorpora(t *testing.T) {
	for _, z := range []float64{1e5, 1e6} {
		rng := rand.New(rand.NewSource(int64(z)))
		for i := 0; i < 200; i++ {
			p := distinctStar(rng, 4+rng.Intn(3), z)
			order, ok := TheoremOrder(p, schedule.OnePort, false)
			if !ok {
				t.Fatalf("z=%g #%d: no theorem order\n%s", z, i, p)
			}
			sc := eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}
			s, err := eval.Evaluate(sc, eval.Auto)
			if err != nil {
				t.Fatalf("z=%g #%d: theorem order %v: %v\n%s", z, i, order, err, p)
			}
			exact, _, err := eval.ExactObjective(sc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(s.Throughput()-exact) > theoremAgreementTol*exact {
				t.Fatalf("z=%g #%d: theorem order reads %.17g, exact %.17g\n%s", z, i, s.Throughput(), exact, p)
			}
			var serial []uint64
			var serialOrder platform.Order
			for _, workers := range []int{1, 2, 4} {
				ctx := ContextWithSearchParallelism(context.Background(), workers)
				got, gotOrder, err := BestFIFOExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
				if err != nil {
					t.Fatalf("z=%g #%d, %d workers: sweep: %v\n%s", z, i, workers, err, p)
				}
				if workers == 1 {
					serial, serialOrder = scheduleBits(got), gotOrder
					continue
				}
				if !ordersEqual(gotOrder, serialOrder) || !bitsEqual(scheduleBits(got), serial) ||
					!ordersEqual(got.SendOrder, got.ReturnOrder) {
					t.Fatalf("z=%g #%d, %d workers: sweep answered %v %v, serial %v\n%s",
						z, i, workers, gotOrder, got, serialOrder, p)
				}
			}
		}
	}
}

// TestTheoremOrderMatchesSweep is the seeded agreement corpus: 240
// common-z platforms, each solved as FIFO one-port, LIFO one-port and
// LIFO two-port, theorem against sweep.
func TestTheoremOrderMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var corpus []*platform.Platform
	for i := 0; i < 60; i++ { // the matrix-product app, z = 1/2
		p := 4 + rng.Intn(3)
		corpus = append(corpus, platform.RandomSpeeds(rng, p, platform.Heterogeneous).Platform(platform.DefaultApp(100+100*rng.Intn(4))))
	}
	for _, z := range []float64{0.3, 1, 2.5} {
		for i := 0; i < 50; i++ {
			corpus = append(corpus, tiedStar(rng, 4+rng.Intn(3), 10, z))
		}
	}
	for i := 0; i < 30; i++ { // forced ties: two or one distinct c
		z := []float64{0.3, 1, 2.5}[i%3]
		corpus = append(corpus, tiedStar(rng, 4+rng.Intn(3), 1+i%2, z))
	}
	if len(corpus) < 240 {
		t.Fatalf("corpus has %d platforms, want >= 240", len(corpus))
	}
	for _, p := range corpus {
		for _, tc := range theoremCases {
			checkTheoremAgainstSweep(t, p, tc)
		}
	}
}

// FuzzTheoremOrder checks the theorem's order against the p! sweep on
// common-z platforms: z below, at and above 1 (clamped to 1e-6..1e6), any
// number of distinct forward costs down to all equal, under FIFO
// one-port, LIFO one-port and LIFO two-port. FIFO two-port must report
// that no theorem applies.
func FuzzTheoremOrder(f *testing.F) {
	f.Add(int64(1), uint8(5), 0.5, uint8(10), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, z float64, distinct, kind uint8) {
		if math.IsNaN(z) || z <= 0 {
			t.Skip()
		}
		z = math.Min(math.Max(z, 1e-6), 1e6)
		rng := rand.New(rand.NewSource(seed))
		p := tiedStar(rng, 1+int(n%6), 1+int(distinct%10), z)
		if kind%4 == 3 {
			if _, ok := TheoremOrder(p, schedule.TwoPort, false); ok {
				t.Fatal("TheoremOrder applies to two-port FIFO")
			}
			return
		}
		checkTheoremAgainstSweep(t, p, theoremCases[kind%4])
	})
}

// TestTheoremOrderGate: the theorem answers only ratios equal up to
// rounding. Ratios up to numeric.RatioTol apart pass Platform.Z but take
// the sweep; so do two-port FIFO and invalid platforms.
func TestTheoremOrderGate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		p := tiedStar(rng, 2+rng.Intn(5), 10, []float64{0.3, 1, 2.5}[i%3])
		for _, tc := range theoremCases {
			if _, ok := TheoremOrder(p, tc.model, tc.lifo); !ok {
				t.Fatalf("%s: no theorem order for a common-z platform\n%s", tc.name, p)
			}
		}
		if _, ok := TheoremOrder(p, schedule.TwoPort, false); ok {
			t.Fatal("TheoremOrder applies to two-port FIFO")
		}
		k := rng.Intn(p.P())
		for _, rel := range []float64{numeric.RatioTol, numeric.RatioTol / 10, 1e-13} {
			q := p.Clone()
			q.Workers[k].D *= 1 + rel
			if _, ok := q.Z(); !ok {
				t.Fatalf("Platform.Z rejects a ratio %g apart", rel)
			}
			for _, tc := range theoremCases {
				if q.P() > 1 {
					if _, ok := TheoremOrder(q, tc.model, tc.lifo); ok {
						t.Fatalf("%s: TheoremOrder applies with ratios %g apart\n%s", tc.name, rel, q)
					}
				}
			}
		}
	}
	if _, ok := TheoremOrder(platform.New(), schedule.OnePort, false); ok {
		t.Fatal("TheoremOrder applies to an empty platform")
	}
	bad := platform.New(platform.Worker{C: 1, W: 1, D: 0.5}, platform.Worker{C: 0, W: 1, D: 0})
	if _, ok := TheoremOrder(bad, schedule.OnePort, true); ok {
		t.Fatal("TheoremOrder applies to an invalid platform")
	}
}

// TestTheoremOrderTies: equal-c workers keep index order, and the order
// direction follows z.
func TestTheoremOrderTies(t *testing.T) {
	p := platform.New(
		platform.Worker{C: 0.2, W: 0.3, D: 0.1},
		platform.Worker{C: 0.1, W: 0.5, D: 0.05},
		platform.Worker{C: 0.2, W: 0.1, D: 0.1},
		platform.Worker{C: 0.1, W: 0.2, D: 0.05},
	)
	for _, tc := range []struct {
		p     *platform.Platform
		model schedule.Model
		lifo  bool
		want  platform.Order
	}{
		{p, schedule.OnePort, false, platform.Order{1, 3, 0, 2}},
		{p, schedule.OnePort, true, platform.Order{1, 3, 0, 2}},
		{p, schedule.TwoPort, true, platform.Order{1, 3, 0, 2}},
		{mirror(p), schedule.OnePort, false, platform.Order{0, 2, 1, 3}},
		{mirror(p), schedule.OnePort, true, platform.Order{1, 3, 0, 2}},
	} {
		got, ok := TheoremOrder(tc.p, tc.model, tc.lifo)
		if !ok || !ordersEqual(got, tc.want) {
			t.Errorf("TheoremOrder(model %v, lifo %v) = %v, %v; want %v", tc.model, tc.lifo, got, ok, tc.want)
		}
	}
}
