package multiround

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mmapp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

func randomStar(rng *rand.Rand, p int) *platform.Platform {
	ws := make([]platform.Worker, p)
	for i := range ws {
		c := 0.02 + 0.2*rng.Float64()
		ws[i] = platform.Worker{C: c, W: 0.05 + 0.5*rng.Float64(), D: 0.5 * c}
	}
	return platform.New(ws...)
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	plat := randomStar(rng, 3)
	ok := Params{Platform: plat, Loads: []float64{1, 2, 3}, Order: platform.Order{0, 1, 2}, Rounds: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"nil platform", func(p *Params) { p.Platform = nil }},
		{"bad platform", func(p *Params) { p.Platform = platform.New() }},
		{"loads length", func(p *Params) { p.Loads = []float64{1} }},
		{"negative load", func(p *Params) { p.Loads[0] = -1 }},
		{"nan load", func(p *Params) { p.Loads[0] = math.NaN() }},
		{"zero rounds", func(p *Params) { p.Rounds = 0 }},
		{"negative latency", func(p *Params) { p.Latency = -1 }},
		{"order range", func(p *Params) { p.Order = platform.Order{0, 1, 9} }},
		{"order dup", func(p *Params) { p.Order = platform.Order{0, 0, 1} }},
		{"loaded not ordered", func(p *Params) { p.Order = platform.Order{0, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ok
			p.Loads = append([]float64(nil), ok.Loads...)
			p.Order = ok.Order.Clone()
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("want error")
			}
			if _, err := Makespan(p); err == nil {
				t.Error("Makespan must reject invalid params")
			}
		})
	}
}

func TestZeroLoadIsZeroMakespan(t *testing.T) {
	plat := randomStar(rand.New(rand.NewSource(2)), 2)
	m, err := Makespan(Params{Platform: plat, Loads: []float64{0, 0}, Order: platform.Order{}, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 {
		t.Errorf("makespan = %g, want 0", m)
	}
}

// TestOneRoundMatchesSimulator: with R = 1 and no latency the analytical
// makespan must equal the eager virtual-cluster execution of the same
// schedule — the two independent implementations of the same semantics.
func TestOneRoundMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		size := 60 + 30*trial
		app := platform.DefaultApp(size)
		sp := platform.RandomSpeeds(rng, 5, platform.Heterogeneous)
		plat := sp.Platform(app)
		sched, err := core.OptimalFIFO(plat, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		scaled := sched.ScaledToLoad(300)
		analytic, err := Makespan(Params{
			Platform: plat,
			Loads:    scaled.Alpha,
			Order:    scaled.SendOrder,
			Rounds:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := mmapp.Run(mmapp.Params{
			App:         app,
			Speeds:      sp,
			Loads:       scaled.Alpha,
			SendOrder:   scaled.SendOrder,
			ReturnOrder: scaled.ReturnOrder,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(analytic-sim.Makespan) > 1e-9*(1+sim.Makespan) {
			t.Errorf("trial %d: analytic %g vs simulated %g", trial, analytic, sim.Makespan)
		}
	}
}

func TestMoreRoundsHelpWithoutLatency(t *testing.T) {
	// Pure linear model: splitting into more rounds can only improve the
	// pipeline (monotone non-increasing makespan).
	rng := rand.New(rand.NewSource(4))
	plat := randomStar(rng, 4)
	loads := []float64{3, 2, 2.5, 1}
	sweep, err := Sweep(Params{
		Platform: plat,
		Loads:    loads,
		Order:    plat.ByC(),
		Rounds:   1,
	}, 12)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(sweep); r++ {
		if sweep[r] > sweep[r-1]+1e-9 {
			t.Errorf("makespan increased from R=%d (%g) to R=%d (%g) without latency",
				r, sweep[r-1], r+1, sweep[r])
		}
	}
}

func TestLatencyCreatesInteriorOptimum(t *testing.T) {
	// With a per-message latency, many rounds pay R·p extra start-ups: the
	// sweep must turn upward, and the best round count must beat both
	// extremes for a suitable latency.
	rng := rand.New(rand.NewSource(5))
	plat := randomStar(rng, 4)
	loads := []float64{3, 2, 2.5, 1}
	p := Params{
		Platform: plat,
		Loads:    loads,
		Order:    plat.ByC(),
		Latency:  0.02,
	}
	const maxR = 40
	bestR, bestM, err := BestRounds(p, maxR)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Sweep(p, maxR)
	if err != nil {
		t.Fatal(err)
	}
	if bestM > sweep[0]+1e-12 || bestM > sweep[maxR-1]+1e-12 {
		t.Errorf("best %g at R=%d does not beat extremes %g / %g", bestM, bestR, sweep[0], sweep[maxR-1])
	}
	if sweep[maxR-1] <= sweep[0] {
		t.Skipf("latency too small to turn the sweep upward on this instance")
	}
	if bestR <= 1 || bestR >= maxR {
		t.Errorf("expected an interior optimum, got R* = %d", bestR)
	}
}

func TestHighLatencyFavorsOneRound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	plat := randomStar(rng, 3)
	p := Params{
		Platform: plat,
		Loads:    []float64{1, 1, 1},
		Order:    plat.ByC(),
		Latency:  5, // absurdly expensive messages
	}
	bestR, _, err := BestRounds(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bestR != 1 {
		t.Errorf("with dominant latency R* = %d, want 1", bestR)
	}
}

func TestSweepErrors(t *testing.T) {
	plat := randomStar(rand.New(rand.NewSource(7)), 2)
	p := Params{Platform: plat, Loads: []float64{1, 1}, Order: platform.Order{0, 1}}
	if _, err := Sweep(p, 0); err == nil {
		t.Error("maxRounds 0 must fail")
	}
	if _, _, err := BestRounds(Params{}, 3); err == nil {
		t.Error("invalid params must fail")
	}
}

// TestQuickMakespanLowerBounds: the multi-round makespan can never beat
// the port occupation bound Σα(c+d) + 2·R·q·L nor any single worker's own
// chain c·α/R + w·α + d·α/R (first chunk in, all compute, last chunk out).
func TestQuickMakespanLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		plat := randomStar(rng, n)
		loads := make([]float64, n)
		var order platform.Order
		for i := range loads {
			loads[i] = rng.Float64() * 4
			if loads[i] > 0 {
				order = append(order, i)
			}
		}
		R := 1 + rng.Intn(8)
		L := rng.Float64() * 0.01
		m, err := Makespan(Params{Platform: plat, Loads: loads, Order: order, Rounds: R, Latency: L})
		if err != nil {
			return false
		}
		port := 0.0
		q := 0
		for i, a := range loads {
			if a == 0 {
				continue
			}
			q++
			port += a * (plat.Workers[i].C + plat.Workers[i].D)
		}
		port += 2 * float64(R) * float64(q) * L
		if m < port-1e-9 {
			t.Logf("seed %d: makespan %g below port bound %g", seed, m, port)
			return false
		}
		for i, a := range loads {
			if a == 0 {
				continue
			}
			w := plat.Workers[i]
			chain := a/float64(R)*w.C + a*w.W + a/float64(R)*w.D + 2*L
			if m < chain-1e-9 {
				t.Logf("seed %d: makespan %g below worker %d chain %g", seed, m, i, chain)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSweep16Rounds(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	plat := randomStar(rng, 11)
	loads := make([]float64, 11)
	for i := range loads {
		loads[i] = 1 + rng.Float64()
	}
	p := Params{Platform: plat, Loads: loads, Order: plat.ByC(), Latency: 0.001}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(p, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFromSchedule(t *testing.T) {
	p := platform.New(
		platform.Worker{C: 0.05, W: 0.3, D: 0.025},
		platform.Worker{C: 0.08, W: 0.2, D: 0.04},
	)
	s := &schedule.Schedule{
		SendOrder:   platform.Order{0, 1},
		ReturnOrder: platform.Order{0, 1},
		Alpha:       []float64{600, 400},
		T:           100,
	}
	params := FromSchedule(p, s, 0.01)
	if err := params.Validate(); err != nil {
		t.Fatalf("FromSchedule produced invalid params: %v", err)
	}
	if params.Rounds != 1 || params.Latency != 0.01 {
		t.Errorf("params = %+v", params)
	}
	// The seed data is copied, not aliased.
	params.Loads[0] = -1
	params.Order[0] = 9
	if s.Alpha[0] == -1 || s.SendOrder[0] == 9 {
		t.Error("FromSchedule aliases the schedule's slices")
	}
	// One round of the schedule's own loads must be evaluable.
	params = FromSchedule(p, s, 0)
	m, err := Makespan(params)
	if err != nil || m <= 0 {
		t.Fatalf("Makespan = (%g, %v)", m, err)
	}
}
