package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// The backend-agreement property test of the scenario-evaluation pipeline:
// on randomized platforms spanning every regime the backends specialise on
// (common z below and above 1, no common z, buses, compute-bound and
// port-bound mixes), the pivot tier and the simplex backend must agree on throughput/makespan and on every load to 1e-9, and
// the exact-rational backend must confirm the float64 optima.

const agreeTol = 1e-9

func agreeEq(a, b float64) bool {
	return math.Abs(a-b) <= agreeTol*(1+math.Abs(a)+math.Abs(b))
}

// randomAgreementPlatform draws a platform from one of the paper's shape
// families, mixing sizes p ≤ 8 and cost regimes. On a bus (identical
// links) a port-bound optimum is a degenerate face of the LP, but the
// degenerate-optimum canonicalisation (canonical.go) pins every float64
// backend to the lexicographically smallest optimal loads, so loads are
// comparable across backends on every family — no carve-out needed.
func randomAgreementPlatform(rng *rand.Rand) *platform.Platform {
	p := 1 + rng.Intn(8)
	family := rng.Intn(4)
	ws := make([]platform.Worker, p)
	switch family {
	case 0: // common z < 1
		z := 0.1 + 0.8*rng.Float64()
		for i := range ws {
			c := 0.02 + 0.2*rng.Float64()
			ws[i] = platform.Worker{C: c, W: 0.05 + 0.5*rng.Float64(), D: z * c}
		}
	case 1: // common z > 1
		z := 1.1 + 2*rng.Float64()
		for i := range ws {
			c := 0.02 + 0.2*rng.Float64()
			ws[i] = platform.Worker{C: c, W: 0.05 + 0.5*rng.Float64(), D: z * c}
		}
	case 2: // no common z: fully independent costs
		for i := range ws {
			ws[i] = platform.Worker{
				C: 0.02 + 0.2*rng.Float64(),
				W: 0.05 + 0.5*rng.Float64(),
				D: 0.01 + 0.3*rng.Float64(),
			}
		}
	default: // bus (identical links), heterogeneous compute
		c := 0.02 + 0.2*rng.Float64()
		d := c * (0.1 + 1.5*rng.Float64())
		for i := range ws {
			ws[i] = platform.Worker{C: c, W: 0.05 + 0.5*rng.Float64(), D: d}
		}
	}
	return platform.New(ws...)
}

// randomScenario draws a scenario shape: FIFO, LIFO or a general pair,
// one-port mostly, two-port sometimes.
func randomScenario(rng *rand.Rand, p *platform.Platform) Scenario {
	n := p.P()
	send := platform.Order(rng.Perm(n))
	var ret platform.Order
	switch rng.Intn(3) {
	case 0:
		ret = send
	case 1:
		ret = send.Reverse()
	default:
		ret = platform.Order(rng.Perm(n))
	}
	model := schedule.OnePort
	if rng.Intn(5) == 0 {
		model = schedule.TwoPort
	}
	return Scenario{Platform: p, Send: send, Return: ret, Model: model}
}

// evaluatePivot is Evaluate pinned to the pivot tier, whatever the
// scenario shape, so the FIFO and LIFO scenarios the chains answer under
// Auto exercise it too. A simplex fallback fails the test.
func evaluatePivot(t *testing.T, sc Scenario) *schedule.Schedule {
	t.Helper()
	s := NewSession()
	alpha, _, err := s.pivotScenario(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, fallback := s.Backend(); fallback {
		t.Fatalf("pivot certificate failed\nσ1=%v σ2=%v model=%v\n%s", sc.Send, sc.Return, sc.Model, sc.Platform)
	}
	out, err := s.canonicalSchedule(sc, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPivotAgreesWithSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
	const trials = 240
	const load = 1000.0
	for trial := 0; trial < trials; trial++ {
		p := randomAgreementPlatform(rng)
		sc := randomScenario(rng, p)
		pivot := evaluatePivot(t, sc)
		simplex, err := Evaluate(sc, Simplex)
		if err != nil {
			t.Fatalf("trial %d: simplex: %v\n%s", trial, err, p)
		}
		if !agreeEq(pivot.Throughput(), simplex.Throughput()) {
			t.Errorf("trial %d: throughput pivot %.12g != simplex %.12g\nscenario σ1=%v σ2=%v model=%v\n%s",
				trial, pivot.Throughput(), simplex.Throughput(), sc.Send, sc.Return, sc.Model, p)
		}
		// Makespan for a fixed load is load/ρ — agreement transfers, but
		// assert it explicitly since it is the user-facing number.
		if !agreeEq(load/pivot.Throughput(), load/simplex.Throughput()) {
			t.Errorf("trial %d: makespan disagreement", trial)
		}
		for i := range pivot.Alpha {
			if !agreeEq(pivot.Alpha[i], simplex.Alpha[i]) {
				t.Errorf("trial %d: load of worker %d: pivot %.12g != simplex %.12g\nscenario σ1=%v σ2=%v model=%v\n%s",
					trial, i, pivot.Alpha[i], simplex.Alpha[i], sc.Send, sc.Return, sc.Model, p)
			}
		}
		// Auto must tier to the same optimum as well.
		auto, err := Evaluate(sc, Auto)
		if err != nil {
			t.Fatalf("trial %d: auto: %v", trial, err)
		}
		if !agreeEq(auto.Throughput(), simplex.Throughput()) {
			t.Errorf("trial %d: auto throughput %.12g != simplex %.12g", trial, auto.Throughput(), simplex.Throughput())
		}
		// Every 10th trial: the exact-rational backend confirms the tie.
		if trial%10 == 0 {
			exact, err := Evaluate(sc, ExactRational)
			if err != nil {
				t.Fatalf("trial %d: exact: %v", trial, err)
			}
			if !agreeEq(exact.Throughput(), simplex.Throughput()) {
				t.Errorf("trial %d: exact %.12g != simplex %.12g (float64 simplex off the true optimum)",
					trial, exact.Throughput(), simplex.Throughput())
			}
			if !agreeEq(exact.Throughput(), pivot.Throughput()) {
				t.Errorf("trial %d: exact %.12g != pivot %.12g (pivot certificate off the true optimum)",
					trial, exact.Throughput(), pivot.Throughput())
			}
		}
	}
}

// TestExhaustiveSearchBackendAgreement pins the acceptance criterion of
// the pipeline at the strategy level: the full FIFO order search must
// produce the same optimal order and loads (within 1e-9) whether scenarios
// are evaluated by the tiered pipeline or by the simplex alone.
func TestExhaustiveSearchBackendAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 6; trial++ {
		p := randomAgreementPlatform(rng)
		if p.P() > 6 {
			continue // keep the factorial sweep fast
		}
		sess := NewSession()
		n := p.P()
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var bestAuto, bestSimplex float64
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				sc := Scenario{
					Platform: p,
					Send:     append(platform.Order(nil), perm...),
					Return:   append(platform.Order(nil), perm...),
					Model:    schedule.OnePort,
				}
				ra, err := sess.Throughput(sc, Auto)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := sess.Throughput(sc, Simplex)
				if err != nil {
					t.Fatal(err)
				}
				if !agreeEq(ra, rs) {
					t.Errorf("trial %d order %v: auto %.12g != simplex %.12g", trial, perm, ra, rs)
				}
				if ra > bestAuto {
					bestAuto = ra
				}
				if rs > bestSimplex {
					bestSimplex = rs
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if !agreeEq(bestAuto, bestSimplex) {
			t.Errorf("trial %d: best throughput auto %.12g != simplex %.12g", trial, bestAuto, bestSimplex)
		}
	}
}

// TestSendBoundIsUpperBound validates the pair-search pruning bound: for
// every return order the bound must dominate the scenario optimum.
func TestSendBoundIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		p := randomAgreementPlatform(rng)
		if p.P() > 5 {
			continue
		}
		n := p.P()
		send := platform.Order(rng.Perm(n))
		sess := NewSession()
		bound, err := sendBound(p, send, schedule.OnePort)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			ret := platform.Order(rng.Perm(n))
			rho, err := sess.Throughput(Scenario{Platform: p, Send: send, Return: ret, Model: schedule.OnePort}, Auto)
			if err != nil {
				t.Fatal(err)
			}
			if rho > bound*(1+1e-9) {
				t.Errorf("trial %d: scenario σ2=%v beats its send bound: %.12g > %.12g", trial, ret, rho, bound)
			}
		}
	}
}
