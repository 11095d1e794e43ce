package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

func testStar() *platform.Platform {
	return platform.New(
		platform.Worker{C: 0.05, W: 0.3, D: 0.025},
		platform.Worker{C: 0.08, W: 0.2, D: 0.04},
		platform.Worker{C: 0.10, W: 0.5, D: 0.05},
	)
}

func TestModeParseAndString(t *testing.T) {
	for _, m := range []Mode{Auto, Simplex, ExactRational} {
		if !m.Valid() {
			t.Errorf("%v must be valid", m)
		}
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = (%v, %v), want %v", m.String(), got, err, m)
		}
	}
	if Mode(42).Valid() {
		t.Error("Mode(42) must be invalid")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode must still render")
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("ParseMode must reject unknown names")
	}
	if !strings.Contains(ModeNames(), "simplex") {
		t.Errorf("ModeNames() = %q", ModeNames())
	}
	for _, gone := range []string{"closed-form", "direct"} {
		if _, err := ParseMode(gone); err == nil {
			t.Errorf("ParseMode(%q) accepted a removed mode", gone)
		}
	}
}

// TestEvaluateModesAgree: every mode, tiered or pinned to one backend,
// answers a FIFO scenario with the same verified optimum.
func TestEvaluateModesAgree(t *testing.T) {
	p := testStar()
	order := p.ByC()
	sc := Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}
	var ref float64
	for _, mode := range []Mode{Auto, Simplex, ExactRational} {
		s, err := Evaluate(sc, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if ref == 0 {
			ref = s.Throughput()
		} else if !agreeEq(s.Throughput(), ref) {
			t.Errorf("%v: throughput %g != %g", mode, s.Throughput(), ref)
		}
		if err := s.Check(p, schedule.OnePort); err != nil {
			t.Errorf("%v: schedule fails verification: %v", mode, err)
		}
	}
	if _, err := Evaluate(sc, Mode(42)); err == nil {
		t.Error("Evaluate must reject unknown modes")
	}
}

func TestScenarioValidation(t *testing.T) {
	p := testStar()
	id := platform.Identity(3)
	cases := []Scenario{
		{Platform: nil, Send: id, Return: id},
		{Platform: p, Send: platform.Order{}, Return: platform.Order{}},
		{Platform: p, Send: platform.Order{0, 0, 1}, Return: id},
		{Platform: p, Send: id, Return: platform.Order{0, 0, 1}},
		{Platform: p, Send: platform.Order{0, 1, 7}, Return: id},
		{Platform: p, Send: platform.Order{0, 1}, Return: id},
		{Platform: p, Send: platform.Order{0, 1}, Return: platform.Order{0, 2}},
		{Platform: p, Send: id, Return: id, Model: schedule.Model(9)},
	}
	for i, sc := range cases {
		if _, err := Evaluate(sc, Auto); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
	if _, err := Evaluate(Scenario{Platform: p, Send: id, Return: id}, Mode(42)); err == nil {
		t.Error("unknown mode must be rejected")
	}
}

func TestClosedFormBusPortBound(t *testing.T) {
	// On a bus the chain tier's port vertices cover the port-bound regime
	// of Theorem 2: with negligible compute ρ = 1/(c+d).
	p := platform.NewBus(0.3, 0.15, 1e-9, 1e-9, 1e-9)
	order := platform.Identity(3)
	sess := NewSession()
	s, err := sess.Evaluate(Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if backend, _ := sess.Backend(); backend != "closed-form" {
		t.Errorf("answered by %q, want the closed-form chain tier", backend)
	}
	if want := 1 / 0.45; !agreeEq(s.Throughput(), want) {
		t.Errorf("throughput %g, want %g", s.Throughput(), want)
	}
}

func TestLUSolveAndTranspose(t *testing.T) {
	// The LU primal and transpose solves against straightforward
	// evaluation on random well-conditioned systems.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(7)
		a := make([]float64, n*n)
		orig := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64() + 0.1
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) // diagonally dominant
		}
		copy(orig, a)
		piv := make([]int, n)
		if !luFactor(a, piv, n) {
			t.Fatalf("trial %d: unexpected singular", trial)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		luSolve(a, piv, n, x)
		for i := 0; i < n; i++ {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += orig[i*n+j] * x[j]
			}
			if math.Abs(dot-1) > 1e-9 {
				t.Fatalf("trial %d: A·x row %d = %g, want 1", trial, i, dot)
			}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = 1
		}
		luSolveTranspose(a, piv, n, y)
		for j := 0; j < n; j++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += orig[i*n+j] * y[i]
			}
			if math.Abs(dot-1) > 1e-9 {
				t.Fatalf("trial %d: Aᵀ·y col %d = %g, want 1", trial, j, dot)
			}
		}
	}
	// Singular matrices must be refused.
	sing := []float64{1, 2, 2, 4}
	if luFactor(sing, make([]int, 2), 2) {
		t.Error("singular matrix not detected")
	}
}

func TestSessionPoolReuse(t *testing.T) {
	p := testStar()
	order := p.ByC()
	sc := Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}
	s := GetSession()
	r1, err := s.Evaluate(sc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse across differently-sized scenarios must not leak state.
	small := platform.New(platform.Worker{C: 0.2, W: 0.5, D: 0.1})
	if _, err := s.Evaluate(Scenario{Platform: small, Send: platform.Identity(1), Return: platform.Identity(1), Model: schedule.OnePort}, Auto); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Evaluate(sc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !agreeEq(r1.Throughput(), r2.Throughput()) {
		t.Errorf("session reuse changed the result: %g != %g", r1.Throughput(), r2.Throughput())
	}
	s.Release()
}

func TestThroughputMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSession()
	for trial := 0; trial < 40; trial++ {
		p := randomAgreementPlatform(rng)
		sc := randomScenario(rng, p)
		rho, err := s.Throughput(sc, Auto)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := s.Evaluate(sc, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !agreeEq(rho, sched.Throughput()) {
			t.Errorf("trial %d: Throughput %.12g != Evaluate %.12g", trial, rho, sched.Throughput())
		}
	}
}

func TestZeroLoadWorkersPruned(t *testing.T) {
	// A worker with absurd communication cost must be pruned from the
	// orders by every backend.
	p := platform.New(
		platform.Worker{C: 0.05, W: 0.1, D: 0.025},
		platform.Worker{C: 1e6, W: 0.1, D: 5e5},
	)
	order := p.ByC()
	sc := Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}
	for _, mode := range []Mode{Auto, Simplex} {
		s, err := Evaluate(sc, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(s.SendOrder) != 1 || s.SendOrder[0] != 0 {
			t.Errorf("%v: send order %v, want [0]", mode, s.SendOrder)
		}
	}
	if s := evaluatePivot(t, sc); len(s.SendOrder) != 1 || s.SendOrder[0] != 0 {
		t.Errorf("pivot: send order %v, want [0]", s.SendOrder)
	}
}

func TestScenarioLPShape(t *testing.T) {
	p := testStar()
	order := p.ByC()
	prob, err := ScenarioLP(Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumVars() != 3 || prob.NumRows() != 4 {
		t.Errorf("one-port LP: %d vars × %d rows, want 3 × 4", prob.NumVars(), prob.NumRows())
	}
	prob2, err := ScenarioLP(Scenario{Platform: p, Send: order, Return: order, Model: schedule.TwoPort})
	if err != nil {
		t.Fatal(err)
	}
	if prob2.NumRows() != 5 {
		t.Errorf("two-port LP: %d rows, want 5", prob2.NumRows())
	}
}

func TestExactObjective(t *testing.T) {
	p := platform.New(platform.Worker{C: 0.25, W: 0.5, D: 0.25})
	o := platform.Identity(1)
	f, s, err := ExactObjective(Scenario{Platform: p, Send: o, Return: o, Model: schedule.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 || s != "1" {
		t.Errorf("ExactObjective = (%g, %q), want (1, \"1\")", f, s)
	}
}
