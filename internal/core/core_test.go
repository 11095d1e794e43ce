package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

const tol = 1e-7

func approxEq(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

// randomStar returns a random star platform with a common z and costs in a
// moderate range. comm/comp speeds follow the paper's 1..10 integers.
func randomStar(rng *rand.Rand, p int, z float64) *platform.Platform {
	ws := make([]platform.Worker, p)
	for i := range ws {
		c := 0.02 + 0.2*rng.Float64()
		w := 0.05 + 0.5*rng.Float64()
		ws[i] = platform.Worker{C: c, W: w, D: z * c}
	}
	return platform.New(ws...)
}

func TestSingleWorkerClosedForm(t *testing.T) {
	// One worker: ρ = 1/(c+w+d) (its row dominates the port constraint).
	p := platform.New(platform.Worker{C: 0.2, W: 0.5, D: 0.1})
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (0.2 + 0.5 + 0.1)
	if !approxEq(s.Throughput(), want) {
		t.Errorf("throughput = %g, want %g", s.Throughput(), want)
	}
	if len(s.Participants()) != 1 {
		t.Errorf("participants = %v", s.Participants())
	}
}

func TestSingleWorkerCommBound(t *testing.T) {
	// Tiny compute: the port constraint cannot bind with one worker
	// (row = c+w+d ≥ c+d), so ρ = 1/(c+w+d) still.
	p := platform.New(platform.Worker{C: 0.4, W: 1e-6, D: 0.2})
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (0.4 + 1e-6 + 0.2)
	if !approxEq(s.Throughput(), want) {
		t.Errorf("throughput = %g, want %g", s.Throughput(), want)
	}
}

func TestTwoWorkerHandComputed(t *testing.T) {
	// Symmetric workers: c = 0.1, w = 0.4, d = 0.05. FIFO order (P1, P2).
	// With both rows and the port far from binding, rows are tight:
	//   row1: α1(c+w) + α1 d + α2 d = 1  →  0.55 α1 + 0.05 α2 = 1
	//   row2: α1 c + α2(c+w+d) = 1      →  0.10 α1 + 0.55 α2 = 1
	// Solving: α1 = 1.66048..., α2 = 1.516245...; check via LP.
	p := platform.New(
		platform.Worker{C: 0.1, W: 0.4, D: 0.05},
		platform.Worker{C: 0.1, W: 0.4, D: 0.05},
	)
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	// Solve the 2x2 system directly.
	// 0.55 a + 0.05 b = 1 ; 0.10 a + 0.55 b = 1
	det := 0.55*0.55 - 0.05*0.10
	a := (1*0.55 - 0.05*1) / det
	b := (0.55*1 - 1*0.10) / det
	if !approxEq(s.Alpha[0], a) || !approxEq(s.Alpha[1], b) {
		t.Errorf("alphas = (%g, %g), want (%g, %g)", s.Alpha[0], s.Alpha[1], a, b)
	}
	if !approxEq(s.Throughput(), a+b) {
		t.Errorf("throughput = %g, want %g", s.Throughput(), a+b)
	}
	// Port must not be binding here: Σα(c+d) = 0.15(a+b) < 1.
	if 0.15*(a+b) >= 1 {
		t.Fatalf("test construction wrong: port binding")
	}
}

func TestScenarioLPShape(t *testing.T) {
	p := randomStar(rand.New(rand.NewSource(1)), 5, 0.5)
	order := p.ByC()
	prob, err := eval.ScenarioLP(eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumVars() != 5 {
		t.Errorf("NumVars = %d, want 5", prob.NumVars())
	}
	if prob.NumRows() != 6 { // 5 worker rows + 1 port row
		t.Errorf("NumRows = %d, want 6", prob.NumRows())
	}
	prob2, err := eval.ScenarioLP(eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.TwoPort})
	if err != nil {
		t.Fatal(err)
	}
	if prob2.NumRows() != 7 { // 5 worker rows + 2 port rows
		t.Errorf("two-port NumRows = %d, want 7", prob2.NumRows())
	}
}

func TestScenarioLPValidation(t *testing.T) {
	p := randomStar(rand.New(rand.NewSource(2)), 3, 0.5)
	id := platform.Identity(3)
	cases := []struct {
		name      string
		send, ret platform.Order
		model     schedule.Model
	}{
		{"empty", platform.Order{}, platform.Order{}, schedule.OnePort},
		{"dup send", platform.Order{0, 0, 1}, id, schedule.OnePort},
		{"dup ret", id, platform.Order{0, 0, 1}, schedule.OnePort},
		{"out of range", platform.Order{0, 1, 7}, id, schedule.OnePort},
		{"length mismatch", platform.Order{0, 1}, id, schedule.OnePort},
		{"set mismatch", platform.Order{0, 1}, platform.Order{0, 2}, schedule.OnePort},
		{"bad model", id, id, schedule.Model(9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eval.ScenarioLP(eval.Scenario{Platform: p, Send: tc.send, Return: tc.ret, Model: tc.model}); err == nil {
				t.Error("want error")
			}
		})
	}
	bad := platform.New(platform.Worker{C: -1, W: 1, D: 1})
	if _, err := eval.ScenarioLP(eval.Scenario{Platform: bad, Send: platform.Order{0}, Return: platform.Order{0}, Model: schedule.OnePort}); err == nil {
		t.Error("invalid platform must be rejected")
	}
}

func TestSolveScenarioBadArith(t *testing.T) {
	p := randomStar(rand.New(rand.NewSource(3)), 2, 0.5)
	o := platform.Identity(2)
	if _, err := SolveScenario(context.Background(), p, o, o, schedule.OnePort, eval.Mode(42)); err == nil {
		t.Error("unknown eval mode must be rejected")
	}
	if _, err := OnePortPenalty(p, Arith(42)); err == nil {
		t.Error("unknown arithmetic must be rejected")
	}
	if Float64.String() != "float64" || Exact.String() != "exact" || Arith(9).String() == "" {
		t.Error("Arith.String mismatch")
	}
}

func TestOptimalFIFOSendOrderSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomStar(rng, 7, 0.5)
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsFIFO() {
		t.Fatal("OptimalFIFO must return a FIFO schedule")
	}
	for k := 1; k < len(s.SendOrder); k++ {
		a, b := s.SendOrder[k-1], s.SendOrder[k]
		if p.Workers[a].C > p.Workers[b].C+1e-15 {
			t.Errorf("send order not sorted by c: %v", s.SendOrder)
		}
	}
	if err := s.Check(p, schedule.OnePort); err != nil {
		t.Errorf("schedule infeasible: %v", err)
	}
}

func TestOptimalFIFOZGreaterOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomStar(rng, 6, 2.5) // z = 2.5 > 1
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(p, schedule.OnePort); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
	// Section 3: initial messages in non-increasing c order.
	for k := 1; k < len(s.SendOrder); k++ {
		a, b := s.SendOrder[k-1], s.SendOrder[k]
		if p.Workers[a].C < p.Workers[b].C-1e-15 {
			t.Errorf("z>1 send order not sorted by non-increasing c: %v", s.SendOrder)
		}
	}
	// Mirror symmetry: the optimal throughput on the mirror platform is the
	// same (time reversal is an involution).
	m, err := OptimalFIFO(mirror(p), eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Throughput(), m.Throughput()) {
		t.Errorf("mirror throughput %g != %g", m.Throughput(), s.Throughput())
	}
}

// mirror returns p with forward and return costs swapped (c ↔ d), the
// platform of Section 3's time-reversal argument.
func mirror(p *platform.Platform) *platform.Platform {
	m := p.Clone()
	for i := range m.Workers {
		m.Workers[i].C, m.Workers[i].D = m.Workers[i].D, m.Workers[i].C
	}
	return m
}

func TestOptimalFIFONoCommonZ(t *testing.T) {
	p := platform.New(
		platform.Worker{C: 1, W: 1, D: 0.5},
		platform.Worker{C: 1, W: 1, D: 0.9},
	)
	if _, err := OptimalFIFO(p, eval.Auto); err != ErrNoCommonZ {
		t.Errorf("want ErrNoCommonZ, got %v", err)
	}
}

func TestOptimalFIFOInvalidPlatform(t *testing.T) {
	if _, err := OptimalFIFO(platform.New(), eval.Auto); err == nil {
		t.Error("empty platform must be rejected")
	}
	if _, err := SolveScenario(context.Background(), platform.New(), nil, nil, schedule.OnePort, eval.Auto); err == nil {
		t.Error("empty platform must be rejected by SolveScenario")
	}
}

func TestHeuristicsReturnVerifiedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomStar(rng, 6, 0.5)
	for _, tc := range []struct {
		name      string
		send, ret platform.Order
	}{
		{"IncC", p.ByC(), p.ByC()},
		{"IncW", p.ByW(), p.ByW()},
		{"DecC", p.ByCDesc(), p.ByCDesc()},
		{"OptimalLIFO", p.ByC(), p.ByC().Reverse()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := SolveScenario(context.Background(), p, tc.send, tc.ret, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Check(p, schedule.OnePort); err != nil {
				t.Errorf("infeasible: %v", err)
			}
			if s.Throughput() <= 0 {
				t.Error("throughput must be positive")
			}
		})
	}
}

func TestIncCEqualsOptimalFIFOWhenZBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 5, 0.3+0.5*rng.Float64())
		opt, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(opt.Throughput(), inc.Throughput()) {
			t.Errorf("trial %d: OptimalFIFO %g != IncC %g", trial, opt.Throughput(), inc.Throughput())
		}
	}
}

func TestLIFOOnePortConstraintRedundant(t *testing.T) {
	// Every LIFO schedule naturally obeys the one-port model (Section 2.2):
	// the LIFO optimum must be identical under both models.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 4, 0.2+rng.Float64())
		order := p.ByC()
		one, err := SolveScenario(context.Background(), p, order, order.Reverse(), schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		two, err := SolveScenario(context.Background(), p, order, order.Reverse(), schedule.TwoPort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(one.Throughput(), two.Throughput()) {
			t.Errorf("trial %d: LIFO one-port %g != two-port %g",
				trial, one.Throughput(), two.Throughput())
		}
		if !one.IsLIFO() {
			t.Error("the LIFO scenario must return a LIFO schedule")
		}
	}
}

func TestTwoPortAtLeastOnePort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 5, 0.5)
		order := p.ByC()
		one, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		two, err := SolveScenario(context.Background(), p, order, order, schedule.TwoPort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if one.Throughput() > two.Throughput()+tol {
			t.Errorf("trial %d: one-port %g exceeds two-port %g", trial, one.Throughput(), two.Throughput())
		}
	}
}

func TestOnePortCommunicationBound(t *testing.T) {
	// ρ(c̄+d̄) ≤ 1: total port occupation cannot exceed the horizon.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, 6, 0.5)
		s, err := OptimalFIFO(p, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		occ := 0.0
		for i, a := range s.Alpha {
			occ += a * (p.Workers[i].C + p.Workers[i].D)
		}
		if occ > 1+tol {
			t.Errorf("trial %d: port occupation %g > 1", trial, occ)
		}
	}
}

func TestIdleOnlyAtLastParticipant(t *testing.T) {
	// Lemma 2 + Theorem 1: with strictly increasing c_i (generic random
	// platforms), any optimal FIFO solution has idle time only at the last
	// participating worker.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := randomStar(rng, 6, 0.5)
		s, err := OptimalFIFO(p, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		tl := s.Timeline(p)
		parts := s.Participants()
		last := parts[len(parts)-1]
		for _, wt := range tl {
			if s.Alpha[wt.Worker] == 0 || wt.Worker == last {
				continue
			}
			if wt.Idle > 1e-6 {
				t.Errorf("trial %d: worker %d (not last) has idle %g\nschedule: %v",
					trial, wt.Worker, wt.Idle, s)
			}
		}
	}
}

func TestMakespanForLoad(t *testing.T) {
	p := platform.New(platform.Worker{C: 0.2, W: 0.5, D: 0.1})
	s, err := OptimalFIFO(p, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 1/0.8 → 1000 units take 800 time units.
	if got := MakespanForLoad(s, 1000); !approxEq(got, 800) {
		t.Errorf("makespan = %g, want 800", got)
	}
}

func TestExactThroughputString(t *testing.T) {
	p := platform.New(platform.Worker{C: 0.25, W: 0.5, D: 0.25})
	o := platform.Identity(1)
	f, s, err := eval.ExactObjective(eval.Scenario{Platform: p, Send: o, Return: o, Model: schedule.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 1/(0.25+0.5+0.25) = 1 exactly.
	if f != 1 || s != "1" {
		t.Errorf("ExactObjective = (%g, %q), want (1, \"1\")", f, s)
	}
	if _, _, err := eval.ExactObjective(eval.Scenario{Platform: p, Send: platform.Order{}, Return: platform.Order{}, Model: schedule.OnePort}); err == nil {
		t.Error("invalid order must be rejected")
	}
}

func TestSolveScenarioPrunesZeroLoads(t *testing.T) {
	// A worker with absurd communication cost gets zero load and must be
	// pruned from the orders.
	p := platform.New(
		platform.Worker{C: 0.05, W: 0.1, D: 0.025},
		platform.Worker{C: 1e6, W: 0.1, D: 5e5},
	)
	order := p.ByC()
	s, err := SolveScenario(context.Background(), p, order, order, schedule.OnePort, eval.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Participants()) != 1 || s.Participants()[0] != 0 {
		t.Errorf("participants = %v, want [0]", s.Participants())
	}
	for _, i := range s.SendOrder {
		if s.Alpha[i] == 0 {
			t.Error("zero-load worker left in send order")
		}
	}
}

func TestLPStatusStringsCovered(t *testing.T) {
	// Exercise lp statuses through core so the mapping stays stable.
	if lp.Optimal.String() != "optimal" {
		t.Error("unexpected lp status name")
	}
}

func TestErrNoCommonZMessage(t *testing.T) {
	if !strings.Contains(ErrNoCommonZ.Error(), "Theorem 1") {
		t.Error("ErrNoCommonZ should point the user at alternatives")
	}
}

func BenchmarkOptimalFIFO11Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	p := randomStar(rng, 11, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalFIFO(p, eval.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalFIFOExact11Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	p := randomStar(rng, 11, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalFIFO(p, eval.ExactRational); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalLIFO11Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	p := randomStar(rng, 11, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveScenario(context.Background(), p, p.ByC(), p.ByC().Reverse(), schedule.OnePort, eval.Auto); err != nil {
			b.Fatal(err)
		}
	}
}
