package eval

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// portBoundBus returns a bus platform whose FIFO optimum saturates the
// one-port (fast computation, slow identical links): the degenerate
// regime the canonicalisation exists for.
func portBoundBus() *platform.Platform {
	ws := make([]platform.Worker, 5)
	for i := range ws {
		ws[i] = platform.Worker{C: 0.2, W: 0.05 + 0.01*float64(i), D: 0.3}
	}
	return platform.New(ws...)
}

// TestCanonicalLoadsByteIdentical: on a port-bound bus every float64
// backend must return the exact same optimal vertex — bit for bit — even
// though the optimal face contains many load vectors. The lex-min
// programs take no backend-derived inputs, which is what makes the
// results identical rather than merely close.
func TestCanonicalLoadsByteIdentical(t *testing.T) {
	p := portBoundBus()
	send := platform.Identity(p.P())
	sc := Scenario{Platform: p, Send: send, Return: send, Model: schedule.OnePort}
	var ref *schedule.Schedule
	for _, backend := range []struct {
		name string
		eval func() (*schedule.Schedule, error)
	}{
		{"auto", func() (*schedule.Schedule, error) { return Evaluate(sc, Auto) }},
		{"pivot", func() (*schedule.Schedule, error) { return evaluatePivot(t, sc), nil }},
		{"simplex", func() (*schedule.Schedule, error) { return Evaluate(sc, Simplex) }},
	} {
		s, err := backend.eval()
		if err != nil {
			t.Fatalf("%s: %v", backend.name, err)
		}
		// The optimum saturates the port: ρ = 1/(c+d) exactly.
		if want := 1 / (0.2 + 0.3); math.Abs(s.Throughput()-want) > 1e-9*want {
			t.Fatalf("%s: throughput %.12g != port bound %.12g", backend.name, s.Throughput(), want)
		}
		if ref == nil {
			ref = s
			continue
		}
		for i := range s.Alpha {
			if s.Alpha[i] != ref.Alpha[i] {
				t.Errorf("%s: load of worker %d = %.17g differs from auto's %.17g",
					backend.name, i, s.Alpha[i], ref.Alpha[i])
			}
		}
	}
	// The canonical vertex is the lexicographically smallest: no feasible
	// optimal point can carry less load on the first send position.
	sess := NewSession()
	alpha, _, err := sess.loads(sc, Simplex)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]float64(nil), alpha...)
	canon := sess.canonicalLoads(sc, raw)
	for k := range canon {
		if canon[k] > raw[k]+1e-9 {
			break // lex-min may raise later positions to compensate earlier cuts
		}
		if k == 0 && canon[0] > raw[0]+1e-9 {
			t.Errorf("canonical first load %.12g exceeds the raw vertex's %.12g", canon[0], raw[0])
		}
	}
}

// TestCanonicalLeavesUniqueOptimaAlone: on a compute-bound bus the tight
// chain optimum is unique (port slack), so canonicalisation must be a
// no-op and the closed-form loads survive untouched.
func TestCanonicalLeavesUniqueOptimaAlone(t *testing.T) {
	ws := make([]platform.Worker, 4)
	for i := range ws {
		ws[i] = platform.Worker{C: 0.01, W: 1 + 0.1*float64(i), D: 0.02}
	}
	p := platform.New(ws...)
	send := platform.Identity(p.P())
	sc := Scenario{Platform: p, Send: send, Return: send, Model: schedule.OnePort}
	sess := NewSession()
	alpha, _, err := sess.loads(sc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]float64(nil), alpha...)
	canon := sess.canonicalLoads(sc, raw)
	for k := range raw {
		if canon[k] != raw[k] {
			t.Fatalf("canonicalisation modified a unique optimum at position %d: %.17g != %.17g", k, canon[k], raw[k])
		}
	}
}

// TestCanonicalHeterogeneousLinksUntouched: the detection requires
// identical links; a heterogeneous platform must never be canonicalised
// even when its port row happens to be tight.
func TestCanonicalHeterogeneousLinksUntouched(t *testing.T) {
	p := platform.New(
		platform.Worker{C: 0.2, W: 0.05, D: 0.3},
		platform.Worker{C: 0.15, W: 0.06, D: 0.25},
		platform.Worker{C: 0.25, W: 0.07, D: 0.35},
	)
	send := platform.Identity(p.P())
	sc := Scenario{Platform: p, Send: send, Return: send, Model: schedule.OnePort}
	sess := NewSession()
	alpha, _, err := sess.loads(sc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]float64(nil), alpha...)
	canon := sess.canonicalLoads(sc, raw)
	for k := range raw {
		if canon[k] != raw[k] {
			t.Fatalf("heterogeneous platform canonicalised at position %d", k)
		}
	}
}
