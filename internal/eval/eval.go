// Package eval is the scenario-evaluation pipeline: every fixed
// communication scenario of the paper (Section 2.3 of RR-5738 — workers
// enrolled in a send order σ1 and a return order σ2, loads chosen to
// maximise throughput) is evaluated by this package and nowhere else.
//
// # Backends
//
// [Evaluate] and [Session.Evaluate] answer under [Auto] through two
// certified tiers, or pin one LP solver with the other [Mode] values:
//
//   - chain tiers — O(p) load and dual recurrences for FIFO (σ2 = σ1) and
//     LIFO (σ2 = reverse σ1) scenarios, run as an active-set descent over
//     enrolled subsequences. These are the all-constraints-tight chains
//     underlying Theorems 1 and 2: subtracting consecutive per-worker
//     constraints collapses the p×p system to a two-term recurrence, and
//     one-port FIFO port-bound vertices close in O(p) as well.
//   - pivot — a dense primal simplex from α = 0 whose final basis is
//     re-solved by LU and certified (pivot.go), for general (σ1, σ2)
//     pairs and every FIFO or LIFO scenario the chains miss.
//   - simplex / exact — the full Section 2.3 linear program solved by the
//     float64 two-phase simplex or its exact rational twin. Under Auto
//     the float simplex answers only when a pivot certificate fails, and
//     every such fallback is counted ([SimplexFallbacks]).
//
// # Soundness
//
// The certified tiers are sound, not merely fast: a vertex — loads E
// solving its tight rows T — is accepted only together with a complete KKT
// certificate: primal feasibility (every load ≥ 0, every row outside T
// holds), dual feasibility of the multipliers λ = B⁻ᵀ·1 of the tight rows,
// and a non-negative dual surplus on every load outside E. By strong
// duality the certificate proves the vertex optimal for the LP. Every
// component is judged in the schedule's own time scale by one predicate,
// certOK.
//
// Every schedule returned by [Evaluate] (and [Session.Evaluate]) is
// verified post hoc by the independent feasibility checker of package
// schedule; the raw [Session.Throughput] fast path used inside the
// exhaustive searches skips that construction, and the search winner is
// re-evaluated through the verified path.
package eval

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Mode selects the evaluation backend (or the tiered composition).
type Mode int

// Evaluation modes. The zero value Auto is the default everywhere.
const (
	// Auto tiers the backends: chains → pivot, with the simplex as the
	// counted safety net.
	Auto Mode = iota
	// Simplex always solves the full linear program in float64.
	Simplex
	// ExactRational always solves the full linear program in exact
	// rational arithmetic (math/big.Rat).
	ExactRational
)

// modeNames maps modes to their canonical spellings (CLI flags, Request
// knobs).
var modeNames = map[Mode]string{
	Auto:          "auto",
	Simplex:       "simplex",
	ExactRational: "exact",
}

// String returns the canonical name of the mode.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Valid reports whether m is a defined mode.
func (m Mode) Valid() bool {
	_, ok := modeNames[m]
	return ok
}

// ParseMode parses a canonical mode name ("auto", "simplex", "exact").
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("eval: unknown mode %q (known: %s)", s, ModeNames())
}

// ModeNames returns the canonical mode names, in tier order.
func ModeNames() string {
	return "auto, simplex, exact"
}

// Scenario is one fixed-communication-scenario evaluation problem: the
// workers listed in Send are enrolled, initial messages go out back-to-back
// in Send order from t = 0, result messages come back back-to-back in
// Return order ending at t = 1, and the loads maximise the throughput
// ρ = Σα under the given communication model.
type Scenario struct {
	Platform *platform.Platform
	Send     platform.Order
	Return   platform.Order
	Model    schedule.Model
}

// Evaluate solves one scenario with the given mode using a pooled scratch
// session. It is safe for concurrent use.
func Evaluate(sc Scenario, mode Mode) (*schedule.Schedule, error) {
	s := GetSession()
	defer s.Release()
	return s.Evaluate(sc, mode)
}

// validate checks the scenario: a valid platform, Send a duplicate-free
// non-empty list of worker indices, Return a permutation of the same set.
func validate(sc Scenario) error {
	if sc.Platform == nil {
		return fmt.Errorf("eval: scenario has no platform")
	}
	if err := sc.Platform.Validate(); err != nil {
		return err
	}
	if sc.Model != schedule.OnePort && sc.Model != schedule.TwoPort {
		return fmt.Errorf("eval: unknown model %v", sc.Model)
	}
	return ValidOrderPair(sc.Platform.P(), sc.Send, sc.Return)
}

// ValidOrderPair checks that send is a duplicate-free non-empty list of
// worker indices in [0, n) and ret a permutation of the same set. It is
// the shared order validation of every scenario-shaped problem (the
// affine LP builder in internal/core reuses it).
func ValidOrderPair(n int, send, ret platform.Order) error {
	inSend := make(map[int]bool, len(send))
	for _, i := range send {
		if i < 0 || i >= n {
			return fmt.Errorf("eval: order references worker %d outside platform of %d workers", i, n)
		}
		if inSend[i] {
			return fmt.Errorf("eval: worker %d appears twice in send order", i)
		}
		inSend[i] = true
	}
	if len(send) == 0 {
		return fmt.Errorf("eval: empty send order")
	}
	if len(ret) != len(send) {
		return fmt.Errorf("eval: send order has %d workers, return order %d", len(send), len(ret))
	}
	seen := make(map[int]bool, len(ret))
	for _, i := range ret {
		if seen[i] {
			return fmt.Errorf("eval: worker %d appears twice in return order", i)
		}
		seen[i] = true
		if !inSend[i] {
			return fmt.Errorf("eval: worker %d in return order but not in send order", i)
		}
	}
	return nil
}

// scenarioKind classifies the (σ1, σ2) shape.
type scenarioKind int

const (
	kindGeneral scenarioKind = iota
	kindFIFO                 // σ2 == σ1
	kindLIFO                 // σ2 == reverse(σ1)
)

func kindOf(send, ret platform.Order) scenarioKind {
	n := len(send)
	fifo, lifo := true, true
	for k := 0; k < n && (fifo || lifo); k++ {
		if ret[k] != send[k] {
			fifo = false
		}
		if ret[k] != send[n-1-k] {
			lifo = false
		}
	}
	switch {
	case fifo:
		return kindFIFO
	case lifo:
		return kindLIFO
	default:
		return kindGeneral
	}
}

// ScenarioLP builds the Section 2.3 linear program for the scenario. The
// per-worker constraint of the enrolled worker at send position s and
// return position r reads
//
//	Σ_{send pos ≤ s} α_j·c_j  +  α_i·w_i  +  Σ_{ret pos ≥ r} α_j·d_j  ≤  1,
//
// the idle time x_i being the slack of the row; the port constraints are
// Σ α_j·(c_j + d_j) ≤ 1 under the one-port model, Σ α_j·c_j ≤ 1 and
// Σ α_j·d_j ≤ 1 under the two-port model; the objective maximises ρ = Σα.
//
// This is the only constructor of that program in the repository: the
// simplex and exact backends solve it, and callers that need the raw LP
// (exact identity tests, diagnostics) obtain it here.
func ScenarioLP(sc Scenario) (*lp.Problem, error) {
	if err := validate(sc); err != nil {
		return nil, err
	}
	return buildLP(sc, true), nil
}

// buildLP constructs the scenario LP. When named is false the variables
// and rows carry empty names, skipping the fmt.Sprintf cost on the hot
// fallback path (names are only used in diagnostics).
func buildLP(sc Scenario, named bool) *lp.Problem {
	p, send, ret := sc.Platform, sc.Send, sc.Return
	q := len(send)
	prob := lp.NewMaximize()
	// varOf[workerIndex] = LP variable of that worker's load.
	varOf := make(map[int]int, q)
	for _, i := range send {
		name := ""
		if named {
			name = fmt.Sprintf("alpha_%s", p.Workers[i].Name)
		}
		varOf[i] = prob.AddVar(name, 1)
	}
	retPos := make(map[int]int, q)
	for k, i := range ret {
		retPos[i] = k
	}
	// Per-worker constraints.
	for s, i := range send {
		coefs := make([]lp.Coef, 0, 2*q)
		for _, j := range send[:s+1] {
			coefs = append(coefs, lp.Coef{Var: varOf[j], Value: p.Workers[j].C})
		}
		coefs = append(coefs, lp.Coef{Var: varOf[i], Value: p.Workers[i].W})
		for _, j := range ret[retPos[i]:] {
			coefs = append(coefs, lp.Coef{Var: varOf[j], Value: p.Workers[j].D})
		}
		name := ""
		if named {
			name = fmt.Sprintf("worker_%s", p.Workers[i].Name)
		}
		prob.AddConstraint(name, coefs, lp.LE, 1)
	}
	// Port constraints.
	switch sc.Model {
	case schedule.OnePort:
		// C and D stay separate terms so the exact solver accumulates the
		// row without float64 rounding of c+d.
		coefs := make([]lp.Coef, 0, 2*q)
		for _, j := range send {
			coefs = append(coefs,
				lp.Coef{Var: varOf[j], Value: p.Workers[j].C},
				lp.Coef{Var: varOf[j], Value: p.Workers[j].D})
		}
		prob.AddConstraint("one_port", coefs, lp.LE, 1)
	case schedule.TwoPort:
		sendCoefs := make([]lp.Coef, 0, q)
		retCoefs := make([]lp.Coef, 0, q)
		for _, j := range send {
			sendCoefs = append(sendCoefs, lp.Coef{Var: varOf[j], Value: p.Workers[j].C})
			retCoefs = append(retCoefs, lp.Coef{Var: varOf[j], Value: p.Workers[j].D})
		}
		prob.AddConstraint("send_port", sendCoefs, lp.LE, 1)
		prob.AddConstraint("recv_port", retCoefs, lp.LE, 1)
	}
	return prob
}
