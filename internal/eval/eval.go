// Package eval is the scenario-evaluation pipeline: every fixed
// communication scenario of the paper (Section 2.3 of RR-5738 — workers
// enrolled in a send order σ1 and a return order σ2, loads chosen to
// maximise throughput) is evaluated by this package and nowhere else.
//
// # Backends
//
// [Evaluate] and [Session.Evaluate] run three backends, tiered under [Auto]
// or pinned one at a time by the other [Mode] values:
//
//   - closed form — O(p) load recurrences for FIFO (σ2 = σ1) and LIFO
//     (σ2 = reverse σ1) scenarios. These are the all-constraints-tight
//     chains underlying Theorems 1 and 2: subtracting consecutive
//     per-worker constraints collapses the p×p system to a two-term
//     recurrence. On bus platforms the FIFO case additionally covers the
//     port-bound regime via the constructive proof of Theorem 2.
//   - direct — Gaussian elimination (LU with partial pivoting) on the p×p
//     all-constraints-tight linear system of a general (σ1, σ2) scenario,
//     in the spirit of the tight-constraint derivations of Gallet, Robert
//     & Vivien for linear processor networks.
//   - simplex — the full Section 2.3 linear program solved by the float64
//     two-phase simplex (or its exact rational twin), the always-correct
//     general fallback.
//
// # Soundness
//
// The tight-system backends are sound, not merely fast: a tight candidate
// α = A⁻¹·1 is accepted only together with a complete KKT certificate —
// primal feasibility (α ≥ 0 and the port constraint(s) hold) plus a dual
// solution λ = A⁻ᵀ·1 with λ ≥ 0. All per-worker rows being tight and the
// port multiplier being zero on a slack port row, complementary slackness
// holds by construction, so by strong duality the certificate proves the
// tight point optimal for the LP. Any scenario whose certificate fails
// (negative load, port overrun, negative multiplier, ill-conditioned
// system) silently falls back to the simplex, which handles resource
// selection and port-bound optima exactly as before.
//
// Every schedule returned by [Evaluate] (and [Session.Evaluate]) is
// verified post hoc by the independent feasibility checker of package
// schedule; the raw [Session.Throughput] fast path used inside the
// exhaustive searches skips that construction, and the search winner is
// re-evaluated through the verified path.
package eval

import (
	"errors"
	"fmt"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Mode selects the evaluation backend (or the tiered composition).
type Mode int

// Evaluation modes. The zero value Auto is the default everywhere: closed
// forms when the scenario shape admits them, the direct tight-system solver
// for general permutation pairs, the simplex as fallback.
const (
	// Auto tiers the backends: closed form → direct → simplex.
	Auto Mode = iota
	// ClosedForm uses only the closed-form backend and fails on scenarios
	// it cannot certify (general permutation pairs, port-bound non-bus
	// FIFO optima).
	ClosedForm
	// Direct uses the tight-system Gaussian elimination for every scenario
	// shape, falling back to the simplex when the certificate fails.
	Direct
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
	ClosedForm:    "closed-form",
	Direct:        "direct",
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

// ParseMode parses a canonical mode name ("auto", "closed-form", "direct",
// "simplex", "exact").
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
	return "auto, closed-form, direct, simplex, exact"
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

// Errors reported by the strict backends. Auto and Direct never surface
// these — they fall back to the simplex instead.
var (
	// ErrNotApplicable is returned by the ClosedForm mode when the scenario
	// has no closed form (a general permutation pair).
	ErrNotApplicable = errors.New("eval: no closed form for this scenario shape")
	// ErrNotTight is returned by the ClosedForm mode when the
	// all-constraints-tight candidate exists but fails its optimality
	// certificate (resource selection or a binding port constraint).
	ErrNotTight = errors.New("eval: tight closed-form candidate is not the LP optimum")
)

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
