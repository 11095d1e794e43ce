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
//     pairs and every FIFO or LIFO scenario the chains miss. It also
//     takes other right-hand sides ([Session.ScenarioLoadsRHS]), which
//     is how internal/core solves the affine model's float64 programs.
//   - simplex / exact — the full Section 2.3 linear program solved by the
//     float64 two-phase simplex or its exact rational twin. Under Auto,
//     and behind ScenarioLoadsRHS, the float simplex answers only when a
//     pivot certificate fails, and every such fallback is counted
//     ([SimplexFallbacks]).
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
// BuildLP, behind it, is the only code in the repository that writes these
// rows as an LP: the simplex and exact backends solve this program, the
// lex-min canonicalisation re-aims its objective (canonical.go), and the
// affine model of internal/core lowers its right-hand sides by the fixed
// costs for its exact solves (its float64 solves take the same right-hand
// sides to the pivot tier, ScenarioLoadsRHS).
func ScenarioLP(sc Scenario) (*lp.Problem, error) {
	if err := validate(sc); err != nil {
		return nil, err
	}
	return BuildLP(sc, nil, true), nil
}

// BuildLP writes the scenario's program with the given right-hand sides:
// rhs[t] bounds the worker row at send position t, rhs[q] the one-port
// row (or the send port row, and rhs[q+1] the receive port row, under the
// two-port model), for q enrolled workers; nil means 1 on every row. The
// variable of the worker at send position t is t. When named is false the
// variables and rows carry empty names, skipping the fmt.Sprintf cost on
// hot paths (names are only used in diagnostics). The scenario is not
// validated (see ValidOrderPair).
func BuildLP(sc Scenario, rhs []float64, named bool) *lp.Problem {
	p, send, ret := sc.Platform, sc.Send, sc.Return
	q := len(send)
	bound := func(row int) float64 {
		if rhs == nil {
			return 1
		}
		return rhs[row]
	}
	prob := lp.NewMaximize()
	for _, i := range send {
		name := ""
		if named {
			name = fmt.Sprintf("alpha_%s", p.Workers[i].Name)
		}
		prob.AddVar(name, 1)
	}
	// retVar[r] is the variable of the worker returning r-th. Up to 32
	// workers it lives on the stack: the affine searches build thousands
	// of LPs per request and allocate nothing for it.
	var buf [32]int
	retVar := buf[:0]
	if q > len(buf) {
		retVar = make([]int, 0, q)
	}
	for _, j := range ret {
		t := 0
		for send[t] != j {
			t++
		}
		retVar = append(retVar, t)
	}
	// Per-worker constraints. AddConstraint copies the terms, so one
	// buffer serves every row.
	coefs := make([]lp.Coef, 0, 2*q+1)
	for s, i := range send {
		coefs = coefs[:0]
		for t, j := range send[:s+1] {
			coefs = append(coefs, lp.Coef{Var: t, Value: p.Workers[j].C})
		}
		coefs = append(coefs, lp.Coef{Var: s, Value: p.Workers[i].W})
		r := 0
		for retVar[r] != s {
			r++
		}
		for _, t := range retVar[r:] {
			coefs = append(coefs, lp.Coef{Var: t, Value: p.Workers[send[t]].D})
		}
		name := ""
		if named {
			name = fmt.Sprintf("worker_%s", p.Workers[i].Name)
		}
		prob.AddConstraint(name, coefs, lp.LE, bound(s))
	}
	// Port constraints.
	coefs = coefs[:0]
	switch sc.Model {
	case schedule.OnePort:
		// C and D stay separate terms so the exact solver accumulates the
		// row without float64 rounding of c+d.
		for t, j := range send {
			coefs = append(coefs,
				lp.Coef{Var: t, Value: p.Workers[j].C},
				lp.Coef{Var: t, Value: p.Workers[j].D})
		}
		prob.AddConstraint("one_port", coefs, lp.LE, bound(q))
	case schedule.TwoPort:
		for t, j := range send {
			coefs = append(coefs, lp.Coef{Var: t, Value: p.Workers[j].C})
		}
		prob.AddConstraint("send_port", coefs, lp.LE, bound(q))
		coefs = coefs[:0]
		for t, j := range send {
			coefs = append(coefs, lp.Coef{Var: t, Value: p.Workers[j].D})
		}
		prob.AddConstraint("recv_port", coefs, lp.LE, bound(q+1))
	}
	return prob
}
