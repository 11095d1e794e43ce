// Package core implements the scheduling theory of RR-5738: fixed
// communication scenarios (Section 2.3), the optimal one-port FIFO
// schedule on a star (Theorem 1 and Proposition 1), the theorems' optimal
// FIFO and LIFO send orders, the closed-form optimal FIFO throughput on a
// bus (Theorem 2) with its constructive two-port→one-port transformation,
// and exhaustive searches used as optimality oracles on small platforms.
// The Section 5 heuristics (INC_C, INC_W, LIFO by c) are single scenarios:
// callers pick their orders and call SolveScenario.
//
// All scenario evaluation is delegated to the internal/eval pipeline: a
// tiered evaluator whose closed-form FIFO/LIFO chains and pivot solver
// answer with full optimality certificates, the float64 simplex being a
// counted safety net, or a pinned simplex (float64 or exact rational). Scenario solves and the
// *Eval searches take an eval.Mode selecting the backend; the *Context
// searches and OnePortPenalty take an Arith (the float64/exact switch).
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Arith selects the arithmetic used by the scenario evaluator.
type Arith int

// Arithmetic modes.
const (
	// Float64 evaluates scenarios with the tiered float64 pipeline
	// (closed-form chains / pivot solver / counted float64 simplex).
	Float64 Arith = iota
	// Exact evaluates them with the exact rational simplex.
	Exact
)

// String names the arithmetic mode.
func (a Arith) String() string {
	switch a {
	case Float64:
		return "float64"
	case Exact:
		return "exact"
	}
	return fmt.Sprintf("Arith(%d)", int(a))
}

// evalMode maps the historical Arith switch onto an eval.Mode: Float64
// defers to the tiered Auto pipeline, Exact forces the rational simplex.
func evalMode(arith Arith) (eval.Mode, error) {
	switch arith {
	case Float64:
		return eval.Auto, nil
	case Exact:
		return eval.ExactRational, nil
	default:
		return 0, fmt.Errorf("core: unknown arithmetic %v", arith)
	}
}

// ErrNoCommonZ is returned by OptimalFIFO when the platform has no common
// return/forward ratio z = d_i/c_i, in which case Theorem 1 does not apply.
var ErrNoCommonZ = errors.New("core: platform has no common ratio z = d/c; Theorem 1 does not apply (use the fifo-exhaustive or scenario strategy)")

// SolveScenario computes the optimal loads for a fixed scenario and returns
// the resulting schedule with horizon T = 1. Workers that receive zero load
// in the optimum are pruned from the schedule's orders, implementing the
// paper's resource selection (Proposition 1). The schedule is verified
// against the feasibility checker before being returned. When a trace
// rides ctx, the evaluation records an "eval-backend" stage naming the
// tier that produced the answer.
func SolveScenario(ctx context.Context, p *platform.Platform, send, ret platform.Order, model schedule.Model, mode eval.Mode) (*schedule.Schedule, error) {
	sc := eval.Scenario{Platform: p, Send: send, Return: ret, Model: model}
	if !obs.Enabled(ctx) {
		return eval.Evaluate(sc, mode)
	}
	sess := eval.GetSession()
	defer sess.Release()
	t0 := obs.Now(ctx)
	s, err := sess.Evaluate(sc, mode)
	recordEvalBackend(ctx, sess, mode, t0)
	return s, err
}
