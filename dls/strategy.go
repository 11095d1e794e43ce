package dls

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Names of the built-in strategies: the one way to ask the engine for each
// of the paper's schedules.
const (
	// StrategyFIFO is the optimal FIFO schedule: Theorem 1 + Proposition 1
	// under the one-port model (requires a common z = d/c), the companion
	// paper's optimal two-port FIFO under TwoPort.
	StrategyFIFO = "fifo"
	// StrategyLIFO is the LIFO schedule by non-decreasing c (one-port;
	// under TwoPort it coincides, every LIFO schedule being one-port
	// feasible). It is optimal among LIFO orders when the platform has a
	// common z = d/c; without one it is a heuristic, and
	// StrategyLIFOExhaustive finds the optimal LIFO order.
	StrategyLIFO = "lifo"
	// StrategyIncC is the INC_C heuristic: FIFO over all workers by
	// non-decreasing c (optimal for z ≤ 1 by Theorem 1).
	StrategyIncC = "inc-c"
	// StrategyIncW is the INC_W heuristic: FIFO by non-decreasing w.
	StrategyIncW = "inc-w"
	// StrategyDecC is FIFO by non-increasing c: Theorem 1's optimal FIFO
	// send order when z > 1.
	StrategyDecC = "dec-c"
	// StrategyFIFOOrder solves the FIFO schedule using Request.Send as the
	// send (and return) order.
	StrategyFIFOOrder = "fifo-order"
	// StrategyLIFOOrder solves the LIFO schedule whose send order is
	// Request.Send (results return in reverse).
	StrategyLIFOOrder = "lifo-order"
	// StrategyScenario solves an arbitrary (σ1, σ2) scenario given by
	// Request.Send and Request.Return (Section 2.3).
	StrategyScenario = "scenario"
	// StrategyBusFIFO constructs the optimal one-port FIFO schedule on a bus
	// platform via the constructive proof of Theorem 2.
	StrategyBusFIFO = "bus-fifo"
	// StrategyFIFOExhaustive answers with an optimal FIFO send order
	// (p ≤ 9). Under EvalAuto, a one-port request on a platform whose
	// d/c ratios are equal up to rounding takes Theorem 1's order, one
	// sort and one scenario solve, with equal-c workers in index order.
	// Every other request searches all p! send orders and returns the
	// lexicographically least winner.
	StrategyFIFOExhaustive = "fifo-exhaustive"
	// StrategyLIFOExhaustive answers with an optimal LIFO send order
	// (p ≤ 9). Under EvalAuto, a request on a platform whose d/c ratios
	// are equal up to rounding takes the companion result's order
	// (non-decreasing c, under either model), with equal-c workers in
	// index order. Every other request searches all p! send orders and
	// returns the lexicographically least winner.
	StrategyLIFOExhaustive = "lifo-exhaustive"
	// StrategyPairExhaustive searches all (σ1, σ2) permutation pairs
	// (p ≤ 8; p ≤ 5 under exact arithmetic) — the general problem whose
	// complexity the paper leaves open — with the return-order
	// branch-and-bound. Exact arithmetic runs the same search with
	// seeding and pruning off, since no float64 bound can certify an exact
	// comparison: every one of the (p!)² leaves is an exact LP solve.
	StrategyPairExhaustive = "pair-exhaustive"
	// StrategyFIFOAffine searches participant subsets (p ≤ 20) for the best
	// one-port FIFO schedule under the affine cost model of Request.Affine,
	// branch-and-bound over the subset lattice on float64 backends.
	StrategyFIFOAffine = "fifo-affine"
	// StrategyScenarioAffine solves a fixed (σ1, σ2) scenario under the
	// affine cost model of Request.Affine.
	StrategyScenarioAffine = "scenario-affine"
)

// StrategyFunc computes a Result for a prepared Request. The engine has
// already validated the platform, resolved the arithmetic default and
// applied the solver timeout to ctx; implementations of long-running
// strategies should poll ctx and abort with ctx.Err() when it is done.
// Implementations fill the Schedule / Send / Return / Affine fields; the
// engine stamps Strategy, Model, Arith, Throughput, Makespan and Cached.
type StrategyFunc func(ctx context.Context, req Request) (*Result, error)

var (
	strategyMu  sync.RWMutex
	strategyReg = make(map[string]StrategyFunc)
)

// RegisterStrategy adds a named strategy to the registry, making it
// addressable from Request.Strategy on every Solver. The name must be
// non-empty and not yet taken. Registration is safe for concurrent use.
func RegisterStrategy(name string, fn StrategyFunc) error {
	if name == "" {
		return fmt.Errorf("dls: RegisterStrategy: empty strategy name")
	}
	if fn == nil {
		return fmt.Errorf("dls: RegisterStrategy(%q): nil StrategyFunc", name)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[name]; dup {
		return fmt.Errorf("dls: RegisterStrategy(%q): already registered", name)
	}
	strategyReg[name] = fn
	return nil
}

// mustRegisterStrategy registers a built-in strategy and panics on
// collision (a program bug, not a runtime condition).
func mustRegisterStrategy(name string, fn StrategyFunc) {
	if err := RegisterStrategy(name, fn); err != nil {
		panic(err)
	}
}

// Strategies returns the names of all registered strategies, sorted.
func Strategies() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for n := range strategyReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookupStrategy resolves a registered strategy by name.
func lookupStrategy(name string) (StrategyFunc, bool) {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	fn, ok := strategyReg[name]
	return fn, ok
}

// scheduleResult wraps a computed schedule, carrying its (pruned) orders.
func scheduleResult(s *Schedule) *Result {
	return &Result{Schedule: s, Send: s.SendOrder, Return: s.ReturnOrder}
}

// orderRule derives, from a prepared request, the one (σ1, σ2) scenario of
// the Section 2.3 LP that a fixed-scenario strategy solves.
type orderRule func(req Request) (send, ret Order)

// orderRules holds the order rule of every fixed-scenario strategy. The
// strategy's solve and SolveBatch's chain prepass both read it, so the two
// cannot disagree on which scenario a request asks for.
var orderRules = map[string]orderRule{
	StrategyLIFO: func(req Request) (Order, Order) {
		o := req.Platform.ByC()
		return o, o.Reverse()
	},
	StrategyIncC:      fifoBy((*Platform).ByC),
	StrategyIncW:      fifoBy((*Platform).ByW),
	StrategyDecC:      fifoBy((*Platform).ByCDesc),
	StrategyFIFOOrder: func(req Request) (Order, Order) { return req.Send, req.Send },
	StrategyLIFOOrder: func(req Request) (Order, Order) { return req.Send, req.Send.Reverse() },
	StrategyScenario:  func(req Request) (Order, Order) { return req.Send, req.Return },
}

// fifoBy is the rule of a FIFO strategy whose order sorts the platform.
func fifoBy(order func(*Platform) Order) orderRule {
	return func(req Request) (Order, Order) {
		o := order(req.Platform)
		return o, o
	}
}

// solveScenario solves one (σ1, σ2) scenario of a prepared request.
func solveScenario(ctx context.Context, req Request, send, ret Order) (*Result, error) {
	s, err := core.SolveScenario(ctx, req.Platform, send, ret, req.Model, req.Eval)
	if err != nil {
		return nil, err
	}
	return scheduleResult(s), nil
}

func init() {
	for name, rule := range orderRules {
		mustRegisterStrategy(name, func(ctx context.Context, req Request) (*Result, error) {
			send, ret := rule(req)
			return solveScenario(ctx, req, send, ret)
		})
	}
	mustRegisterStrategy(StrategyFIFO, func(ctx context.Context, req Request) (*Result, error) {
		if req.Model == TwoPort {
			o := req.Platform.ByC()
			return solveScenario(ctx, req, o, o)
		}
		s, err := core.OptimalFIFO(req.Platform, req.Eval)
		if err != nil {
			return nil, err
		}
		return scheduleResult(s), nil
	})
	mustRegisterStrategy(StrategyBusFIFO, func(_ context.Context, req Request) (*Result, error) {
		if req.Model != OnePort {
			return nil, fmt.Errorf("dls: strategy %q: Theorem 2's constructive schedule is one-port only", StrategyBusFIFO)
		}
		s, err := core.BusFIFOSchedule(req.Platform)
		if err != nil {
			return nil, err
		}
		return scheduleResult(s), nil
	})
	mustRegisterStrategy(StrategyFIFOExhaustive, orderSearch(false))
	mustRegisterStrategy(StrategyLIFOExhaustive, orderSearch(true))
	mustRegisterStrategy(StrategyPairExhaustive, func(ctx context.Context, req Request) (*Result, error) {
		pr, err := core.BestPairExhaustiveEval(ctx, req.Platform, req.Model, req.Eval)
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: pr.Schedule, Send: pr.Send, Return: pr.Return}, nil
	})
	mustRegisterStrategy(StrategyFIFOAffine, func(ctx context.Context, req Request) (*Result, error) {
		if req.Affine == nil {
			return nil, fmt.Errorf("dls: strategy %q requires Request.Affine", StrategyFIFOAffine)
		}
		if req.Model != OnePort {
			return nil, fmt.Errorf("dls: strategy %q: subset search is one-port only", StrategyFIFOAffine)
		}
		ar, err := core.BestFIFOAffineContext(ctx, req.Platform, *req.Affine, req.Arith)
		if err != nil {
			return nil, err
		}
		return &Result{Affine: ar, Send: ar.Send, Return: ar.Return}, nil
	})
	mustRegisterStrategy(StrategyScenarioAffine, func(_ context.Context, req Request) (*Result, error) {
		if req.Affine == nil {
			return nil, fmt.Errorf("dls: strategy %q requires Request.Affine", StrategyScenarioAffine)
		}
		ar, err := core.SolveScenarioAffine(req.Platform, *req.Affine, req.Send, req.Return, req.Model, req.Arith)
		if err != nil {
			return nil, err
		}
		return &Result{Affine: ar, Send: ar.Send, Return: ar.Return}, nil
	})
}

// orderSearch is the FIFO (lifo false) or LIFO order search. It answers
// with an optimal send order. A request that theoremOrder covers is solved
// once in the theorem's order, whose ties go to the lower worker index,
// and records a "search" stage with backend=theorem. Every other request
// runs the sweep over all p! send orders and gets its lexicographically
// least winner.
func orderSearch(lifo bool) StrategyFunc {
	kind, search := "fifo-order", core.BestFIFOExhaustiveEval
	if lifo {
		kind, search = "lifo-order", core.BestLIFOExhaustiveEval
	}
	result := func(s *Schedule, send Order, path orderPath) *Result {
		res := &Result{Schedule: s, Send: send, Return: send, order: path}
		if lifo {
			res.Return = send.Reverse()
		}
		return res
	}
	return func(ctx context.Context, req Request) (*Result, error) {
		t0 := obs.Now(ctx)
		if order, ok := theoremOrder(req); ok {
			t1 := obs.Now(ctx)
			res := result(nil, order, orderByTheorem)
			s, err := core.SolveScenario(ctx, req.Platform, res.Send, res.Return, req.Model, req.Eval)
			if err != nil {
				return nil, err
			}
			if obs.Enabled(ctx) {
				obs.StageAt(ctx, 1, "search", t0, t1,
					obs.String("kind", kind),
					obs.Int64("orders", 1),
					obs.String("backend", "theorem"))
			}
			res.Schedule = s
			return res, nil
		}
		s, send, err := search(ctx, req.Platform, req.Model, req.Eval)
		if err != nil {
			return nil, err
		}
		return result(s, send, orderBySweep), nil
	}
}

// orderPath records which path answered an order search.
type orderPath uint8

const (
	notOrderSearch orderPath = iota // another strategy
	orderByTheorem                  // one solve in the theorem's order
	orderBySweep                    // the sweep over all p! send orders
)

// theoremOrder reports the order core.TheoremOrder proves optimal for a
// prepared fifo-exhaustive or lifo-exhaustive request under EvalAuto.
// Explicit backends, other strategies and requests the theorems do not
// cover report false.
func theoremOrder(req Request) (Order, bool) {
	lifo := req.Strategy == StrategyLIFOExhaustive
	if !lifo && req.Strategy != StrategyFIFOExhaustive || req.Eval != EvalAuto {
		return nil, false
	}
	return core.TheoremOrder(req.Platform, req.Model, lifo)
}
