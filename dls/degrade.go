package dls

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// degradeFallbacks maps each exhaustive search strategy to the
// closed-form heuristics a degraded solve may answer with. The
// candidates are the paper's O(p)-solvable orders: INC_C (optimal FIFO
// for z <= 1 by Theorem 1), INC_W, DEC_C (the optimal FIFO send order
// for z > 1) and the optimal LIFO schedule. Order matters only for
// deterministic tie-breaking; the best throughput wins.
var degradeFallbacks = map[string][]string{
	StrategyFIFOExhaustive: {StrategyIncC, StrategyIncW, StrategyDecC},
	StrategyLIFOExhaustive: {StrategyLIFO},
	StrategyPairExhaustive: {StrategyIncC, StrategyIncW, StrategyDecC, StrategyLIFO},
}

// costKey indexes solve-cost EWMAs: exhaustive-search cost is a function
// of the strategy and the worker count (the order space is p!), not of
// the particular platform costs.
type costKey struct {
	strategy string
	p        int
}

// costAlpha is the EWMA smoothing factor for observed solve costs — the
// same weighting the adaptive admission controller uses for its
// group-cost estimates, applied here at solver level.
const costAlpha = 0.3

// costTracker maintains per-(strategy, p) EWMAs of observed solve wall
// time. Cells are float64 bit patterns in atomics, so observation is
// lock-free on the solve hot path.
type costTracker struct {
	m sync.Map // costKey -> *atomic.Uint64 (float64 seconds bits)
}

// observe folds one measured solve duration into the EWMA.
func (t *costTracker) observe(strategy string, p int, d time.Duration) {
	if d <= 0 {
		return
	}
	v, _ := t.m.LoadOrStore(costKey{strategy, p}, new(atomic.Uint64))
	cell := v.(*atomic.Uint64)
	for {
		old := cell.Load()
		next := d.Seconds()
		if old != 0 {
			next = costAlpha*next + (1-costAlpha)*math.Float64frombits(old)
		}
		if cell.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estimate returns the current EWMA, or 0 when no solve of this shape
// has been observed yet (cold estimates never trigger degradation).
func (t *costTracker) estimate(strategy string, p int) time.Duration {
	v, ok := t.m.Load(costKey{strategy, p})
	if !ok {
		return 0
	}
	bits := v.(*atomic.Uint64).Load()
	if bits == 0 {
		return 0
	}
	return time.Duration(math.Float64frombits(bits) * float64(time.Second))
}

// WithDegradation enables graceful degradation: when a request names an
// exhaustive search strategy, carries a context deadline, and the
// solver's solve-cost EWMA for that (strategy, worker count) predicts
// the search would bust the deadline, the solver answers with the best
// closed-form heuristic instead of timing out. The result carries
// Degraded = true and DegradedTo = the heuristic actually used, and is
// never cached (the cache must only hold true optima). Estimates are
// measured on the system clock, matching context deadlines.
func WithDegradation() Option {
	return func(s *Solver) error {
		s.degrade = true
		return nil
	}
}

// SolveCostEstimate exposes the solver's per-(strategy, worker count)
// solve-cost EWMA: 0 until a solve of that shape completes. Tests and
// operators use it to see what the degradation policy would predict.
func (s *Solver) SolveCostEstimate(strategy string, p int) time.Duration {
	return s.costs.estimate(strategy, p)
}

// maybeDegrade decides whether to answer req with a closed-form
// heuristic instead of running its exhaustive search. It reports
// (result, true) when degradation applied. ctx already carries the
// effective deadline (solver timeout and/or caller deadline).
func (s *Solver) maybeDegrade(ctx context.Context, req Request) (*Result, bool) {
	if !s.degrade {
		return nil, false
	}
	fallbacks, ok := degradeFallbacks[req.Strategy]
	if !ok {
		return nil, false
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil, false
	}
	est := s.costs.estimate(req.Strategy, req.Platform.P())
	if est <= 0 || time.Until(deadline) >= est {
		return nil, false
	}
	// A theorem answer is exact and takes microseconds: it never degrades.
	if _, ok := theoremOrder(req); ok {
		return nil, false
	}
	var (
		best     *Result
		bestName string
		bestThr  float64
	)
	for _, name := range fallbacks {
		fb := req
		fb.Strategy = name
		fb.Send, fb.Return = nil, nil
		fbReq, fn, err := s.prepare(fb)
		if err != nil {
			continue
		}
		res, err := fn(ctx, fbReq)
		if err != nil || res == nil || res.Schedule == nil {
			continue
		}
		if thr := res.Schedule.Throughput(); best == nil || thr > bestThr {
			best, bestName, bestThr = res, name, thr
		}
	}
	if best == nil {
		// Every heuristic failed (e.g. no common z): fall through to the
		// search and let it race the deadline.
		return nil, false
	}
	s.countSolve(req.Strategy)
	s.degraded.Add(1)
	s.degradedBy.Add(bestName, 1)
	best.Degraded = true
	best.DegradedTo = bestName
	return best, true
}
