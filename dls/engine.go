package dls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Request names one scheduling problem: a platform, a strategy from the
// registry, a communication model and the LP arithmetic. Strategies that
// work on fixed orders additionally read Send (and Return); the affine
// strategies read Affine. The zero values of Model and Arith select the
// one-port model and the solver's default arithmetic.
type Request struct {
	// Platform is the star platform to schedule. Required.
	Platform *Platform
	// Strategy names a registered strategy (see Strategies). Required.
	Strategy string
	// Model selects the communication model. Zero value: OnePort.
	Model Model
	// Arith selects the LP arithmetic. The zero value (Float64) defers to
	// the solver default configured with WithArith. Arith == Exact forces
	// the exact-rational evaluation backend regardless of Eval.
	Arith Arith
	// Eval selects the scenario-evaluation backend: EvalAuto (the zero
	// value and the default everywhere) tiers the closed-form FIFO/LIFO
	// chains and the certified pivot solver, with the simplex as a counted
	// safety net; EvalSimplex and EvalExact pin one LP solver. See
	// internal/eval for the backend semantics.
	Eval EvalMode
	// Send is the send order for the fixed-order strategies
	// (StrategyFIFOOrder, StrategyLIFOOrder, StrategyScenario,
	// StrategyScenarioAffine).
	Send Order
	// Return is the return order for StrategyScenario and
	// StrategyScenarioAffine.
	Return Order
	// Affine holds the per-worker fixed costs for the affine strategies.
	Affine *Affine
	// Load, when positive, asks for Result.Makespan = Load / throughput:
	// the time to process Load units under the computed schedule. Linear
	// model only — affine strategies leave Makespan at 0, because fixed
	// costs make their makespan non-linear in the load.
	Load float64
}

// Result is the outcome of one solve. Schedule is set by every linear-model
// strategy; the affine strategies set Affine instead (the canonical
// timeline of the linear model does not apply there).
type Result struct {
	// Strategy, Model, Arith and Eval echo the resolved request.
	Strategy string
	Model    Model
	Arith    Arith
	Eval     EvalMode
	// Schedule is the computed schedule (nil for affine strategies).
	Schedule *Schedule
	// Send and Return are the scenario orders the strategy settled on: the
	// winning full permutations for the exhaustive searches, the schedule's
	// pruned orders otherwise.
	Send   Order
	Return Order
	// Affine is the affine-model outcome (affine strategies only).
	Affine *AffineResult
	// Throughput is the optimal throughput ρ (load units per time unit).
	Throughput float64
	// Makespan is Load / Throughput when the request set Load and the
	// strategy produced a linear-model Schedule, else 0 (the linearity
	// argument does not hold under affine costs).
	Makespan float64
	// Cached reports that this result was served from the solver cache (or
	// deduplicated against an identical request in the same batch) rather
	// than recomputed.
	Cached bool
	// order records which path answered an order search (see
	// orderSearch): the engine counts the two apart and keeps theorem
	// answers out of the solve-cost estimate. It sits beside Cached, in
	// the padding before DegradedTo, so it does not grow the struct.
	order orderPath
	// Degraded reports that the solver answered with a closed-form
	// heuristic instead of running the requested exhaustive search,
	// because the solve-cost estimate predicted the search would bust the
	// deadline (WithDegradation). DegradedTo names the strategy actually
	// used; Strategy still echoes the request.
	Degraded   bool
	DegradedTo string
}

// clone returns a deep copy so cached results stay immutable. The cache
// clones every linear result it stores and serves, so that copy is packed
// into three allocations: one block holding both the Result and its
// Schedule (they live and die together), one backing array for the four
// orders (each capped at its length, so an append cannot spill into its
// neighbour) and the loads.
func (r *Result) clone() *Result {
	var c *Result
	if s := r.Schedule; s != nil {
		blk := &struct {
			res   Result
			sched Schedule
		}{*r, *s}
		ints := make(Order, len(s.SendOrder)+len(s.ReturnOrder)+len(r.Send)+len(r.Return))
		blk.sched.SendOrder, ints = carve(ints, s.SendOrder)
		blk.sched.ReturnOrder, ints = carve(ints, s.ReturnOrder)
		blk.res.Send, ints = carve(ints, r.Send)
		blk.res.Return, _ = carve(ints, r.Return)
		blk.sched.Alpha = append([]float64(nil), s.Alpha...)
		blk.res.Schedule = &blk.sched
		c = &blk.res
	} else {
		cp := *r
		cp.Send = r.Send.Clone()
		cp.Return = r.Return.Clone()
		c = &cp
	}
	if r.Affine != nil {
		a := *r.Affine
		a.Send = r.Affine.Send.Clone()
		a.Return = r.Affine.Return.Clone()
		a.Alpha = append([]float64(nil), r.Affine.Alpha...)
		c.Affine = &a
	}
	return c
}

// carve copies o to the front of buf and returns the copy, capped at its
// length, and the rest of buf.
func carve(buf, o Order) (Order, Order) {
	n := copy(buf, o)
	return buf[:n:n], buf[n:]
}

// Stats are cumulative counters of one Solver's activity. The snapshot is
// taken from atomic counters, so it is safe to call concurrently with
// solves; the fields are mutually consistent only up to in-flight requests.
type Stats struct {
	// Hits and Misses count cache lookups (always zero without WithCache);
	// Evictions counts entries dropped by the LRU when the cache is full.
	Hits, Misses, Evictions uint64
	// Solves counts strategy executions — the expensive LP work. A request
	// answered by the cache or by batch deduplication does not solve.
	Solves uint64
	// SolvesByStrategy splits Solves by strategy name.
	SolvesByStrategy map[string]uint64
	// PrepassGroups counts deduplicated problems answered by the SoA chain
	// prepass instead of a per-request solve; PrepassRequests counts the
	// requests those groups answered (duplicates included). These are the
	// batch-collapse counters: PrepassRequests - PrepassGroups requests
	// never touched a solver goroutine of their own.
	PrepassGroups, PrepassRequests uint64
	// Windows counts admission windows flushed by batchers of this solver
	// (micro-batching and SolveStream); BatchedWindows counts the windows
	// that collapsed at least two requests into one SolveBatch, and
	// BatchedRequests the requests that travelled in them.
	Windows, BatchedWindows, BatchedRequests uint64
	// Flushes splits Windows by what flushed each window.
	Flushes WindowFlushes
	// Shed counts submissions rejected by a batcher because its admission
	// queue was full (load shedding), including the SLO sheds below.
	Shed uint64
	// ShedSLO counts the subset of Shed dropped by the adaptive policy's
	// deadline-aware check: requests that provably could not meet their
	// SLO deadline (ErrSLOUnmeetable).
	ShedSLO uint64
	// ShedByClass and ViolationsByClass split load shedding and deadline
	// violations (requests answered after their SLO deadline) by SLO
	// class name ("" is the best-effort class).
	ShedByClass, ViolationsByClass map[string]uint64
	// Degraded counts solves answered by a closed-form heuristic in place
	// of the requested exhaustive search (WithDegradation);
	// DegradedByStrategy splits them by the heuristic actually used.
	Degraded           uint64
	DegradedByStrategy map[string]uint64
	// OrderSearch splits the fifo-exhaustive and lifo-exhaustive solves
	// by how they were answered.
	OrderSearch OrderSearchStats
	// PairSearch is the cumulative pair-search instrumentation (process
	// global: every pair search in the process advances it, whichever
	// Solver ran it).
	PairSearch PairSearchStats
	// AffineSearch is the cumulative affine subset-search instrumentation
	// (process global, like PairSearch).
	AffineSearch AffineSearchStats
	// EvalSimplexFallbacks counts the EvalAuto scenario evaluations that no
	// certified tier answered, so the float simplex did (process global:
	// every evaluation in the process advances it).
	EvalSimplexFallbacks uint64
	// SearchHelpers counts the helper workers of the pair and affine
	// searches against the process-wide search worker budget (process
	// global, like PairSearch).
	SearchHelpers SearchHelperStats
}

// WindowFlushes counts flushed admission windows by reason.
type WindowFlushes struct {
	// Idle windows flushed at once: a drain worker was free and no other
	// request was queued behind them.
	Idle uint64
	// Size windows reached their size threshold.
	Size uint64
	// Timer windows waited out their delay because every drain worker
	// was busy.
	Timer uint64
	// Close windows were drained by Batcher.Close.
	Close uint64
}

// OrderSearchStats counts FIFO and LIFO order searches by the path that
// answered them.
type OrderSearchStats struct {
	// Theorem searches took the order the paper's theorems prove optimal:
	// one sort and one scenario solve.
	Theorem uint64
	// Sweep searches evaluated all p! send orders.
	Sweep uint64
}

// The search counters, re-exported from internal/core. They are
// process-global atomics shared by all solvers; dlsd re-exports them on
// /metrics as dlsd_pair_search_*, dlsd_affine_search_* and
// dlsd_search_helpers_total{outcome}.
type (
	// PairSearchStats counts the exhaustive pair search's branch-and-bound
	// activity.
	PairSearchStats = core.PairStats
	// AffineSearchStats counts the affine subset search's lattice
	// branch-and-bound activity.
	AffineSearchStats = core.AffineStats
	// SearchHelperStats counts the helper workers of the work-stealing
	// searches (pair-exhaustive, fifo-affine) against the process-wide
	// budget of GOMAXPROCS running search workers.
	SearchHelperStats = core.SearchHelperStats
)

// Solver is the scheduling engine: it resolves requests against the
// strategy registry, optionally memoizes results in an LRU cache, bounds
// solve time, and fans batches out over a worker pool. A Solver is safe for
// concurrent use; the zero-argument NewSolver() yields a cache-less solver
// with parallelism GOMAXPROCS.
type Solver struct {
	arith        Arith
	timeout      time.Duration
	parallelism  int
	searchPar    int
	streamWindow time.Duration
	cache        *resultCache
	degrade      bool
	costs        costTracker

	hits, misses, solves atomic.Uint64
	solvesBy             stats.CounterMap[string]
	degraded             atomic.Uint64
	degradedBy           stats.CounterMap[string]
	orderTheorem         atomic.Uint64
	orderSweep           atomic.Uint64

	prepassGroups, prepassRequests           atomic.Uint64
	windows, batchedWindows, batchedRequests atomic.Uint64
	flushes                                  [numFlushReasons]atomic.Uint64
	shed, shedSLO                            atomic.Uint64
	shedByClass, violationsByClass           stats.CounterMap[string]
}

// countSolve records one strategy execution, both globally and per
// strategy.
func (s *Solver) countSolve(strategy string) {
	s.solves.Add(1)
	s.solvesBy.Add(strategy, 1)
}

// Option configures a Solver; options report invalid settings as errors
// from NewSolver.
type Option func(*Solver) error

// WithArith sets the default LP arithmetic applied to requests that leave
// Arith at its zero value.
func WithArith(a Arith) Option {
	return func(s *Solver) error {
		if a != Float64 && a != Exact {
			return fmt.Errorf("dls: WithArith: unknown arithmetic %d", int(a))
		}
		s.arith = a
		return nil
	}
}

// WithTimeout bounds every Solve call (including each request of a batch):
// the strategy's context is cancelled after d, which aborts the exponential
// exhaustive searches mid-enumeration.
func WithTimeout(d time.Duration) Option {
	return func(s *Solver) error {
		if d <= 0 {
			return fmt.Errorf("dls: WithTimeout: duration must be positive, got %v", d)
		}
		s.timeout = d
		return nil
	}
}

// WithCache enables an LRU result cache of the given capacity, keyed by
// (platform fingerprint, strategy, model, arithmetic, orders, affine
// costs). A capacity of 0 disables caching (the default).
func WithCache(capacity int) Option {
	return func(s *Solver) error {
		if capacity < 0 {
			return fmt.Errorf("dls: WithCache: capacity must be >= 0, got %d", capacity)
		}
		if capacity == 0 {
			s.cache = nil
			return nil
		}
		s.cache = newResultCache(capacity)
		return nil
	}
}

// WithParallelism sets the worker-pool size used by SolveBatch and
// SolveStream. Output is deterministic regardless of the setting; it only
// changes how many requests are solved concurrently.
func WithParallelism(n int) Option {
	return func(s *Solver) error {
		if n <= 0 {
			return fmt.Errorf("dls: WithParallelism: parallelism must be >= 1, got %d", n)
		}
		s.parallelism = n
		return nil
	}
}

// WithSearchParallelism caps how many workers the exhaustive searches
// (fifo-exhaustive, lifo-exhaustive, pair-exhaustive, fifo-affine) use
// WITHIN one request: the search space is split across a worker pool
// (work stealing for the pair and affine branch-and-bounds, static SJT
// rank ranges for the order sweeps). n ≤ 0 — the default — caps at one
// worker per CPU; n == 1 forces the serial search. A search runs at most
// n workers, and all searches share a budget of GOMAXPROCS running
// workers: every search's first worker runs, but a pair or affine
// search's helpers start only on idle cores and retire when concurrent
// searches overdraw the budget (Stats.SearchHelpers), so a lone search on
// an idle process runs min(n, GOMAXPROCS) workers. The order sweeps keep their
// fixed split of min(n, p!) workers. The search result is byte-identical
// for every setting and load: worker count changes wall-clock time and
// nothing else. This is independent of WithParallelism, which fans out
// ACROSS requests.
func WithSearchParallelism(n int) Option {
	return func(s *Solver) error {
		if n <= 0 {
			n = 0
		}
		s.searchPar = n
		return nil
	}
}

// DefaultStreamWindow is the admission window SolveStream batches under
// when WithStreamWindow is not given: long enough for bursts to coalesce
// into one SolveBatch (and its SoA chain prepass), short enough to be
// invisible next to any LP solve.
const DefaultStreamWindow = 2 * time.Millisecond

// WithStreamWindow sets the admission window of SolveStream's micro-
// batcher: requests that find its drain workers busy and arrive within d
// of each other are flushed as one SolveBatch, so chain-shaped streams
// hit the SoA prepass (a request that finds a worker idle never waits for
// d). d = 0 disables
// stream micro-batching (each request solves on its own, the historical
// behaviour); the default is DefaultStreamWindow.
func WithStreamWindow(d time.Duration) Option {
	return func(s *Solver) error {
		if d < 0 {
			return fmt.Errorf("dls: WithStreamWindow: duration must be >= 0, got %v", d)
		}
		s.streamWindow = d
		return nil
	}
}

// NewSolver builds a Solver from the given options.
func NewSolver(opts ...Option) (*Solver, error) {
	s := &Solver{
		arith:        Float64,
		parallelism:  runtime.GOMAXPROCS(0),
		streamWindow: DefaultStreamWindow,
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Stats returns a snapshot of the solver's counters.
func (s *Solver) Stats() Stats {
	st := Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Solves:          s.solves.Load(),
		PrepassGroups:   s.prepassGroups.Load(),
		PrepassRequests: s.prepassRequests.Load(),
		Windows:         s.windows.Load(),
		BatchedWindows:  s.batchedWindows.Load(),
		BatchedRequests: s.batchedRequests.Load(),
		Shed:            s.shed.Load(),
		ShedSLO:         s.shedSLO.Load(),
		Degraded:        s.degraded.Load(),
		OrderSearch: OrderSearchStats{
			Theorem: s.orderTheorem.Load(),
			Sweep:   s.orderSweep.Load(),
		},
	}
	st.Flushes = WindowFlushes{
		Idle:  s.flushes[flushIdle].Load(),
		Size:  s.flushes[flushSize].Load(),
		Timer: s.flushes[flushTimer].Load(),
		Close: s.flushes[flushClose].Load(),
	}
	if s.cache != nil {
		st.Evictions = s.cache.evictions.Load()
	}
	st.SolvesByStrategy = s.solvesBy.Snapshot()
	st.DegradedByStrategy = s.degradedBy.Snapshot()
	st.ShedByClass = s.shedByClass.Snapshot()
	st.ViolationsByClass = s.violationsByClass.Snapshot()
	st.PairSearch = core.PairStatsSnapshot()
	st.AffineSearch = core.AffineStatsSnapshot()
	st.EvalSimplexFallbacks = eval.SimplexFallbacks()
	st.SearchHelpers = core.SearchHelperStatsSnapshot()
	return st
}

// prepare validates a request, applies the solver's arithmetic default and
// resolves the strategy.
func (s *Solver) prepare(req Request) (Request, StrategyFunc, error) {
	if req.Platform == nil {
		return req, nil, fmt.Errorf("dls: request has no platform")
	}
	if err := req.Platform.Validate(); err != nil {
		return req, nil, err
	}
	if req.Strategy == "" {
		return req, nil, fmt.Errorf("dls: request has no strategy (registered: %s)", strings.Join(Strategies(), ", "))
	}
	fn, ok := lookupStrategy(req.Strategy)
	if !ok {
		return req, nil, fmt.Errorf("dls: unknown strategy %q (registered: %s)", req.Strategy, strings.Join(Strategies(), ", "))
	}
	if req.Model != OnePort && req.Model != TwoPort {
		return req, nil, fmt.Errorf("dls: unknown model %d", int(req.Model))
	}
	if req.Arith == Float64 {
		req.Arith = s.arith
	} else if req.Arith != Exact {
		return req, nil, fmt.Errorf("dls: unknown arithmetic %d", int(req.Arith))
	}
	if !req.Eval.Valid() {
		return req, nil, fmt.Errorf("dls: unknown eval mode %d (known: %s)", int(req.Eval), eval.ModeNames())
	}
	// Normalise the two knobs: exact arithmetic and the exact backend are
	// the same request, whichever field expressed it.
	if req.Arith == Exact {
		req.Eval = EvalExact
	} else if req.Eval == EvalExact {
		req.Arith = Exact
	}
	if req.Load < 0 || math.IsNaN(req.Load) || math.IsInf(req.Load, 0) {
		return req, nil, fmt.Errorf("dls: request load %g must be finite and >= 0", req.Load)
	}
	return req, fn, nil
}

// cacheKey builds the memoization key of a prepared request. Load is
// excluded: Makespan is derived from the cached throughput per request.
// Every field is delimited ('|' between fields, brackets and commas
// around orders), so distinct requests get distinct keys up to the cost
// hashes.
func (req Request) cacheKey() string {
	var arr [128]byte // the key of a typical request fits on the stack
	b := req.Platform.AppendFingerprint(arr[:0])
	b = append(b, '|')
	b = append(b, req.Strategy...)
	for _, v := range [...]int{int(req.Model), int(req.Arith), int(req.Eval)} {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = appendOrder(append(b, '|'), req.Send)
	b = appendOrder(append(b, '|'), req.Return)
	if req.Affine != nil {
		b = append(b, "|aff-"...)
		b = strconv.AppendUint(b, platform.HashFloats(req.Affine.In, req.Affine.Out, req.Affine.Comp), 16)
	}
	return string(b)
}

// appendOrder appends an order as [i,j,...].
func appendOrder(b []byte, o Order) []byte {
	b = append(b, '[')
	for i, v := range o {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// finish stamps the derived fields of a result for one specific request.
func finish(res *Result, req Request, cached bool) *Result {
	res.Strategy = req.Strategy
	res.Model = req.Model
	res.Arith = req.Arith
	res.Eval = req.Eval
	res.Cached = cached
	switch {
	case res.Schedule != nil:
		res.Throughput = res.Schedule.Throughput()
	case res.Affine != nil:
		res.Throughput = res.Affine.Throughput
	}
	// Makespan comes from linearity (load/ρ), which only holds for the
	// linear cost model — never derive it for affine results.
	if req.Load > 0 && res.Schedule != nil && res.Throughput > 0 {
		res.Makespan = req.Load / res.Throughput
	} else {
		res.Makespan = 0
	}
	return res
}

// Solve runs one request through its strategy, consulting the cache first
// when one is configured. Strategy errors are returned unwrapped, so
// sentinel checks like errors.Is(err, ErrNoCommonZ) keep working; context
// cancellation and the WithTimeout deadline surface as ctx.Err().
func (s *Solver) Solve(ctx context.Context, req Request) (*Result, error) {
	req, fn, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	var key string
	if s.cache != nil {
		key = req.cacheKey()
	}
	return s.solvePrepared(ctx, req, fn, key)
}

// solvePrepared is Solve for a request prepare has already resolved to
// fn; key is its cache key, read only when the solver has a cache.
func (s *Solver) solvePrepared(ctx context.Context, req Request, fn StrategyFunc, key string) (*Result, error) {
	traced := obs.Enabled(ctx)
	if traced {
		obs.Annotate(ctx, obs.String("strategy", req.Strategy))
	}
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			s.hits.Add(1)
			if traced {
				obs.Annotate(ctx, obs.String("cache", "hit"))
			}
			return finish(res, req, true), nil
		}
		s.misses.Add(1)
		if traced {
			obs.Annotate(ctx, obs.String("cache", "miss"))
		}
	}
	res, err := s.run(ctx, req, fn)
	if err != nil {
		return nil, err
	}
	// Degraded answers are deadline-driven substitutes, not the
	// strategy's optimum: caching one would serve a heuristic to later
	// callers with generous deadlines.
	if s.cache != nil && !res.Degraded {
		s.cache.put(key, res)
	}
	return finish(res, req, false), nil
}

// run executes the strategy under the solver timeout, with the solver's
// search parallelism on the context for the exhaustive searches.
func (s *Solver) run(ctx context.Context, req Request, fn StrategyFunc) (*Result, error) {
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	ctx = core.ContextWithSearchParallelism(ctx, s.searchPar)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res, ok := s.maybeDegrade(ctx, req); ok {
		if obs.Enabled(ctx) {
			obs.Annotate(ctx,
				obs.String("degraded", "true"),
				obs.String("degraded_to", res.DegradedTo))
		}
		return res, nil
	}
	s.countSolve(req.Strategy)
	start := time.Now()
	t0 := obs.Now(ctx)
	res, err := fn(ctx, req)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("dls: strategy %q returned neither result nor error", req.Strategy)
	}
	switch res.order {
	case orderByTheorem:
		s.orderTheorem.Add(1)
	case orderBySweep:
		s.orderSweep.Add(1)
	}
	// A theorem answer takes microseconds: it stays out of the cost
	// EWMA, which estimates the sweep.
	if res.order != orderByTheorem {
		s.costs.observe(req.Strategy, req.Platform.P(), time.Since(start))
	}
	if obs.Enabled(ctx) {
		obs.StageAt(ctx, 1, "strategy", t0, obs.Now(ctx), obs.String("name", req.Strategy))
	}
	return res, nil
}

// SolveBatch solves many requests across the solver's worker pool and
// returns results aligned with reqs: results[i] answers reqs[i]. Identical
// requests (same cache key) are solved once and fanned out, with the
// duplicates marked Cached. The output is deterministic — byte-identical
// across parallelism settings — because every per-request computation is
// itself deterministic and ordering never leaks into results. Failed
// requests leave a nil slot; the returned error joins the per-request
// errors in request order.
func (s *Solver) SolveBatch(ctx context.Context, reqs []Request) ([]*Result, error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	s.solveBatchTraced(ctx, reqs, nil, func(i int, res *Result, err error) {
		results[i] = res
		if err != nil {
			errs[i] = fmt.Errorf("dls: batch request %d: %w", i, err)
		}
	})
	return results, errors.Join(errs...)
}

// solveBatchTraced is SolveBatch for callers — the micro-batcher — that
// answer each request to a different consumer: answer(i, res, err) is
// called exactly once per request, with the error unwrapped, as soon as
// that request is settled rather than when the whole batch is. Invalid
// requests are answered during deduplication, groups the chain prepass
// certifies right after the prepass, and pool-solved groups when their
// Solve returns — possibly concurrently from several pool workers, so
// answer must be safe for concurrent use on distinct indices. When traces
// is non-nil, traces[i] holds the obs traces following request i, and each
// deduplicated group's solve runs under the union of its members' traces —
// so a submission answered by a leader it never met still sees the stages
// of the solve that produced its result. With traces == nil, every group
// solves under ctx unchanged. Returns the number of deduplicated problems
// solved (the adaptive admission controller's unit of work).
func (s *Solver) solveBatchTraced(ctx context.Context, reqs []Request, traces [][]*obs.Trace, answer func(i int, res *Result, err error)) int {
	// Deduplicate by cache key: one solve per distinct problem.
	groups := make(map[string]*group, len(reqs))
	order := make([]*group, 0, len(reqs))
	prepared := make([]Request, len(reqs))
	for i, req := range reqs {
		p, fn, err := s.prepare(req)
		if err != nil {
			answer(i, nil, err)
			continue
		}
		prepared[i] = p
		key := p.cacheKey()
		g, ok := groups[key]
		if !ok {
			g = &group{leader: i, key: key, fn: fn}
			groups[key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
	}

	// groupCtx derives the context one group's solve runs under: the
	// window context plus the union of the group's member traces (dedup
	// fan-out is annotated so a collapsed request's trace says why its
	// solve stage was shared).
	groupCtx := func(g *group) context.Context {
		if traces == nil {
			return ctx
		}
		var ts []*obs.Trace
		for _, i := range g.indices {
			if i < len(traces) {
				ts = append(ts, traces[i]...)
			}
		}
		if len(ts) == 0 {
			return ctx
		}
		gctx := obs.ContextWithTraces(ctx, ts)
		if len(g.indices) > 1 {
			obs.Annotate(gctx, obs.Int("dedup_group", len(g.indices)))
		}
		return gctx
	}

	// answerGroup fans one group's outcome out to its members: the leader
	// gets the result itself, duplicates their own copy finished against
	// their own Load and marked as served without a solve.
	answerGroup := func(g *group, res *Result, err error) {
		for _, i := range g.indices {
			switch {
			case err != nil:
				answer(i, nil, err)
			case i == g.leader:
				answer(i, res, nil)
			default:
				answer(i, finish(res.clone(), prepared[i], true), nil)
			}
		}
	}

	// Chain prepass: chain-shaped leaders of the same size are evaluated
	// together by structure-of-arrays lockstep sweeps before the pool
	// starts, and answered straight away; everything it could not certify
	// flows through the normal per-request path below.
	handled := s.chainPrepass(ctx, prepared, order, groupCtx)
	for g, res := range handled {
		answerGroup(g, res, nil)
	}

	// Solve one leader per group on the pool (never more workers than
	// groups to solve).
	jobs := make(chan *group)
	var wg sync.WaitGroup
	workers := s.parallelism
	if workers > len(order)-len(handled) {
		workers = len(order) - len(handled)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				res, err := s.solvePrepared(groupCtx(g), prepared[g.leader], g.fn, g.key)
				answerGroup(g, res, err)
			}
		}()
	}
	for _, g := range order {
		if _, ok := handled[g]; ok {
			continue
		}
		jobs <- g
	}
	close(jobs)
	wg.Wait()
	return len(order)
}

// chainShape reports whether the scenario (send, ret) is one of the two
// shapes eval.Batch evaluates: FIFO (ret = send) or LIFO (ret = reverse
// send). Like the evaluator, it calls a one-worker scenario FIFO.
func chainShape(send, ret Order) (lifo, ok bool) {
	n := len(send)
	if n == 0 || len(ret) != n {
		return false, false
	}
	fifo, rev := true, true
	for k := range n {
		fifo = fifo && ret[k] == send[k]
		rev = rev && ret[k] == send[n-1-k]
	}
	return !fifo, fifo || rev
}

// chainPrepass collapses chain-shaped requests of the same scenario size
// into eval.Batch lockstep evaluations: the lanes' platform columns are
// laid out structure-of-arrays and the closed-form load and dual chains
// run across all lanes at each position step. A float64 EvalAuto request
// joins when its strategy has an order rule and the rule's scenario is a
// FIFO or LIFO chain. Certified lanes produce the bitwise answer of the
// strategy's own solve (same scenario, same tiers, same canonicalisation;
// TestSolveBatchChainPrepassMatchesSolve pins it) and fan out to their
// duplicate requests exactly like pool-solved groups; lanes whose chain
// certificate fails — port-bound or resource-selecting optima — are left
// for the normal path. Returns the certified groups with their leaders'
// results; the caller fans them out. A done context (cancelled, or a
// WithTimeout deadline that already expired) skips the prepass entirely so
// every request uniformly reports ctx.Err() from the pool path.
func (s *Solver) chainPrepass(ctx context.Context, prepared []Request, order []*group, groupCtx func(*group) context.Context) map[*group]*Result {
	if ctx.Err() != nil {
		return nil
	}
	type lane struct {
		g    *group
		send Order
		lifo bool
	}
	byKey := make(map[batchKey][]lane)
	for _, g := range order {
		req := prepared[g.leader]
		rule, ok := orderRules[req.Strategy]
		if !ok || req.Eval != EvalAuto || req.Arith != Float64 {
			continue
		}
		send, ret := rule(req)
		lifo, ok := chainShape(send, ret)
		if !ok {
			continue
		}
		if s.cache != nil && s.cache.has(g.key) {
			continue // the pool path serves (and counts) the cache hit
		}
		key := batchKey{q: len(send), lifo: lifo, model: req.Model}
		byKey[key] = append(byKey[key], lane{g: g, send: send, lifo: lifo})
	}
	handled := make(map[*group]*Result)
	for key, lanes := range byKey {
		if len(lanes) < 2 {
			continue // lockstep only pays with company; a lone lane solves normally
		}
		b, err := eval.NewBatch(key.model, key.lifo, key.q)
		if err != nil {
			continue
		}
		added := lanes[:0]
		for _, ln := range lanes {
			// Invalid orders fall through to the strategy, which reports
			// the real error.
			if b.Add(prepared[ln.g.leader].Platform, ln.send) == nil {
				added = append(added, ln)
			}
		}
		b.Run()
		for i, ln := range added {
			sched, err := b.Schedule(i)
			if err != nil {
				continue // uncertified: the pool path re-evaluates in full
			}
			req := prepared[ln.g.leader]
			res := finish(&Result{Schedule: sched, Send: sched.SendOrder, Return: sched.ReturnOrder}, req, false)
			if s.cache != nil {
				s.misses.Add(1)
				s.cache.put(ln.g.key, res)
			}
			s.countSolve(req.Strategy)
			s.prepassGroups.Add(1)
			s.prepassRequests.Add(uint64(len(ln.g.indices)))
			if gc := groupCtx(ln.g); obs.Enabled(gc) {
				obs.Annotate(gc,
					obs.String("strategy", req.Strategy),
					obs.String("prepass", "chain"))
			}
			handled[ln.g] = res
		}
	}
	return handled
}

// batchKey groups chain-prepass lanes that can share one eval.Batch.
type batchKey struct {
	q     int
	lifo  bool
	model Model
}

// group is one deduplicated SolveBatch problem: the first request index
// holding its cache key, the strategy prepare resolved for it, and every
// index it answers.
type group struct {
	leader  int
	key     string
	fn      StrategyFunc
	indices []int
}

// StreamResult is one element of a SolveStream: the result (or error) of
// the Index-th request read from the input channel.
type StreamResult struct {
	Index  int
	Result *Result
	Err    error
}

// SolveStream consumes requests from reqs as they arrive and emits results
// on the returned channel in input order (a reorder buffer holds finished
// results until their predecessors complete; admission is bounded, so one
// slow request at the head cannot make the buffer grow past a small
// multiple of the parallelism). Every request goes through an
// admission-window micro-batcher, the same admission path dlsd serves
// through: a request that finds a drain worker idle is solved at once,
// so sparse or sequential streams pay no batching latency, while
// arrivals within WithStreamWindow of each other that find the workers
// busy are flushed as one SolveBatch, so chain-shaped streams collapse
// into the SoA batch prepass instead of solo solves. At most
// WithParallelism requests are in flight at once. Results are identical
// either way — a prepass answer is bitwise the solo Solve's, pinned by
// TestSolveBatchChainPrepassMatchesSolve — and the output stays
// deterministic. The output channel closes after the last result once
// reqs is closed. The caller must drain the output channel; cancelling ctx
// makes remaining requests fail fast with ctx.Err().
func (s *Solver) SolveStream(ctx context.Context, reqs <-chan Request) <-chan StreamResult {
	out := make(chan StreamResult, s.parallelism)
	done := make(chan StreamResult, s.parallelism)
	// window bounds dispatched-but-not-yet-emitted requests, capping the
	// reorder buffer; slots caps requests between admission and result to
	// the solver parallelism, preserving the WithParallelism contract
	// (the batcher never sheds stream requests, it backpressures the
	// feeder through the slots).
	inFlight := 4 * s.parallelism
	window := make(chan struct{}, inFlight)
	slots := make(chan struct{}, s.parallelism)
	b := s.NewBatcher(BatcherConfig{
		MaxDelay: s.streamWindow,
		MaxSize:  s.parallelism,
		QueueCap: inFlight,
	})

	var wg sync.WaitGroup
	go func() {
		idx := 0
		for req := range reqs {
			window <- struct{}{}
			slots <- struct{}{}
			wg.Add(1)
			go func(i int, r Request) {
				defer wg.Done()
				res, err := b.Submit(ctx, r)
				<-slots
				done <- StreamResult{Index: i, Result: res, Err: err}
			}(idx, req)
			idx++
		}
		wg.Wait()
		b.Close()
		close(done)
	}()

	go func() {
		defer close(out)
		next := 0
		pending := make(map[int]StreamResult)
		for sr := range done {
			pending[sr.Index] = sr
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- v
				<-window
				next++
			}
		}
	}()
	return out
}

// The default solver backs the package-level Solve/SolveBatch helpers: no
// cache (every call recomputes), parallelism GOMAXPROCS.
var (
	defaultSolverOnce sync.Once
	defaultSolver     *Solver
)

// DefaultSolver returns the shared package-level solver.
func DefaultSolver() *Solver {
	defaultSolverOnce.Do(func() {
		defaultSolver, _ = NewSolver()
	})
	return defaultSolver
}

// Solve runs one request on the default solver.
func Solve(ctx context.Context, req Request) (*Result, error) {
	return DefaultSolver().Solve(ctx, req)
}

// SolveBatch solves a batch on the default solver.
func SolveBatch(ctx context.Context, reqs []Request) ([]*Result, error) {
	return DefaultSolver().SolveBatch(ctx, reqs)
}
