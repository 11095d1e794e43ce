package eval

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Session holds the scratch buffers of one evaluation pipeline: the tight
// system matrix, pivot indices and load/dual vectors. Sessions make batch
// and exhaustive evaluation allocate O(1) per scenario; the pair search's
// return-order branch-and-bound (ReturnPrefix) keeps its own matrices and
// borrows a session only for its leaf evaluations. A Session is NOT safe
// for concurrent use; obtain one per goroutine via NewSession or the
// pool-backed GetSession/Release pair. Backend reports which tier
// answered the most recent evaluation.
type Session struct {
	alpha      []float64 // candidate loads, by enrolled position
	lam        []float64 // dual multipliers
	u, v       []float64 // FIFO dual chain decomposition / expanded loads
	a          []float64 // candidate system / LU factors (clobbered by solves)
	work       []float64 // chain-search loads expanded to send positions
	full       []float64 // q×q worker rows handed to the pivot tier
	piv        []int     // LU row swaps
	retPos     []int     // worker index → return position
	mask       []int     // send position → enrolled index (pivot certificate)
	enrolled   []int     // enrolled send positions (chain descent, pivot basis)
	sub        []int     // enrolled subsequence as worker indices (chain search)
	d0, dT, dM []float64 // (T, μ)-parameterised dual chain of a port vertex

	// Pivot tier scratch (pivot.go): the scaled tableau, its reduced
	// costs, the basic column of each row, the tight-row marks, the rows
	// of the certificate system nobody owns and the certified loads.
	tab, red     []float64
	basis        []int
	tight, spare []int
	x            []float64

	// lastBackend names the tier that actually produced the most recent
	// loadsResolved answer ("closed-form", "pivot", "simplex", "exact");
	// lastFallback reports that the answer came from the counted simplex
	// safety net rather than a requested or certified tier. The serving
	// layer's tracing reads both to attribute each request's eval-backend
	// stage.
	lastBackend  string
	lastFallback bool

	// costs caches per-worker derived constants (sums, differences and
	// reciprocals of the cost triple) for the platform costsOf, so the hot
	// chain kernels run division-free. Keyed by pointer identity: Platforms
	// are immutable by convention throughout the repository (every
	// transformation returns a fresh value).
	costs   []workerCosts
	costsOf *platform.Platform
}

// workerCosts are the per-worker constants of the chain recurrences.
type workerCosts struct {
	c, d, w              float64
	cw, wd, g, dc, cwd   float64 // c+w, w+d, c+d, d−c, c+w+d
	invCW, invWD, invCWD float64 // 1/(c+w), 1/(w+d), 1/(c+w+d)
}

// deriveCosts is the single definition of the chain recurrences' derived
// constants; every consumer (Session.derivedCosts, Batch.runChunk's
// gather, Sweep.gather) goes through it so the formulas cannot drift
// apart.
func deriveCosts(w platform.Worker) workerCosts {
	return workerCosts{
		c: w.C, d: w.D, w: w.W,
		cw: w.C + w.W, wd: w.W + w.D, g: w.C + w.D, dc: w.D - w.C, cwd: w.C + w.W + w.D,
		invCW: 1 / (w.C + w.W), invWD: 1 / (w.W + w.D), invCWD: 1 / (w.C + w.W + w.D),
	}
}

// derivedCosts returns the derived-constant table of p, rebuilding it only
// when the session last evaluated a different platform.
func (s *Session) derivedCosts(p *platform.Platform) []workerCosts {
	if s.costsOf == p && len(s.costs) == len(p.Workers) {
		return s.costs
	}
	if cap(s.costs) < len(p.Workers) {
		s.costs = make([]workerCosts, len(p.Workers))
	}
	s.costs = s.costs[:len(p.Workers)]
	for i, w := range p.Workers {
		s.costs[i] = deriveCosts(w)
	}
	s.costsOf = p
	return s.costs
}

// NewSession returns a fresh, unpooled session.
func NewSession() *Session { return &Session{} }

var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// GetSession returns a pooled session; pair it with Release.
func GetSession() *Session { return sessionPool.Get().(*Session) }

// Release returns the session to the pool. The session must not be used
// afterwards (nor any ReturnPrefix derived from it).
func (s *Session) Release() { sessionPool.Put(s) }

// grow returns *buf resized to n, reusing its capacity when possible.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growInt(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Evaluate solves the scenario with the given mode and returns the
// resulting schedule with horizon T = 1, zero-load workers pruned from the
// orders (resource selection, Proposition 1), verified against the
// independent feasibility checker. Degenerate optima (tight-port bus
// scenarios, where many load vectors tie) are canonicalised to the
// lexicographically smallest optimal loads, so every float64 backend
// returns the same vertex; the exact-rational mode reports its own vertex
// untouched.
func (s *Session) Evaluate(sc Scenario, mode Mode) (*schedule.Schedule, error) {
	alpha, _, err := s.loads(sc, mode)
	if err != nil {
		return nil, err
	}
	if mode == ExactRational {
		return buildSchedule(sc, alpha)
	}
	return s.canonicalSchedule(sc, alpha)
}

// Throughput is the raw fast path for search loops: it returns only the
// optimal throughput ρ of the scenario, skipping schedule construction and
// the feasibility checker. Searches re-evaluate their winner through
// Evaluate, which verifies it.
func (s *Session) Throughput(sc Scenario, mode Mode) (float64, error) {
	_, rho, err := s.loads(sc, mode)
	return rho, err
}

// ThroughputTrusted is Throughput minus the per-call scenario validation,
// for search loops that enumerate (σ1, σ2) programmatically over an
// already-validated platform. Validation allocates; skipping it keeps the
// per-scenario cost allocation-free on the tight path.
func (s *Session) ThroughputTrusted(sc Scenario, mode Mode) (float64, error) {
	_, rho, err := s.loadsResolved(sc, mode)
	return rho, err
}

// loads validates the scenario and dispatches it.
func (s *Session) loads(sc Scenario, mode Mode) ([]float64, float64, error) {
	if err := validate(sc); err != nil {
		return nil, 0, err
	}
	return s.loadsResolved(sc, mode)
}

// loadsResolved dispatches the scenario to the backend(s) selected by mode
// and returns the optimal loads by send position (session-owned; valid
// until the next call) together with their sum ρ.
func (s *Session) loadsResolved(sc Scenario, mode Mode) ([]float64, float64, error) {
	s.lastBackend, s.lastFallback = "", false
	switch mode {
	case Simplex:
		s.lastBackend = "simplex"
		return s.simplexLoads(sc, nil)
	case ExactRational:
		s.lastBackend = "exact"
		return s.exactLoads(sc)
	case Auto:
	default:
		return nil, 0, fmt.Errorf("eval: unknown mode %d", int(mode))
	}
	// Tiering: the O(p) chain descent for FIFO and LIFO, the pivot tier
	// for general pairs and for every chain miss.
	if kind := kindOf(sc.Send, sc.Return); kind != kindGeneral {
		if alpha, ok := s.chainSearch(sc, kind == kindLIFO, nil, nil); ok {
			s.lastBackend = "closed-form"
			return alpha, sum(alpha), nil
		}
	}
	return s.pivotScenario(sc, nil)
}

// ScenarioLoadsRHS solves the scenario's program with the right-hand
// sides rhs, in BuildLP's layout (rhs[t] bounds the worker row at send
// position t, then the port row(s); nil means 1 on every row, finite
// values otherwise), through the pivot tier. It returns the optimal loads
// by send position (session-owned, valid until the next call), their sum
// ρ and whether the program is feasible. Every coefficient is
// non-negative, so a negative right-hand side makes the program
// infeasible and α = 0 is feasible otherwise. A failed certificate falls
// back to the float simplex, counted in [SimplexFallbacks] and reported by
// Backend. The affine model of internal/core solves its scenario and
// bound programs here. The scenario is not validated (see ValidOrderPair).
func (s *Session) ScenarioLoadsRHS(sc Scenario, rhs []float64) (alpha []float64, rho float64, feasible bool, err error) {
	s.lastBackend, s.lastFallback = "pivot", false
	for _, b := range rhs {
		if b < 0 {
			return nil, 0, false, nil
		}
	}
	alpha, rho, err = s.pivotScenario(sc, rhs)
	return alpha, rho, err == nil, err
}

// pivotScenario answers the scenario's program with right-hand sides rhs
// (nil: 1 on every row) through the pivot tier, or through the counted
// simplex safety net when the pivot certificate fails.
func (s *Session) pivotScenario(sc Scenario, rhs []float64) ([]float64, float64, error) {
	full := grow(&s.full, len(sc.Send)*len(sc.Send))
	buildTightBase(full, sc.Platform, sc.Send)
	s.addReturnTerms(full, sc.Platform, sc.Send, sc.Return)
	if alpha, ok := s.pivotLoads(sc.Platform, sc.Send, sc.Model, full, rhs); ok {
		s.lastBackend = "pivot"
		return alpha, sum(alpha), nil
	}
	return s.fallbackLoads(sc, rhs)
}

// simplexFallbacks counts, process-wide, the evaluations whose pivot
// certificate failed and that the float simplex answered instead.
var simplexFallbacks atomic.Uint64

// SimplexFallbacks returns the number of evaluations, since process
// start, that fell back to the float simplex because no tier certified
// them: Auto scenarios and ScenarioLoadsRHS programs alike (dlsd exports
// it as dlsd_eval_simplex_fallback_total).
func SimplexFallbacks() uint64 { return simplexFallbacks.Load() }

// fallbackLoads is the counted safety net of the pivot tier.
func (s *Session) fallbackLoads(sc Scenario, rhs []float64) ([]float64, float64, error) {
	simplexFallbacks.Add(1)
	s.lastBackend, s.lastFallback = "simplex", true
	return s.simplexLoads(sc, rhs)
}

// Backend reports which evaluation tier produced the session's most
// recent answer ("closed-form" for the chain tiers, "pivot", "simplex",
// "exact"; "" before the first evaluation) and whether it was the counted
// simplex fallback rather than a certified or requested tier.
// Single-goroutine like the rest of the session; callers read it
// immediately after the evaluation they want attributed.
func (s *Session) Backend() (backend string, fallback bool) {
	return s.lastBackend, s.lastFallback
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// simplexLoads solves the full scenario LP, with right-hand sides rhs
// (nil: 1 on every row, otherwise non-negative), with the float64 simplex.
func (s *Session) simplexLoads(sc Scenario, rhs []float64) ([]float64, float64, error) {
	sol, err := BuildLP(sc, rhs, false).Solve()
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		// These programs are always feasible (α = 0 under non-negative
		// right-hand sides) and bounded (the port constraint caps Σα), so
		// any other status is an internal bug.
		return nil, 0, fmt.Errorf("eval: scenario LP terminated %v (internal error)", sol.Status)
	}
	return sol.X, sol.Objective, nil
}

// exactLoads solves the full scenario LP in exact rational arithmetic and
// returns the float64 view of the optimum.
func (s *Session) exactLoads(sc Scenario) ([]float64, float64, error) {
	sol, err := BuildLP(sc, nil, true).SolveExact()
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("eval: scenario LP terminated %v (internal error)", sol.Status)
	}
	obj, x := sol.Float()
	return x, obj, nil
}

// buildSchedule converts loads (by send position) into a verified
// canonical schedule, pruning zero-load workers from both orders. The two
// orders share one backing array of their exact combined length.
func buildSchedule(sc Scenario, alpha []float64) (*schedule.Schedule, error) {
	p := sc.Platform
	out := &schedule.Schedule{
		Alpha: make([]float64, p.P()),
		T:     1,
	}
	for k, i := range sc.Send {
		out.Alpha[i] = alpha[k]
	}
	// Prune zero-load workers from both orders (resource selection): the
	// send order keeps exactly the loads left non-zero here. A load counts
	// as zero by its time footprint, the scale certOK judges loads in.
	sends, returns := 0, 0
	for _, i := range sc.Send {
		if w := p.Workers[i]; out.Alpha[i]*(w.C+w.W+w.D) <= numeric.LoadEps {
			out.Alpha[i] = 0
			continue
		}
		sends++
	}
	if sends == 0 {
		return nil, fmt.Errorf("eval: LP assigned zero load to every worker (degenerate platform?)")
	}
	for _, i := range sc.Return {
		if out.Alpha[i] > 0 {
			returns++
		}
	}
	orders := make(platform.Order, 0, sends+returns)
	for _, i := range sc.Send {
		if out.Alpha[i] != 0 {
			orders = append(orders, i)
		}
	}
	for _, i := range sc.Return {
		if out.Alpha[i] > 0 {
			orders = append(orders, i)
		}
	}
	out.SendOrder, out.ReturnOrder = orders[:sends:sends], orders[sends:]
	if err := out.Check(p, sc.Model); err != nil {
		return nil, fmt.Errorf("eval: internal error: computed schedule fails verification: %w", err)
	}
	return out, nil
}

// ExactObjective solves the scenario LP in exact rational arithmetic and
// returns the optimal throughput as an exact rational string together with
// its float64 value (used by the theory tests to verify closed forms as
// identities).
func ExactObjective(sc Scenario) (float64, string, error) {
	prob, err := ScenarioLP(sc)
	if err != nil {
		return 0, "", err
	}
	sol, err := prob.SolveExact()
	if err != nil {
		return 0, "", err
	}
	if sol.Status != lp.Optimal {
		return 0, "", fmt.Errorf("eval: scenario LP terminated %v", sol.Status)
	}
	f, _ := sol.Objective.Float64()
	return f, sol.Objective.RatString(), nil
}
