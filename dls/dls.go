// Package dls is the public API of the divisible-load scheduling library
// reproducing Beaumont, Marchal, Rehn and Robert, "FIFO scheduling of
// divisible loads with return messages under the one-port model" (INRIA
// RR-5738 / IPDPS 2006).
//
// The library schedules one-round divisible-load applications on
// heterogeneous master-worker star platforms where workers send results
// back to the master and the master can be engaged in at most one
// communication at a time (the one-port model).
//
// # The engine
//
// All scheduling goes through one engine: a [Solver] resolves a [Request]
// — platform, strategy, communication model, LP arithmetic — against an
// extensible strategy registry and returns a [Result]:
//
//	solver, err := dls.NewSolver(dls.WithCache(256), dls.WithParallelism(8))
//	if err != nil { ... }
//	p := dls.NewPlatform(
//	    dls.Worker{C: 0.1, W: 0.5, D: 0.05},
//	    dls.Worker{C: 0.2, W: 0.3, D: 0.10},
//	)
//	res, err := solver.Solve(ctx, dls.Request{
//	    Platform: p,
//	    Strategy: dls.StrategyFIFO, // Theorem 1 + Proposition 1
//	})
//	if err != nil { ... }
//	fmt.Println(res.Throughput, res.Schedule.Participants())
//
// Built-in strategies cover the whole paper: the optimal FIFO and LIFO
// schedules ([StrategyFIFO], [StrategyLIFO]), the Section 5 heuristics
// ([StrategyIncC], [StrategyIncW], [StrategyDecC]), fixed-order and
// arbitrary (σ1, σ2) scenarios ([StrategyFIFOOrder], [StrategyLIFOOrder],
// [StrategyScenario]), the Theorem 2 bus construction ([StrategyBusFIFO]),
// the exhaustive optimality oracles ([StrategyFIFOExhaustive],
// [StrategyLIFOExhaustive], [StrategyPairExhaustive]) and the affine-model
// extensions ([StrategyFIFOAffine], [StrategyScenarioAffine]). New
// heuristics plug in with [RegisterStrategy] without touching the engine.
//
// The engine also provides context cancellation and [WithTimeout]
// deadlines for the exponential exhaustive searches, an LRU result cache ([WithCache]) keyed by platform
// fingerprint, and concurrent batch solving ([Solver.SolveBatch],
// [Solver.SolveStream]) with deterministic, parallelism-independent output
// ordering ([WithParallelism]). An admission-window micro-batcher
// ([Solver.NewBatcher]) coalesces concurrent submissions into SolveBatch
// calls — [Solver.SolveStream] rides it ([WithStreamWindow]), and the
// dlsd serving layer builds on it for load shedding and deadline
// propagation. [Solver.Stats] exposes the engine's counters (cache
// activity, solves by strategy, batch collapses); [Request] is JSON
// round-trippable for the HTTP wire format.
//
// # Scenario evaluation
//
// Every fixed communication scenario is evaluated by the internal/eval
// pipeline: closed-form FIFO/LIFO load chains and a pivot solver, each
// answer carrying a full optimality certificate, with the simplex (float64
// or exact rational) as a counted safety net. [Request.Eval] selects the
// backend ([EvalAuto], the default, tiers them); the backends agree to
// 1e-9 by property test, so the knob trades only speed, not results.
//
// All schedule-producing strategies verify their output against an
// independent feasibility checker before returning it.
package dls

import (
	"math/big"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mmapp"
	"repro/internal/platform"
	"repro/internal/rounding"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// Core model types, re-exported from the internal packages.
type (
	// Platform is a master-worker star platform (Section 2.1).
	Platform = platform.Platform
	// Worker holds one worker's linear costs: C per unit sent to it, W per
	// unit computed, D per unit returned.
	Worker = platform.Worker
	// Order is a permutation of worker indices.
	Order = platform.Order
	// Speeds describes a platform by per-worker speed multipliers.
	Speeds = platform.Speeds
	// App converts worker speeds into costs for the matrix-product
	// application of Section 5 (z = 1/2).
	App = platform.App
	// Family selects a random-platform family from Section 5.3.
	Family = platform.Family
	// Schedule is a one-round schedule in the paper's canonical form.
	Schedule = schedule.Schedule
	// WorkerTimeline holds one worker's derived event dates.
	WorkerTimeline = schedule.WorkerTimeline
	// Model selects the communication model.
	Model = schedule.Model
	// Arith selects float64 or exact rational LP arithmetic.
	Arith = core.Arith
	// Trace is a timed activity record of a simulated run.
	Trace = trace.Trace
	// SimulationParams configures a virtual-cluster execution.
	SimulationParams = mmapp.Params
	// SimulationResult is the outcome of a virtual-cluster execution.
	SimulationResult = mmapp.Result
	// PairResult is the outcome of the exhaustive permutation-pair search.
	PairResult = core.PairResult
)

// Communication models.
const (
	// OnePort: the master sends or receives one message at a time.
	OnePort = schedule.OnePort
	// TwoPort: the master may send and receive simultaneously.
	TwoPort = schedule.TwoPort
)

// LP arithmetic modes.
const (
	// Float64 uses the fast float64 evaluation pipeline.
	Float64 = core.Float64
	// Exact uses the exact rational simplex.
	Exact = core.Exact
)

// EvalMode selects the scenario-evaluation backend of a Request (see
// internal/eval): the tiered automatic composition, the float64 simplex or
// the exact rational simplex.
type EvalMode = eval.Mode

// Evaluation backends for Request.Eval.
const (
	// EvalAuto tiers the certified backends: the O(p) FIFO/LIFO chains,
	// then the pivot solver, with the float simplex as a counted safety
	// net. The zero value, and the default everywhere.
	EvalAuto = eval.Auto
	// EvalSimplex always solves the full LP with the float64 simplex.
	EvalSimplex = eval.Simplex
	// EvalExact always solves the full LP in exact rational arithmetic
	// (equivalent to Arith == Exact).
	EvalExact = eval.ExactRational
)

// ParseEvalMode parses an evaluation-backend name: "auto", "simplex" or
// "exact".
func ParseEvalMode(s string) (EvalMode, error) { return eval.ParseMode(s) }

// Random platform families (Section 5.3.2).
const (
	// Homogeneous platforms share one communication and one computation
	// speed.
	Homogeneous = platform.Homogeneous
	// HomCommHeteroComp platforms share the communication speed only.
	HomCommHeteroComp = platform.HomCommHeteroComp
	// Heterogeneous platforms draw every speed independently.
	Heterogeneous = platform.Heterogeneous
)

// ErrNoCommonZ is returned by the one-port StrategyFIFO solve when d_i/c_i
// is not constant.
var ErrNoCommonZ = core.ErrNoCommonZ

// NewPlatform builds a star platform from explicit worker costs.
func NewPlatform(workers ...Worker) *Platform { return platform.New(workers...) }

// NewBus builds a bus platform: common link costs c and d, individual
// computation costs ws.
func NewBus(c, d float64, ws ...float64) *Platform { return platform.NewBus(c, d, ws...) }

// DefaultApp returns the Section 5 matrix-product application for matrices
// of the given size, with the calibrated reference bandwidth and flop rate.
func DefaultApp(size int) App { return platform.DefaultApp(size) }

// RandomSpeeds draws a random platform description of p workers from the
// given family using rng (speeds are integers 1..10 as in the paper).
func RandomSpeeds(rng *rand.Rand, p int, family Family) Speeds {
	return platform.RandomSpeeds(rng, p, family)
}

// Fig14Speeds returns the Section 5.3.4 participation-study platform with
// the slow worker's communication speed x.
func Fig14Speeds(x float64) Speeds { return platform.Fig14Speeds(x) }

// BusFIFOThroughput returns Theorem 2's closed-form optimal one-port FIFO
// throughput for a bus platform.
func BusFIFOThroughput(p *Platform) (float64, error) { return core.BusFIFOThroughput(p) }

// ExactBusFIFOThroughput evaluates the Theorem 2 closed form in exact
// rational arithmetic.
func ExactBusFIFOThroughput(p *Platform) (*big.Rat, error) { return core.ExactBusFIFOThroughput(p) }

// BusLIFOThroughput returns the closed-form LIFO throughput on a bus in
// the given worker order.
func BusLIFOThroughput(p *Platform) (float64, error) { return core.BusLIFOThroughput(p) }

// BusTwoPortFIFOThroughput returns ρ̃, the two-port optimal FIFO throughput
// on a bus (the companion-paper closed form inside Theorem 2).
func BusTwoPortFIFOThroughput(p *Platform) (float64, error) {
	return core.BusTwoPortFIFOThroughput(p)
}

// MakespanForLoad converts a throughput-form schedule into the time needed
// to process load units (linearity: load/ρ). Requests with Load set get the
// same number in Result.Makespan.
func MakespanForLoad(s *Schedule, load float64) float64 {
	return core.MakespanForLoad(s, load)
}

// DistributeInteger rounds fractional loads to integers summing to total,
// using the paper's policy: floor everything, then top up the first workers
// of the send order (Section 5).
func DistributeInteger(alphas []float64, order Order, total int) ([]int, error) {
	return rounding.Distribute(alphas, []int(order), total)
}

// Simulate executes a matrix-product schedule as a real master/worker
// message-passing program on the virtual cluster and returns the measured
// makespan and trace. See SimulationParams for the realism knobs (latency,
// jitter, cache factor).
func Simulate(params SimulationParams) (*SimulationResult, error) {
	return mmapp.Run(params)
}
