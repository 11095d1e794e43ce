package dls

import (
	"repro/internal/core"
	"repro/internal/multiround"
)

// This file exposes the extensions built on top of the paper's framework:
// the two-port baselines of the companion paper, the affine cost model of
// the related-work discussion, and uniform multi-round distribution.

// Affine holds per-worker fixed costs for the affine cost model: In/Out
// are message start-up latencies, Comp a computation overhead. The paper
// cites the affine star problem as NP-hard; StrategyFIFOAffine enumerates
// participant subsets.
type Affine = core.Affine

// AffineResult is the outcome of an affine-model solve.
type AffineResult = core.AffineResult

// ZeroAffine returns an all-zero affine extension for p workers (reduces
// to the paper's linear model).
func ZeroAffine(p int) Affine { return core.ZeroAffine(p) }

// OnePortPenalty returns ρ_two-port / ρ_one-port ≥ 1 for FIFO scheduling
// on the platform: the throughput cost of the one-port restriction.
func OnePortPenalty(p *Platform, arith Arith) (float64, error) {
	return core.OnePortPenalty(p, arith)
}

// MultiRoundParams configures a uniform multi-round FIFO evaluation.
type MultiRoundParams = multiround.Params

// MultiRoundFromSchedule seeds multi-round parameters from a one-round
// schedule computed by the engine (loads and FIFO order are taken from the
// schedule; Rounds starts at 1).
func MultiRoundFromSchedule(p *Platform, s *Schedule, latency float64) MultiRoundParams {
	return multiround.FromSchedule(p, s, latency)
}

// MultiRoundMakespan computes the makespan of distributing the per-worker
// loads in R uniform rounds under the one-port model with per-message
// latency (analytically; see internal/multiround).
func MultiRoundMakespan(p MultiRoundParams) (float64, error) {
	return multiround.Makespan(p)
}

// MultiRoundSweep returns the makespan for every round count 1..maxRounds.
func MultiRoundSweep(p MultiRoundParams, maxRounds int) ([]float64, error) {
	return multiround.Sweep(p, maxRounds)
}

// BestRounds returns the round count minimising the multi-round makespan.
func BestRounds(p MultiRoundParams, maxRounds int) (int, float64, error) {
	return multiround.BestRounds(p, maxRounds)
}
