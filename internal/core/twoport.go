package core

import (
	"context"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// OnePortPenalty quantifies the cost of the one-port restriction for FIFO
// scheduling on a platform: the ratio ρ_two-port / ρ_one-port ≥ 1. It is
// the headline comparison between this paper and its companion (Beaumont,
// Marchal, Robert, "Scheduling divisible loads with return messages on
// heterogeneous master-worker platforms", HiPC 2005), whose optimal
// two-port FIFO schedule enrolls the workers by non-decreasing c. Both
// sides solve that order, the one-port side being the INC_C heuristic.
func OnePortPenalty(p *platform.Platform, arith Arith) (float64, error) {
	mode, err := evalMode(arith)
	if err != nil {
		return 0, err
	}
	order := p.ByC()
	one, err := SolveScenario(context.TODO(), p, order, order, schedule.OnePort, mode)
	if err != nil {
		return 0, err
	}
	two, err := SolveScenario(context.TODO(), p, order, order, schedule.TwoPort, mode)
	if err != nil {
		return 0, err
	}
	return two.Throughput() / one.Throughput(), nil
}
