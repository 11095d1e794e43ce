package core

import (
	"math"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// OptimalFIFO computes an optimal one-port FIFO schedule on a star platform
// with a common ratio z = d_i/c_i, implementing Theorem 1 and Proposition 1:
// it enrolls every worker in Theorem 1's send order — non-decreasing c_i
// for z ≤ 1, non-increasing c_i for z > 1 (Section 3's mirror argument) —
// and solves that one FIFO scenario; zero loads give the resource
// selection. At z = 1 every ordering is optimal and non-decreasing c_i is
// used for determinism.
//
// The returned schedule has horizon T = 1 and throughput equal to the
// optimal FIFO throughput ρ*. It returns ErrNoCommonZ when the platform has
// no common z.
func OptimalFIFO(p *platform.Platform, mode eval.Mode) (*schedule.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	z, ok := p.Z()
	if !ok {
		return nil, ErrNoCommonZ
	}
	order := p.ByC()
	if z > 1 {
		order = p.ByCDesc()
	}
	return eval.Evaluate(eval.Scenario{Platform: p, Send: order, Return: order, Model: schedule.OnePort}, mode)
}

// theoremZUlps is how far apart, in units in the last place of the first
// worker's ratio, the d/c ratios may sit for TheoremOrder to apply: a
// ratio computed as (z·c)/c sits within one ulp of z. Platform.Z accepts
// ratios up to numeric.RatioTol apart, but inside that band the sweep can
// beat the theorem's order by about 1e-10 relative.
const theoremZUlps = 4

// TheoremOrder returns the send order that the paper's theorems prove
// optimal among all FIFO (lifo false) or all LIFO (lifo true) send orders
// of p under model, and reports whether one applies. It applies when every
// worker's d/c ratio equals the first one's to within theoremZUlps ulps,
// that is when p has a common z up to rounding:
//
//   - FIFO, one-port (Theorem 1): non-decreasing c for z ≤ 1, non-increasing
//     c for z > 1 (Section 3's mirror argument). At z = 1 every order is
//     optimal and non-decreasing c is used.
//   - LIFO, either model (the companion result quoted in Section 5):
//     non-decreasing c. Every LIFO schedule is one-port feasible, so the
//     two models share the order.
//
// Two-port FIFO, an invalid platform and a platform without such a common
// z report false. Workers with equal c keep index order, so among optimal
// orders the answer is the one with ties at the lower worker index first.
func TheoremOrder(p *platform.Platform, model schedule.Model, lifo bool) (platform.Order, bool) {
	if p.Validate() != nil {
		return nil, false
	}
	z := p.Workers[0].D / p.Workers[0].C
	tol := theoremZUlps * 0x1p-52 * z // at least theoremZUlps ulps of z
	for _, w := range p.Workers[1:] {
		if !(math.Abs(w.D/w.C-z) <= tol) {
			return nil, false
		}
	}
	switch {
	case lifo:
		return p.ByC(), true
	case model != schedule.OnePort:
		return nil, false
	case z <= 1:
		return p.ByC(), true
	default:
		return p.ByCDesc(), true
	}
}

// MakespanForLoad converts a throughput-form schedule (T = 1, ρ = Σα) into
// the time needed to process `load` units: by linearity, load/ρ.
func MakespanForLoad(s *schedule.Schedule, load float64) float64 {
	return load / s.Throughput()
}
