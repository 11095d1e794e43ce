// Package numeric is the single home of the repository's floating-point
// tolerances. Every package that compares float64 quantities derived from
// the scheduling linear programs — the simplex, the tight-system evaluator,
// the schedule feasibility checker, the platform shape detectors — pulls
// its constant from here, so the tolerances stay mutually consistent and
// the rationale lives in one place.
//
// The constants are chosen on a simple ladder:
//
//	LoadEps (1e-12)  «  LPEps/CertTol (1e-9)  «  CheckTol (1e-7)
//
// i.e. load pruning is stricter than solver optimality tests, which are in
// turn stricter than the independent feasibility checker, so a solution
// accepted by a solver is never rejected downstream by a tighter check.
//
// The ladder holds in the schedule's own time scale, where the horizon is
// T = 1 and every row of the scenario LP reads in time units. The
// tight-system evaluator and the schedule builder judge a load by its time
// footprint α·(c+w+d) and a dual multiplier against the dual objective
// Σλ (= ρ at an optimum), not by their raw values, which shrink as 1/z
// once return costs grow: at a return-to-send ratio z = 1e6 loads and
// multipliers sum to ρ ≈ 1e-6, where a raw −CertTol would admit a load
// whose worker's rows move by 1e-3 in time. The checker's tolerance is
// relative to T already. The float simplex still applies LPEps to raw
// values, and from z ≈ 1e5, or with costs near 2e5, it can report
// throughputs a few 1e-7 relative above the LP optimum.
package numeric

const (
	// LPEps is the float64 simplex tolerance: reduced costs above -LPEps
	// count as optimal, pivot candidates below LPEps count as zero. The LPs
	// solved here have O(10) rows with coefficients of comparable magnitude,
	// so a fixed 1e-9 keeps ~6 digits of headroom above the ~1e-15 rounding
	// noise of a handful of eliminations.
	LPEps = 1e-9

	// CertTol bounds the negativity accepted in the tight-system evaluator's
	// KKT certificate: load time footprints, port-constraint slack and dual
	// multipliers (relative to their sum) may undershoot zero by at most
	// CertTol before the evaluator refuses the certificate and falls back
	// to the simplex. Matching LPEps keeps the direct and simplex backends
	// agreeing to well within the 1e-9 the property tests demand.
	CertTol = 1e-9

	// LoadEps is the time footprint below which an LP load is treated as
	// exactly zero and its worker pruned from the schedule (resource
	// selection, Proposition 1). It sits far below CertTol/LPEps so pruning
	// never disagrees with the solvers about which loads are "really"
	// positive.
	LoadEps = 1e-12

	// CheckTol is the relative tolerance of the independent schedule
	// feasibility checker. It is deliberately the loosest constant: the
	// checker re-derives event dates from float64 LP output, accumulating a
	// few more roundings than the solvers themselves, and a verifier must
	// accept everything an (honest) solver emits.
	CheckTol = 1e-7

	// RatioTol is the relative tolerance used by the platform shape
	// detectors (common ratio z = d/c, bus detection). Platform parameters
	// typically come from measured or generated float data, where 1e-9
	// separates "equal by construction" from "coincidentally close".
	RatioTol = 1e-9
)
