// Package numeric is the single home of the repository's floating-point
// tolerances. Every package that compares float64 quantities derived from
// the scheduling linear programs — the simplex, the tight-system evaluator,
// the schedule feasibility checker, the platform shape detectors — pulls
// its constant from here, so the tolerances stay mutually consistent and
// the rationale lives in one place.
//
// The constants are absolute and sized for the problems the paper's
// experiments pose: platform costs O(0.01..1), right-hand sides exactly 1,
// loads O(1..10). In that range absolute and relative tolerances differ by
// a small factor only, and the constants below are chosen on a simple
// ladder:
//
//	LoadEps (1e-12)  «  LPEps/CertTol (1e-9)  «  CheckTol (1e-7)
//
// i.e. load pruning is stricter than solver optimality tests, which are in
// turn stricter than the independent feasibility checker, so a solution
// accepted by a solver is never rejected downstream by a tighter check.
//
// Outside that range the ladder does not hold. From a return-to-send
// ratio z of about 1e5, or with costs near 2e5, rounding noise outgrows
// the absolute constants: the closed-form tier certifies, and the float
// simplex reports, throughputs up to a few 1e-7 relative above the LP
// optimum, and some one-port FIFO schedules fail the checker with a port
// conflict near t = 0. ROADMAP item 1 tracks the fix.
package numeric

const (
	// LPEps is the float64 simplex tolerance: reduced costs above -LPEps
	// count as optimal, pivot candidates below LPEps count as zero. The LPs
	// solved here have O(10) rows with coefficients of comparable magnitude,
	// so a fixed 1e-9 keeps ~6 digits of headroom above the ~1e-15 rounding
	// noise of a handful of eliminations.
	LPEps = 1e-9

	// CertTol bounds the negativity accepted in the tight-system evaluator's
	// KKT certificate: primal loads, port-constraint slack and dual
	// multipliers may undershoot zero by at most CertTol before the
	// evaluator refuses the certificate and falls back to the simplex.
	// Matching LPEps keeps the direct and simplex backends agreeing to well
	// within the 1e-9 the property tests demand.
	CertTol = 1e-9

	// LoadEps is the threshold below which an LP load is treated as exactly
	// zero and its worker pruned from the schedule (resource selection,
	// Proposition 1). It sits far below CertTol/LPEps so pruning never
	// disagrees with the solvers about which loads are "really" positive.
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
