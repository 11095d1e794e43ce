package eval

import (
	"math"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// This file is the sweep's port-vertex fast path. When an adjacent
// transposition swaps two enrolled workers of a cached port-tight optimum,
// resolveCachedShape re-tries only the same slack worker; on port-bound
// platforms the slack row routinely shifts to a neighbouring rank instead,
// and the sweep used to pay a full active-set descent to rediscover an
// optimum whose enrolled set had not changed at all. portVertexScan closes
// that gap: it re-examines every port-tight vertex of the cached enrolled
// subsequence, using the same prefix factorisation as the load chains to
// screen each candidate slack row in O(1) before paying the exact O(m)
// solve, so a slack-row shift costs O(m + hits·m) instead of a descent.
//
// The screen re-derives fifoPortVertex's closure in factored form. Writing
// P_r for the subsequence's all-tight chain (P_0 = 1,
// P_r = P_{r−1}·(w+d)_{r−1}/(c+w)_r), the vertex's load directions are
// scalar multiples of P on each side of the slack row k:
//
//	X_r = P_r (r < k),  X_r = ρ·P_r (r > k),  ρ = (c+w)_k/(w+d)_k
//	Y_r = η·P_r (r > k),                      η = (d−c)_k/((w+d)_k·P_k)
//
// so the 2×2 closure coefficients — and with them the candidate's t, s,
// its load signs and its slack-row inequality — collapse onto three prefix
// sums Σ P·c, Σ P·d, Σ P·(c+d) shared by every k. A row that fails the
// screen cannot pass fifoPortVertex's primal checks (the screen computes
// the same quantities, up to rounding); a row that passes is re-solved and
// re-certified exactly, so the fast path inherits the descent's soundness:
// wide screen margins mean a false positive only costs one O(m) exact
// solve and a false negative only costs the descent fallback.
type SweepStats struct {
	// PortScans counts portVertexScan invocations (cached-shape re-solves
	// that failed and would previously have descended immediately).
	PortScans uint64
	// PortHits counts scans that re-certified an optimum on the cached
	// enrolled set, saving a full active-set descent.
	PortHits uint64
	// PortScreened counts candidate slack rows eliminated by the O(1)
	// screen without an exact solve.
	PortScreened uint64
	// Fallbacks counts full chain-search descents — the expensive path the
	// fast paths exist to avoid.
	Fallbacks uint64
}

// Stats returns the sweep's resolution-path counters.
func (sw *Sweep) Stats() SweepStats { return sw.stats }

// disablePortFastPath switches off the port-vertex fast path. Test hook
// only: the regression test compares descent fallbacks with and without
// the scan on a port-bound platform.
var disablePortFastPath bool

// portVertexScan tries to certify an optimum on the enrolled send
// positions pos, covering the shape changes a transposition most often
// causes on a port-bound platform: the slack row moved to another rank, or
// the port went slack entirely. It runs one descent level on the
// subsequence — the all-tight candidate, then every port-tight vertex
// k = m−1 down to 0 — with the O(1) screen above in place of the exact
// per-row solve. skipAllTight and skipWorker exclude candidates the caller
// has already refuted (the cached shape re-solve, a failed dropped check).
// A certified answer carries the full KKT certificate and is recorded
// exactly like a descent optimum.
func (sw *Sweep) portVertexScan(sc Scenario, pos []int, skipAllTight bool, skipWorker int) (float64, bool) {
	m := len(pos)
	if disablePortFastPath || sw.lifo || sw.model != schedule.OnePort || m < 2 {
		return 0, false
	}
	sw.stats.PortScans++
	s := sw.sess
	sub := sw.sub[:m]
	slackRank := -1
	for r, p := range pos {
		sub[r] = sw.order[p]
		if sub[r] == skipWorker {
			slackRank = r
		}
	}
	subOrder := platform.Order(sub)
	if !skipAllTight {
		// The port may have gone slack: try the all-tight candidate first,
		// mirroring the descent's per-level order.
		if alpha, ok := s.fifoTight(sw.p, subOrder); ok && portFeasible(sw.p, subOrder, alpha, sw.model) {
			if _, ok := s.fifoDualHint(sw.p, subOrder); ok &&
				s.chainDroppedOK(sc, pos, alpha, s.lam[:m], 0, false) {
				sw.recordScanOpt(pos, alpha, s.lam[:m], 0, -1)
				return sw.opt.rho, true
			}
		}
	}
	wc := s.derivedCosts(sw.p)
	// The subsequence's all-tight chain and its prefix sums Σ P·c, Σ P·d,
	// Σ P·(c+d): one O(m) pass shared by every candidate row's screen.
	P, SC, SD, SG := sw.pvP[:m], sw.pvSC[:m], sw.pvSD[:m], sw.pvSG[:m]
	for r := 0; r < m; r++ {
		w := &wc[sub[r]]
		pk := 1.0
		if r > 0 {
			pk = P[r-1] * wc[sub[r-1]].wd * w.invCW
		}
		if math.IsNaN(pk) || math.IsInf(pk, 0) || pk <= 0 {
			// Degenerate chain: the factorisation (and the screen's P > 0
			// sign argument) breaks down; let the descent sort it out.
			return 0, false
		}
		P[r] = pk
		if r == 0 {
			SC[0], SD[0], SG[0] = pk*w.c, pk*w.d, pk*w.g
		} else {
			SC[r] = SC[r-1] + pk*w.c
			SD[r] = SD[r-1] + pk*w.d
			SG[r] = SG[r-1] + pk*w.g
		}
	}
	const eps = 1e-6
	SDtot, SGtot := SD[m-1], SG[m-1]
	for k := m - 1; k >= 0; k-- {
		if k == slackRank {
			continue // the caller already refuted this exact vertex
		}
		w := &wc[sub[k]]
		var t, sv, tail, slackLHS float64
		if k == 0 {
			// The tight chain restarts at row 1 (X_r = P_r/P_1, Y = e_0) and
			// row 1 closes with the port row.
			inv := 1 / P[1]
			a11 := wc[sub[1]].cw + (SDtot-SD[0])*inv
			a12 := w.c
			a21 := (SGtot - SG[0]) * inv
			a22 := w.g
			det := a11*a22 - a12*a21
			if det < 1e-300 && det > -1e-300 {
				continue
			}
			t = (a22 - a12) / det
			sv = (a11 - a21) / det
			tail = t // every non-slack load is a positive multiple of t
			slackLHS = sv*(w.cw+w.d) + t*(SDtot-SD[0])*inv
		} else {
			rho := w.cw * w.invWD
			eta := w.dc * w.invWD / P[k]
			SDtail := SDtot - SD[k]
			SGtail := SGtot - SG[k]
			a11 := wc[sub[0]].cw + SD[k-1] + rho*SDtail
			a12 := w.d + eta*SDtail
			a21 := SG[k-1] + rho*SGtail
			a22 := w.g + eta*SGtail
			det := a11*a22 - a12*a21
			if det < 1e-300 && det > -1e-300 {
				continue
			}
			t = (a22 - a12) / det
			sv = (a11 - a21) / det
			tail = t*rho + sv*eta // sign of the loads past the slack row
			if k == m-1 {
				tail = 0 // no rows past the slack row
			}
			slackLHS = t*SC[k-1] + sv*(w.cw+w.d) + tail*SDtail
		}
		// O(1) screen: load signs on each side of the slack row plus the
		// slack row's idle-time inequality, with margins wide enough that
		// rounding differences against the exact solve cannot screen a
		// certifiable vertex. The positive-form checks also reject NaNs.
		if !(t >= -eps) || !(sv >= -eps) || !(tail >= -eps) || !(slackLHS <= 1+eps) {
			sw.stats.PortScreened++
			continue
		}
		va, mu, ok, _, _ := s.fifoPortVertex(sw.p, subOrder, k)
		if !ok || !s.chainDroppedOK(sc, pos, va, s.lam[:m], mu, false) {
			continue
		}
		sw.recordScanOpt(pos, va, s.lam[:m], mu, subOrder[k])
		return sw.opt.rho, true
	}
	return 0, false
}

// recordScanOpt records a scan-certified optimum and clears the
// revalidation flags.
func (sw *Sweep) recordScanOpt(pos []int, alpha, lam []float64, mu float64, slackWorker int) {
	sw.opt.set(pos, alpha, lam, mu, slackWorker)
	for k := range sw.optIn {
		sw.optIn[k] = false
	}
	for _, p := range sw.opt.pos {
		sw.optIn[p] = true
	}
	sw.haveOpt = true
	sw.needChains, sw.needDropped = false, false
	sw.stats.PortHits++
}
