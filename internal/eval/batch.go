package eval

import (
	"fmt"
	"math"

	"repro/internal/eval/kern"
	"repro/internal/numeric"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// batchWidth is the lane count of one lockstep chunk. The position-step
// loops live in internal/eval/kern, one pure-Go implementation that
// rounds at the same points as Session's scalar FIFO chain.
const batchWidth = kern.Width

// Batch evaluates many same-size FIFO or LIFO scenarios in lockstep. The
// scenarios' platform columns are laid out structure-of-arrays — for every
// send position one contiguous row of per-lane worker constants — and the
// closed-form load and dual chains run across all lanes of a chunk at each
// position step (auto-chunked batchWidth wide). Each lane carries the full
// KKT certificate of the all-rows-tight chain candidate, so a certified
// lane's throughput and loads are exactly the scenario's LP optimum (the
// value the tiered Auto pipeline produces); uncertified lanes — port
// overruns, resource selection, degenerate closures — must be re-evaluated
// individually through the full pipeline.
//
// The exhaustive pair search uses a Batch to seed its incumbent (the
// FIFO/LIFO return orders of every send permutation, evaluated up front),
// and dls.SolveBatch uses one to collapse chain-shaped requests of the same
// size into lockstep sweeps. A Batch is not safe for concurrent use.
type Batch struct {
	model schedule.Model
	lifo  bool
	q     int

	sends []int // lane-major: lane l's send order at [l*q : (l+1)*q]
	plats []*platform.Platform

	// Per-lane outputs, filled by Run.
	rho   []float64
	ok    []bool
	loads []float64 // lane-major normalised loads by send position

	// Chunk scratch: position-major, lane-minor columns of width batchWidth.
	c, d, w, cw, wd, g, dc, invCW, invWD, invCWD []float64
	chP, chU, chV                                []float64
	sp, sc, sd, pu, pv, t, denom                 []float64
	laneOK                                       []bool

	stamp    []int // duplicate-detection scratch for Add
	stampGen int

	// costCache memoises the derived per-worker constants per platform:
	// the gather stage would otherwise redo three divisions per worker per
	// lane on every Run. Platforms are immutable by convention, so entries
	// stay valid across Reset; the cache is dropped wholesale if it grows
	// past costCacheMax distinct platforms.
	costCache map[*platform.Platform][]workerCosts
}

const costCacheMax = 64

func (b *Batch) platformCosts(p *platform.Platform) []workerCosts {
	if wcs, ok := b.costCache[p]; ok {
		return wcs
	}
	if b.costCache == nil || len(b.costCache) >= costCacheMax {
		b.costCache = make(map[*platform.Platform][]workerCosts)
	}
	wcs := make([]workerCosts, p.P())
	for i := range wcs {
		wcs[i] = deriveCosts(p.Workers[i])
	}
	b.costCache[p] = wcs
	return wcs
}

// NewBatch prepares a batch of scenarios enrolling q workers each: FIFO
// (σ2 = σ1) when lifo is false, LIFO (σ2 = reverse σ1) when true.
func NewBatch(model schedule.Model, lifo bool, q int) (*Batch, error) {
	if model != schedule.OnePort && model != schedule.TwoPort {
		return nil, fmt.Errorf("eval: unknown model %v", model)
	}
	if q < 1 {
		return nil, fmt.Errorf("eval: batch scenario size %d must be >= 1", q)
	}
	n := batchWidth * q
	return &Batch{
		model: model, lifo: lifo, q: q,
		c: make([]float64, n), d: make([]float64, n), w: make([]float64, n),
		cw: make([]float64, n), wd: make([]float64, n), g: make([]float64, n),
		dc: make([]float64, n), invCW: make([]float64, n), invWD: make([]float64, n),
		invCWD: make([]float64, n),
		chP:    make([]float64, n), chU: make([]float64, n), chV: make([]float64, n),
		sp: make([]float64, batchWidth), sc: make([]float64, batchWidth),
		sd: make([]float64, batchWidth), pu: make([]float64, batchWidth),
		pv: make([]float64, batchWidth), t: make([]float64, batchWidth),
		denom:  make([]float64, batchWidth),
		laneOK: make([]bool, batchWidth),
	}, nil
}

// Len returns the number of scenarios added so far.
func (b *Batch) Len() int { return len(b.plats) }

// Reset drops all added scenarios, keeping the allocated columns.
func (b *Batch) Reset() {
	b.sends = b.sends[:0]
	b.plats = b.plats[:0]
	b.rho = b.rho[:0]
	b.ok = b.ok[:0]
	b.loads = b.loads[:0]
}

// Add appends one scenario lane: the given send order (copied) over the
// given platform. The order must enroll exactly q distinct workers of p.
func (b *Batch) Add(p *platform.Platform, send platform.Order) error {
	if len(send) != b.q {
		return fmt.Errorf("eval: batch of size-%d scenarios got a %d-worker send order", b.q, len(send))
	}
	n := p.P()
	if cap(b.stamp) < n {
		b.stamp = make([]int, n)
		b.stampGen = 0
	}
	b.stamp = b.stamp[:n]
	b.stampGen++
	for _, i := range send {
		if i < 0 || i >= n {
			return fmt.Errorf("eval: order references worker %d outside platform of %d workers", i, n)
		}
		if b.stamp[i] == b.stampGen {
			return fmt.Errorf("eval: worker %d appears twice in send order", i)
		}
		b.stamp[i] = b.stampGen
	}
	b.sends = append(b.sends, send...)
	b.plats = append(b.plats, p)
	return nil
}

// Run evaluates every added lane, chunked batchWidth wide. Results are
// available through Throughput, Loads and Schedule.
func (b *Batch) Run() {
	lanes := len(b.plats)
	b.rho = append(b.rho[:0], make([]float64, lanes)...)
	b.ok = append(b.ok[:0], make([]bool, lanes)...)
	b.loads = append(b.loads[:0], make([]float64, lanes*b.q)...)
	for base := 0; base < lanes; base += batchWidth {
		wch := lanes - base
		if wch > batchWidth {
			wch = batchWidth
		}
		b.runChunk(base, wch)
	}
}

// runChunk gathers the SoA columns of lanes [base, base+wch) and runs the
// chains in lockstep.
func (b *Batch) runChunk(base, wch int) {
	q, W := b.q, batchWidth
	// Gather: one row of per-lane worker constants per send position.
	for l := 0; l < wch; l++ {
		wcs := b.platformCosts(b.plats[base+l])
		send := b.sends[(base+l)*q : (base+l+1)*q]
		for pos, i := range send {
			wc := wcs[i]
			at := pos*W + l
			b.c[at], b.d[at], b.w[at] = wc.c, wc.d, wc.w
			b.cw[at], b.wd[at], b.g[at], b.dc[at] = wc.cw, wc.wd, wc.g, wc.dc
			b.invCW[at], b.invWD[at], b.invCWD[at] = wc.invCW, wc.invWD, wc.invCWD
		}
	}
	if b.lifo {
		b.runLIFO(base, wch)
	} else {
		b.runFIFO(base, wch)
	}
}

func (b *Batch) runFIFO(base, wch int) {
	q, W := b.q, batchWidth
	tol := numeric.CertTol
	P, u, v := b.chP, b.chU, b.chV
	// Load and dual chains across all lanes per position step. The kernels
	// always run the full chunk width; lanes past wch hold stale columns
	// whose outputs are never read.
	kern.FIFOChain(q, P, b.c, b.d, b.wd, b.invCW, b.sp, b.sc, b.sd)
	kern.FIFODual(q, b.c, b.dc, b.invWD, u, v, b.pu, b.pv)
	// Closures and certificates per lane.
	for l := 0; l < wch; l++ {
		denom := b.cw[l] + b.sd[l]
		rho := b.sp[l] / denom
		ok := denom > 0 && !math.IsNaN(rho) && !math.IsInf(rho, 0)
		lim := (1 + tol) * denom
		if b.model == schedule.TwoPort {
			ok = ok && b.sc[l] <= lim && b.sd[l] <= lim
		} else {
			ok = ok && b.sc[l]+b.sd[l] <= lim
		}
		onemv := 1 - b.pv[l]
		ok = ok && (onemv >= 1e-12 || onemv <= -1e-12)
		b.denom[l] = denom
		b.t[l] = b.pu[l] / onemv
		b.laneOK[l] = ok
		b.rho[base+l] = rho
	}
	// λ scan, position-major again so the hot loop stays lane-parallel.
	okMask := kern.FIFOLambdaOK(q, u, v, b.t, tol)
	for l := 0; l < wch; l++ {
		if okMask&(1<<l) == 0 {
			b.laneOK[l] = false
		}
	}
	for l := 0; l < wch; l++ {
		b.ok[base+l] = b.laneOK[l]
		if !b.laneOK[l] {
			continue
		}
		inv := 1 / b.denom[l]
		dst := b.loads[(base+l)*q : (base+l+1)*q]
		for pos := 0; pos < q; pos++ {
			dst[pos] = P[pos*W+l] * inv
		}
	}
}

func (b *Batch) runLIFO(base, wch int) {
	q, W := b.q, batchWidth
	tol := numeric.CertTol
	P := b.chP
	// Lower-triangular load chain (loads are already normalised), then the
	// backward dual chain with its per-lane certificate mask.
	kern.LIFOChain(q, P, b.w, b.invCWD, b.sp)
	okMask := kern.LIFODualOK(q, b.g, b.invCWD, b.pu, tol)
	for l := 0; l < wch; l++ {
		b.laneOK[l] = okMask&(1<<l) != 0
	}
	for l := 0; l < wch; l++ {
		rho := b.sp[l]
		ok := b.laneOK[l] && !math.IsNaN(rho) && !math.IsInf(rho, 0) && rho > 0
		b.rho[base+l] = rho
		b.ok[base+l] = ok
		if !ok {
			continue
		}
		dst := b.loads[(base+l)*q : (base+l+1)*q]
		for pos := 0; pos < q; pos++ {
			dst[pos] = P[pos*W+l]
		}
	}
}

// Throughput returns lane i's optimal throughput and whether its chain
// certificate held (false means the lane needs a full re-evaluation).
func (b *Batch) Throughput(i int) (float64, bool) {
	if !b.ok[i] {
		return 0, false
	}
	return b.rho[i], true
}

// Loads returns lane i's normalised loads by send position (a view into
// the batch's buffers, valid until the next Run/Reset) and whether the
// lane certified.
func (b *Batch) Loads(i int) ([]float64, bool) {
	if !b.ok[i] {
		return nil, false
	}
	return b.loads[i*b.q : (i+1)*b.q], true
}

// Scenario reconstructs lane i's scenario (the LIFO return order is
// allocated on each call).
func (b *Batch) Scenario(i int) Scenario {
	send := platform.Order(b.sends[i*b.q : (i+1)*b.q])
	ret := send
	if b.lifo {
		ret = send.Reverse()
	}
	return Scenario{Platform: b.plats[i], Send: send, Return: ret, Model: b.model}
}

// Schedule builds the verified schedule of a certified lane, applying the
// same degenerate-optimum canonicalisation as Session.Evaluate so batch
// results are indistinguishable from individually evaluated ones. It
// reports an error for uncertified lanes.
func (b *Batch) Schedule(i int) (*schedule.Schedule, error) {
	alpha, ok := b.Loads(i)
	if !ok {
		return nil, fmt.Errorf("eval: batch lane %d did not certify; evaluate it through the full pipeline", i)
	}
	sc := b.Scenario(i)
	s := GetSession()
	defer s.Release()
	return buildSchedule(sc, s.canonicalLoads(sc, alpha))
}
