// Package kern holds the position-major, lane-minor inner loops of
// eval.Batch: the FIFO/LIFO load chains, the FIFO dual chain, and the
// certificate scans, each over one lockstep chunk of Width lanes.
//
// The loops round every product before it is added, as Session's scalar
// FIFO chain does, so dls's chain prepass answers a request bitwise as
// its solo Solve would (dls.FuzzPrepassMatchesSolve pins this). All
// kernels assume slices hold q*Width elements laid out position-major (row
// pos*Width+lane) except the Width-sized per-lane prefix buffers.
package kern

// Width is the lane count of one lockstep chunk; eval.Batch's batchWidth
// must equal it.
const Width = 8

// Variant names the kernel implementation. There is one, the pure-Go
// loops in ref.go; the name stays for reports that record it.
func Variant() string { return "purego" }

// FIFOChain runs the FIFO load chain over all Width lanes: row 0 holds
// P=1 with prefix sums seeded from that row's c and d, and each later row
// applies the closed-form factor wd[prev]*invCW[row]. On return p holds
// the unnormalised loads and sp, sc, sd the per-lane sums of P, P·c, P·d.
func FIFOChain(q int, p, c, d, wd, invCW, sp, sc, sd []float64) {
	checkRows(q, p, c, d, wd, invCW)
	checkLanes(sp, sc, sd)
	refFIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
}

// FIFODual runs the forward FIFO dual chain: u and v receive the
// (T, μ)-closure coefficients per row, pu and pv their per-lane sums.
func FIFODual(q int, c, dc, invWD, u, v, pu, pv []float64) {
	checkRows(q, c, dc, invWD, u, v)
	checkLanes(pu, pv)
	refFIFODual(q, c, dc, invWD, u, v, pu, pv)
}

// FIFOLambdaOK scans the closed dual λ = u + t·v over every row and
// returns a bitmask with bit l set iff lane l satisfied λ >= -tol at every
// position (NaN anywhere fails the lane).
func FIFOLambdaOK(q int, u, v, t []float64, tol float64) uint8 {
	checkRows(q, u, v)
	checkLanes(t)
	return refFIFOLambdaOK(q, u, v, t, tol)
}

// LIFOChain runs the lower-triangular LIFO load chain; loads land in p
// already normalised, their per-lane sum (the throughput) in sp.
func LIFOChain(q int, p, w, invCWD, sp []float64) {
	checkRows(q, p, w, invCWD)
	checkLanes(sp)
	refLIFOChain(q, p, w, invCWD, sp)
}

// LIFODualOK runs the backward LIFO dual chain, accumulating the suffix
// sum into pu (zeroed on entry), and returns a bitmask with bit l set iff
// lane l kept λ >= -tol at every position (NaN anywhere fails the lane).
func LIFODualOK(q int, g, invCWD, pu []float64, tol float64) uint8 {
	checkRows(q, g, invCWD)
	checkLanes(pu)
	return refLIFODualOK(q, g, invCWD, pu, tol)
}

func checkRows(q int, bufs ...[]float64) {
	if q < 1 {
		panic("kern: chunk must hold at least one position")
	}
	for _, b := range bufs {
		if len(b) < q*Width {
			panic("kern: row buffer shorter than q*Width")
		}
	}
}

func checkLanes(bufs ...[]float64) {
	for _, b := range bufs {
		if len(b) < Width {
			panic("kern: lane buffer shorter than Width")
		}
	}
}
