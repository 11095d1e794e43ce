package kern

import "testing"

// BenchmarkChains times one lockstep chunk's worth of every kernel — the
// FIFO load chain, the FIFO dual chain and its certificate scan, the LIFO
// chain and its dual scan — at q = 16. Unlike eval's
// BenchmarkBatchChainEval, which runs whole batch evaluations and so
// dilutes the kernels with per-scenario bookkeeping, this measures only
// the loops.
func BenchmarkChains(b *testing.B) {
	const q = 16
	r := lcg(4242)
	p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
	dc, invWD, u, v := buf(q), buf(q), buf(q), buf(q)
	w, invCWD, g := buf(q), buf(q), buf(q)
	tt := buf(1)
	fillColumns(&r, q, c, d, wd, invCW, dc, invWD, w, invCWD, g)
	fillColumns(&r, 1, tt)
	sp, sc, sd, pu, pv := buf(1), buf(1), buf(1), buf(1), buf(1)
	for i := 0; i < b.N; i++ {
		FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
		FIFODual(q, c, dc, invWD, u, v, pu, pv)
		FIFOLambdaOK(q, u, v, tt, 1e-10)
		LIFOChain(q, p, w, invCWD, sp)
		LIFODualOK(q, g, invCWD, pu, 1e-10)
	}
}
