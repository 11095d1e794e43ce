package kern

import "math"

// The loops of eval.Batch, run across all Width lanes. Every product that
// feeds an addition or subtraction is wrapped in an explicit float64
// conversion: the Go spec lets the compiler contract mul+add into a fused
// multiply-add even across statements (the arm64, loong64, ppc64, riscv64
// and s390x backends do; Go 1.24's amd64 backend fuses only math.FMA, at
// every GOAMD64 level), and only an explicit conversion forces the
// intermediate rounding. Session's scalar FIFO chain (fifoTight,
// internal/eval/tight.go) rounds at the same points, so a Batch lane stays
// bitwise equal to the solo solve of its scenario on every architecture.

func refFIFOChain(q int, p, c, d, wd, invCW, sp, sc, sd []float64) {
	for l := 0; l < Width; l++ {
		p[l] = 1
		sp[l], sc[l], sd[l] = 1, c[l], d[l]
	}
	for pos := 1; pos < q; pos++ {
		row, prev := pos*Width, (pos-1)*Width
		for l := 0; l < Width; l++ {
			pk := p[prev+l] * wd[prev+l]
			pk = float64(pk * invCW[row+l])
			p[row+l] = pk
			sp[l] += pk
			sc[l] += float64(pk * c[row+l])
			sd[l] += float64(pk * d[row+l])
		}
	}
}

func refFIFODual(q int, c, dc, invWD, u, v, pu, pv []float64) {
	for l := 0; l < Width; l++ {
		pu[l], pv[l] = 0, 0
	}
	for pos := 0; pos < q; pos++ {
		row := pos * Width
		for l := 0; l < Width; l++ {
			tu := float64(dc[row+l] * pu[l])
			tu = 1 - tu
			uk := float64(tu * invWD[row+l])
			tv := float64(dc[row+l] * pv[l])
			tv = -c[row+l] - tv
			vk := float64(tv * invWD[row+l])
			u[row+l], v[row+l] = uk, vk
			pu[l] += uk
			pv[l] += vk
		}
	}
}

func refFIFOLambdaOK(q int, u, v, t []float64, tol float64) uint8 {
	var lim [Width]float64
	for l := range lim {
		lim[l] = -tol * t[l]
	}
	ok := uint8(0xff)
	for pos := 0; pos < q; pos++ {
		row := pos * Width
		for l := 0; l < Width; l++ {
			lam := float64(t[l] * v[row+l])
			lam = u[row+l] + lam
			if !(lam >= lim[l]) {
				ok &^= 1 << l
			}
		}
	}
	return ok
}

func refLIFOChain(q int, p, w, invCWD, sp []float64) {
	for l := 0; l < Width; l++ {
		p[l] = invCWD[l]
		sp[l] = p[l]
	}
	for pos := 1; pos < q; pos++ {
		row, prev := pos*Width, (pos-1)*Width
		for l := 0; l < Width; l++ {
			pk := p[prev+l] * w[prev+l]
			pk = float64(pk * invCWD[row+l])
			p[row+l] = pk
			sp[l] += pk
		}
	}
}

func refLIFODualOK(q int, g, invCWD, pu []float64, tol float64) uint8 {
	var least [Width]float64
	for l := 0; l < Width; l++ {
		pu[l] = 0
		least[l] = math.Inf(1)
	}
	for pos := q - 1; pos >= 0; pos-- {
		row := pos * Width
		for l := 0; l < Width; l++ {
			lam := float64(g[row+l] * pu[l])
			lam = 1 - lam
			lam = float64(lam * invCWD[row+l])
			pu[l] += lam
			least[l] = min(least[l], lam)
		}
	}
	// A NaN multiplier leaves the sum NaN, which fails the comparison.
	ok := uint8(0xff)
	for l := 0; l < Width; l++ {
		if !(least[l] >= -tol*pu[l]) {
			ok &^= 1 << l
		}
	}
	return ok
}
