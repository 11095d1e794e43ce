package kern

import (
	"fmt"
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the golden vectors are stable
// across Go releases (unlike math/rand stream details, its output is
// pinned here by construction).
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(uint32(*r>>33)) / float64(1<<32)
}

func (r *lcg) pos(lo, hi float64) float64 { return lo + (hi-lo)*r.next() }

// fill populates q rows of per-lane columns with strictly positive costs
// in the regimes the chains see in practice.
func fillColumns(r *lcg, q int, cols ...[]float64) {
	for _, col := range cols {
		for i := 0; i < q*Width; i++ {
			col[i] = r.pos(0.01, 1.5)
		}
	}
}

func buf(q int) []float64 { return make([]float64, q*Width) }

// The lane* functions are the expected values: each runs one lane's
// recurrence as a scalar loop over the position-major columns, rounding
// every product before it is added, as the solo chain in eval does.

func laneFIFOChain(q, l int, c, d, wd, invCW []float64) (p []float64, sp, sc, sd float64) {
	p = make([]float64, q)
	p[0], sp, sc, sd = 1, 1, c[l], d[l]
	for k := 1; k < q; k++ {
		at := k*Width + l
		pk := p[k-1] * wd[at-Width]
		pk = float64(pk * invCW[at])
		p[k] = pk
		sp += pk
		sc += float64(pk * c[at])
		sd += float64(pk * d[at])
	}
	return p, sp, sc, sd
}

func laneFIFODual(q, l int, c, dc, invWD []float64) (u, v []float64, pu, pv float64) {
	u, v = make([]float64, q), make([]float64, q)
	for k := 0; k < q; k++ {
		at := k*Width + l
		u[k] = float64((1 - float64(dc[at]*pu)) * invWD[at])
		v[k] = float64((-c[at] - float64(dc[at]*pv)) * invWD[at])
		pu += u[k]
		pv += v[k]
	}
	return u, v, pu, pv
}

func laneFIFOLambdaOK(q, l int, u, v, t []float64, tol float64) bool {
	for k := 0; k < q; k++ {
		if !(u[k*Width+l]+float64(t[l]*v[k*Width+l]) >= -tol*t[l]) {
			return false
		}
	}
	return true
}

func laneLIFOChain(q, l int, w, invCWD []float64) (p []float64, sp float64) {
	p = make([]float64, q)
	p[0] = invCWD[l]
	sp = p[0]
	for k := 1; k < q; k++ {
		p[k] = float64(p[k-1]*w[(k-1)*Width+l]) * invCWD[k*Width+l]
		sp += p[k]
	}
	return p, sp
}

func laneLIFODualOK(q, l int, g, invCWD []float64, tol float64) (pu float64, ok bool) {
	lams := make([]float64, q)
	for k := q - 1; k >= 0; k-- {
		at := k*Width + l
		lams[k] = float64((1 - float64(g[at]*pu)) * invCWD[at])
		pu += lams[k]
	}
	ok = true
	for _, lam := range lams {
		if !(lam >= -tol*pu) {
			ok = false
		}
	}
	return pu, ok
}

func bitsEq(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %x (%v), want %x (%v)", what,
			math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// column reads lane l of a position-major buffer.
func column(b []float64, q, l int) []float64 {
	out := make([]float64, q)
	for k := range out {
		out[k] = b[k*Width+l]
	}
	return out
}

func colEq(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		bitsEq(t, fmt.Sprintf("%s[%d]", what, k), got[k], want[k])
	}
}

// TestGoldenFIFOChain checks the kernel on a hand-computed vector and
// then lane by lane against the scalar recurrence on random columns.
func TestGoldenFIFOChain(t *testing.T) {
	// Hand-checked q=2 vector: uniform lanes with wd[row0]=0.6 and
	// invCW[row1]=0.5 give P1 = (1*0.6)*0.5 and the sums follow by one
	// rounded multiply-and-add each (computed here from the slice values so
	// no compile-time constant folding sneaks in).
	q := 2
	p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
	sp, sc, sd := buf(1), buf(1), buf(1)
	for l := 0; l < Width; l++ {
		c[l], d[l] = 0.4, 0.8
		wd[l], invCW[Width+l] = 0.6, 0.5
		c[Width+l], d[Width+l] = 0.2, 0.1
	}
	FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
	for l := 0; l < Width; l++ {
		pk := p[0] * wd[l]
		pk = float64(pk * invCW[Width+l])
		expSp := 1 + pk
		expSc := c[l] + float64(pk*c[Width+l])
		expSd := d[l] + float64(pk*d[Width+l])
		if p[l] != 1 || p[Width+l] != pk {
			t.Fatalf("chain rows = %v, %v; want 1, %v", p[l], p[Width+l], pk)
		}
		if sp[l] != expSp || sc[l] != expSc || sd[l] != expSd {
			t.Fatalf("sums = %v %v %v; want %v %v %v", sp[l], sc[l], sd[l], expSp, expSc, expSd)
		}
	}

	for _, q := range []int{1, 2, 3, 5, 9} {
		r := lcg(uint64(q) * 977)
		p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
		fillColumns(&r, q, c, d, wd, invCW)
		sp, sc, sd := buf(1), buf(1), buf(1)
		FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
		for l := 0; l < Width; l++ {
			wantP, wantSp, wantSc, wantSd := laneFIFOChain(q, l, c, d, wd, invCW)
			colEq(t, "P", column(p, q, l), wantP)
			bitsEq(t, "sp", sp[l], wantSp)
			bitsEq(t, "sc", sc[l], wantSc)
			bitsEq(t, "sd", sd[l], wantSd)
		}
	}
}

func TestGoldenFIFODual(t *testing.T) {
	for _, q := range []int{1, 2, 4, 7, 9} {
		r := lcg(uint64(q)*31 + 7)
		c, dc, invWD := buf(q), buf(q), buf(q)
		fillColumns(&r, q, c, dc, invWD)
		u, v, pu, pv := buf(q), buf(q), buf(1), buf(1)
		FIFODual(q, c, dc, invWD, u, v, pu, pv)
		for l := 0; l < Width; l++ {
			wantU, wantV, wantPu, wantPv := laneFIFODual(q, l, c, dc, invWD)
			colEq(t, "u", column(u, q, l), wantU)
			colEq(t, "v", column(v, q, l), wantV)
			bitsEq(t, "pu", pu[l], wantPu)
			bitsEq(t, "pv", pv[l], wantPv)
		}
	}
}

// TestGoldenFIFOLambdaOK pins the comparison semantics lane by lane: λ
// exactly at -tol·t passes, one ulp below fails, NaN fails (0·Inf
// included), -Inf fails and +Inf passes, at whichever row they occur.
func TestGoldenFIFOLambdaOK(t *testing.T) {
	const tol = 1e-10
	q := 2
	u, v, tt := buf(q), buf(q), buf(1)
	for i := range u {
		u[i], v[i] = 1, 0
	}
	for l := range tt[:Width] {
		tt[l] = 1
	}
	u[0], tt[0] = -2*tol, 2               // lane 0: λ = -tol·t, passes
	u[Width+1] = math.Nextafter(-tol, -1) // lane 1: one ulp below, fails
	v[2] = math.NaN()                     // lane 2: NaN, fails
	u[Width+3] = math.Inf(-1)             // lane 3: -Inf in row 1, fails
	v[4] = math.Inf(1)                    // lane 4: +Inf, passes
	v[Width+5] = math.Inf(-1)             // lane 5: t·v = -Inf, fails
	v[6], tt[6] = math.Inf(1), 0          // lane 6: 0·Inf = NaN, fails
	u[7], v[7], tt[7] = 0.5, -0.25, 2     // lane 7: λ = 0 exactly, passes
	if got, want := FIFOLambdaOK(q, u, v, tt, tol), uint8(0b10010001); got != want {
		t.Fatalf("edge-case mask %08b, want %08b", got, want)
	}

	for _, q := range []int{1, 3, 6, 9} {
		r := lcg(uint64(q) * 1009)
		u, v, tt := buf(q), buf(q), buf(1)
		fillColumns(&r, q, u, v)
		fillColumns(&r, 1, tt)
		for i := 0; i < q*Width; i += 3 {
			u[i] = -u[i]
		}
		var want uint8
		for l := 0; l < Width; l++ {
			if laneFIFOLambdaOK(q, l, u, v, tt, tol) {
				want |= 1 << l
			}
		}
		if got := FIFOLambdaOK(q, u, v, tt, tol); got != want {
			t.Fatalf("q=%d: mask %08b, want %08b", q, got, want)
		}
	}
}

func TestGoldenLIFOChain(t *testing.T) {
	for _, q := range []int{1, 2, 5, 8, 9} {
		r := lcg(uint64(q)*577 + 3)
		p, w, invCWD := buf(q), buf(q), buf(q)
		fillColumns(&r, q, w, invCWD)
		sp := buf(1)
		LIFOChain(q, p, w, invCWD, sp)
		for l := 0; l < Width; l++ {
			wantP, wantSp := laneLIFOChain(q, l, w, invCWD)
			colEq(t, "P", column(p, q, l), wantP)
			bitsEq(t, "sp", sp[l], wantSp)
		}
	}
}

// TestGoldenLIFODualOK pins the backward scan's verdicts lane by lane on
// q = 2 (row 1 is scanned first, with an empty suffix sum), then checks
// random columns against the scalar recurrence. The edge cases use a
// power-of-two tol so the boundary lanes are exact.
func TestGoldenLIFODualOK(t *testing.T) {
	const tol = 0x1p-32
	q := 2
	g, invCWD, pu := buf(q), buf(q), buf(1)
	for i := range g {
		g[i], invCWD[i] = 1, 1
	}
	// Row 1 gives λ = invCWD[row1], 1 in every lane unless noted; row 0
	// then gives λ = (1 - g·λ_row1)·invCWD[row0], and Σλ is their sum.
	// lane 0: λ = 0, Σλ = 1, passes.
	invCWD[Width+1] = 1 + tol // lane 1: λ = -tol, Σλ = 1: λ = -tol·Σλ exactly, passes
	invCWD[Width+2] = 1 + tol // lane 2: λ = -tol·(1+2⁻⁵²), Σλ = 1: one ulp below, fails
	invCWD[2] = math.Nextafter(1, 2)
	g[3] = math.NaN()             // lane 3: NaN, fails
	g[Width+4] = math.Inf(1)      // lane 4: Inf·0 = NaN in row 1, fails
	invCWD[Width+5] = math.Inf(1) // lane 5: row 0 sees 1 - Inf, Σλ = NaN, fails
	g[6] = math.Inf(-1)           // lane 6: λ = +Inf, passes
	g[7] = 40                     // lane 7: λ = -39, fails
	if got, want := LIFODualOK(q, g, invCWD, pu, tol), uint8(0b01000011); got != want {
		t.Fatalf("edge-case mask %08b, want %08b", got, want)
	}
	bitsEq(t, "pu[0]", pu[0], 1)
	bitsEq(t, "pu[1]", pu[1], 1)
	bitsEq(t, "pu[2]", pu[2], 1)

	for _, q := range []int{1, 2, 4, 9} {
		r := lcg(uint64(q)*13 + 29)
		g, invCWD := buf(q), buf(q)
		fillColumns(&r, q, g, invCWD)
		// Large g values drive some λ negative.
		for i := Width; i < q*Width; i += 5 {
			g[i] *= 40
		}
		pu := buf(1)
		got := LIFODualOK(q, g, invCWD, pu, tol)
		var want uint8
		for l := 0; l < Width; l++ {
			wantPu, ok := laneLIFODualOK(q, l, g, invCWD, tol)
			bitsEq(t, "pu", pu[l], wantPu)
			if ok {
				want |= 1 << l
			}
		}
		if got != want {
			t.Fatalf("q=%d: mask %08b, want %08b", q, got, want)
		}
	}
}

// TestGoldenExtremes pushes the FIFO chain into gradual underflow and
// overflow and checks the regimes are reached, not just matched.
func TestGoldenExtremes(t *testing.T) {
	q := 6
	p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
	r := lcg(99)
	fillColumns(&r, q, c, d, wd, invCW)
	for pos := 0; pos < q; pos++ {
		at := pos * Width
		c[at+2], d[at+2] = 0.5, 0.25
		wd[at], invCW[at] = 1e-80, 1    // lane 0: P_k = 1e-80^k
		wd[at+1], invCW[at+1] = 1, 1e80 // lane 1: P_k = 1e80^k
		wd[at+2], invCW[at+2] = 0.5, 2  // lane 2: exact powers of two
	}
	sp, sc, sd := buf(1), buf(1), buf(1)
	FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
	for l := 0; l < Width; l++ {
		wantP, wantSp, wantSc, wantSd := laneFIFOChain(q, l, c, d, wd, invCW)
		colEq(t, "P", column(p, q, l), wantP)
		bitsEq(t, "sp", sp[l], wantSp)
		bitsEq(t, "sc", sc[l], wantSc)
		bitsEq(t, "sd", sd[l], wantSd)
	}
	if p4 := p[4*Width]; !(p4 > 0 && p4 < 0x1p-1022) {
		t.Fatalf("lane 0 row 4 = %v, want a subnormal", p4)
	}
	if p[5*Width] != 0 {
		t.Fatalf("lane 0 row 5 = %v, want underflow to 0", p[5*Width])
	}
	if p3, p4 := p[3*Width+1], p[4*Width+1]; math.IsInf(p3, 0) || !math.IsInf(p4, 1) {
		t.Fatalf("lane 1 rows 3, 4 = %v, %v; want finite then +Inf", p3, p4)
	}
	if !math.IsInf(sp[1], 1) {
		t.Fatalf("lane 1 sum = %v, want +Inf", sp[1])
	}
	for pos := 0; pos < q; pos++ {
		if p[pos*Width+2] != 1 {
			t.Fatalf("lane 2 row %d = %v, want exactly 1", pos, p[pos*Width+2])
		}
	}
	if sp[2] != 6 || sc[2] != 3 || sd[2] != 1.5 {
		t.Fatalf("lane 2 sums = %v %v %v, want 6 3 1.5", sp[2], sc[2], sd[2])
	}
}
