package schedule

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

// twoWorkerPlatform: P1 (c=0.1, w=0.2, d=0.05), P2 (c=0.2, w=0.1, d=0.1).
func twoWorkerPlatform() *platform.Platform {
	return platform.New(
		platform.Worker{C: 0.1, W: 0.2, D: 0.05},
		platform.Worker{C: 0.2, W: 0.1, D: 0.1},
	)
}

// feasibleFIFO builds a small hand-checked FIFO schedule on the two-worker
// platform: α = (1, 1), T = 1.
//
//	sends: P1 [0, 0.1], P2 [0.1, 0.3]
//	compute: P1 [0.1, 0.3], P2 [0.3, 0.4]
//	returns (ALAP, ending at 1): P1 [0.85, 0.9], P2 [0.9, 1.0]
//	idle: x1 = 0.55, x2 = 0.5 — all constraints met.
func feasibleFIFO() *Schedule {
	return &Schedule{
		SendOrder:   platform.Order{0, 1},
		ReturnOrder: platform.Order{0, 1},
		Alpha:       []float64{1, 1},
		T:           1,
	}
}

func TestTimelineDerivation(t *testing.T) {
	p := twoWorkerPlatform()
	s := feasibleFIFO()
	tl := s.Timeline(p)
	if len(tl) != 2 {
		t.Fatalf("timeline has %d entries", len(tl))
	}
	want := []WorkerTimeline{
		{Worker: 0, SendStart: 0, SendEnd: 0.1, CompEnd: 0.3, Idle: 0.55, ReturnStart: 0.85, ReturnEnd: 0.9},
		{Worker: 1, SendStart: 0.1, SendEnd: 0.3, CompEnd: 0.4, Idle: 0.5, ReturnStart: 0.9, ReturnEnd: 1.0},
	}
	for k, w := range want {
		got := tl[k]
		for _, c := range []struct {
			name     string
			got, exp float64
		}{
			{"SendStart", got.SendStart, w.SendStart},
			{"SendEnd", got.SendEnd, w.SendEnd},
			{"CompEnd", got.CompEnd, w.CompEnd},
			{"Idle", got.Idle, w.Idle},
			{"ReturnStart", got.ReturnStart, w.ReturnStart},
			{"ReturnEnd", got.ReturnEnd, w.ReturnEnd},
		} {
			if math.Abs(c.got-c.exp) > 1e-12 {
				t.Errorf("worker %d %s = %g, want %g", k, c.name, c.got, c.exp)
			}
		}
	}
}

func TestCheckAcceptsFeasible(t *testing.T) {
	p := twoWorkerPlatform()
	s := feasibleFIFO()
	if err := s.Check(p, OnePort); err != nil {
		t.Errorf("one-port check failed: %v", err)
	}
	if err := s.Check(p, TwoPort); err != nil {
		t.Errorf("two-port check failed: %v", err)
	}
}

func TestCheckRejectsOnePortOverlap(t *testing.T) {
	// Near-zero compute so per-worker constraints hold, but the return
	// block [0.4, 1] overlaps the send block [0, 0.6]:
	//   sends: P1 [0, 0.3], P2 [0.3, 0.6]
	//   returns (ALAP): P1 [0.4, 0.7] — overlaps P2's send — P2 [0.7, 1].
	p := platform.New(
		platform.Worker{C: 0.3, W: 0.01, D: 0.3},
		platform.Worker{C: 0.3, W: 0.01, D: 0.3},
	)
	s := &Schedule{
		SendOrder:   platform.Order{0, 1},
		ReturnOrder: platform.Order{0, 1},
		Alpha:       []float64{1, 1},
		T:           1,
	}
	err := s.Check(p, OnePort)
	if err == nil {
		t.Fatal("one-port check must reject overlapping master transfers")
	}
	if !strings.Contains(err.Error(), "master port conflict") {
		t.Errorf("unexpected error: %v", err)
	}
	// The same schedule is valid under the two-port model.
	if err := s.Check(p, TwoPort); err != nil {
		t.Errorf("two-port check must accept it: %v", err)
	}
}

func TestCheckRejectsNegativeIdle(t *testing.T) {
	// One worker with compute longer than the horizon leaves negative idle.
	p := platform.New(platform.Worker{C: 0.1, W: 2, D: 0.05})
	s := &Schedule{
		SendOrder:   platform.Order{0},
		ReturnOrder: platform.Order{0},
		Alpha:       []float64{1},
		T:           1,
	}
	err := s.Check(p, OnePort)
	if err == nil || !strings.Contains(err.Error(), "before computation ends") {
		t.Errorf("want negative-idle violation, got %v", err)
	}
}

func TestCheckStructuralErrors(t *testing.T) {
	p := twoWorkerPlatform()
	base := feasibleFIFO()

	cases := []struct {
		name   string
		mutate func(*Schedule)
		want   string
	}{
		{"alpha length", func(s *Schedule) { s.Alpha = []float64{1} }, "entries for"},
		{"negative alpha", func(s *Schedule) { s.Alpha[0] = -1 }, ">= 0"},
		{"nan alpha", func(s *Schedule) { s.Alpha[0] = math.NaN() }, "finite"},
		{"bad T", func(s *Schedule) { s.T = 0 }, "horizon"},
		{"dup send", func(s *Schedule) { s.SendOrder = platform.Order{0, 0} }, "twice in send"},
		{"dup return", func(s *Schedule) { s.ReturnOrder = platform.Order{1, 1} }, "twice in return"},
		{"out of range", func(s *Schedule) { s.SendOrder = platform.Order{0, 7} }, "outside platform"},
		{"set mismatch", func(s *Schedule) {
			s.SendOrder = platform.Order{0}
			s.ReturnOrder = platform.Order{1}
		}, "not in return order"},
		{"loaded but not enrolled", func(s *Schedule) {
			s.SendOrder = platform.Order{0}
			s.ReturnOrder = platform.Order{0}
		}, "not enrolled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base.Clone()
			tc.mutate(s)
			err := s.Check(p, OnePort)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	// Workers 3 and 2 are sent to but never heard back from: the message
	// names the first of them in send order, on every call.
	t.Run("two missing from return", func(t *testing.T) {
		p := platform.NewBus(0.1, 0.05, 0.2, 0.2, 0.2, 0.2, 0.2)
		s := &Schedule{
			SendOrder:   platform.Order{3, 0, 2},
			ReturnOrder: platform.Order{0, 1, 4},
			Alpha:       []float64{1, 0, 1, 1, 0},
			T:           10,
		}
		const want = "schedule: worker 3 in send order but not in return order"
		for range 20 {
			if err := s.Check(p, OnePort); err == nil || err.Error() != want {
				t.Fatalf("want %q, got %v", want, err)
			}
		}
	})
}

func TestCheckUnknownModel(t *testing.T) {
	p := twoWorkerPlatform()
	if err := feasibleFIFO().Check(p, Model(9)); err == nil {
		t.Error("unknown model must be rejected")
	}
	if Model(9).String() == "" || OnePort.String() != "one-port" || TwoPort.String() != "two-port" {
		t.Error("Model.String mismatch")
	}
}

func TestTwoPortAcceptsSendReturnOverlap(t *testing.T) {
	// A schedule where sends overlap returns in time is fine under
	// two-port but not one-port. P1 heavy send, P2's return early.
	p := platform.New(
		platform.Worker{C: 0.4, W: 0.1, D: 0.2},
		platform.Worker{C: 0.1, W: 0.1, D: 0.4},
	)
	s := &Schedule{
		SendOrder:   platform.Order{1, 0},
		ReturnOrder: platform.Order{1, 0},
		Alpha:       []float64{1, 1},
		T:           1,
	}
	// sends: P2 [0,0.1], P1 [0.1,0.5]; returns ALAP: total 0.6 → start 0.4:
	// P2 [0.4,0.8], P1 [0.8,1]. P2 return [0.4,0.8] overlaps P1 send
	// [0.1,0.5].
	if err := s.Check(p, OnePort); err == nil {
		t.Error("one-port must reject send/return overlap")
	}
	if err := s.Check(p, TwoPort); err != nil {
		t.Errorf("two-port must accept send/return overlap: %v", err)
	}
}

func TestThroughputAndParticipants(t *testing.T) {
	s := feasibleFIFO()
	if got := s.TotalLoad(); got != 2 {
		t.Errorf("TotalLoad = %g", got)
	}
	if got := s.Throughput(); got != 2 {
		t.Errorf("Throughput = %g", got)
	}
	s.Alpha[0] = 0
	parts := s.Participants()
	if len(parts) != 1 || parts[0] != 1 {
		t.Errorf("Participants = %v, want [1]", parts)
	}
}

func TestFIFOLIFOPredicates(t *testing.T) {
	fifo := feasibleFIFO()
	if !fifo.IsFIFO() || fifo.IsLIFO() && len(fifo.SendOrder) > 1 {
		t.Error("feasibleFIFO must be FIFO and not LIFO")
	}
	lifo := &Schedule{
		SendOrder:   platform.Order{0, 1},
		ReturnOrder: platform.Order{1, 0},
		Alpha:       []float64{1, 1},
		T:           1,
	}
	if lifo.IsFIFO() || !lifo.IsLIFO() {
		t.Error("reverse-order schedule must be LIFO")
	}
	// Mismatched lengths.
	bad := &Schedule{SendOrder: platform.Order{0, 1}, ReturnOrder: platform.Order{0}}
	if bad.IsFIFO() || bad.IsLIFO() {
		t.Error("length-mismatched orders are neither FIFO nor LIFO")
	}
	// Single worker: both.
	one := &Schedule{SendOrder: platform.Order{0}, ReturnOrder: platform.Order{0}}
	if !one.IsFIFO() || !one.IsLIFO() {
		t.Error("single-worker schedule is both FIFO and LIFO")
	}
}

func TestScaledToLoad(t *testing.T) {
	p := twoWorkerPlatform()
	s := feasibleFIFO() // total load 2, T = 1
	big := s.ScaledToLoad(1000)
	if math.Abs(big.TotalLoad()-1000) > 1e-9 {
		t.Errorf("TotalLoad = %g, want 1000", big.TotalLoad())
	}
	if math.Abs(big.T-500) > 1e-9 {
		t.Errorf("T = %g, want 500", big.T)
	}
	// Scaling preserves feasibility (linearity).
	if err := big.Check(p, OnePort); err != nil {
		t.Errorf("scaled schedule infeasible: %v", err)
	}
	// Throughput invariant under scaling.
	if math.Abs(big.Throughput()-s.Throughput()) > 1e-9 {
		t.Errorf("throughput changed: %g → %g", s.Throughput(), big.Throughput())
	}
	defer func() {
		if recover() == nil {
			t.Error("scaling an empty schedule must panic")
		}
	}()
	(&Schedule{Alpha: []float64{0}, T: 1}).ScaledToLoad(10)
}

// flipped returns the time-reversed schedule: sends become returns and
// vice versa. It is the image of Section 3's mirror argument: a feasible
// schedule for p with horizon T flips into a feasible schedule for
// mirror(p) with the same loads, where the new σ1 is the old σ2 reversed
// and the new σ2 is the old σ1 reversed.
func flipped(s *Schedule) *Schedule {
	return &Schedule{
		SendOrder:   s.ReturnOrder.Reverse(),
		ReturnOrder: s.SendOrder.Reverse(),
		Alpha:       append([]float64(nil), s.Alpha...),
		T:           s.T,
	}
}

// mirror returns p with forward and return costs swapped (c ↔ d).
func mirror(p *platform.Platform) *platform.Platform {
	m := p.Clone()
	for i := range m.Workers {
		m.Workers[i].C, m.Workers[i].D = m.Workers[i].D, m.Workers[i].C
	}
	return m
}

func TestFlippedFeasibleOnMirror(t *testing.T) {
	// Time reversal: a feasible one-port schedule flips into a feasible
	// one-port schedule on the mirrored platform (c ↔ d).
	p := twoWorkerPlatform()
	s := feasibleFIFO()
	f := flipped(s)
	if err := f.Check(mirror(p), OnePort); err != nil {
		t.Errorf("flipped schedule infeasible on mirror: %v", err)
	}
	if math.Abs(f.Throughput()-s.Throughput()) > 1e-12 {
		t.Error("flip must preserve throughput")
	}
	// Flip twice = identity on orders.
	ff := flipped(f)
	for i := range s.SendOrder {
		if ff.SendOrder[i] != s.SendOrder[i] || ff.ReturnOrder[i] != s.ReturnOrder[i] {
			t.Error("double flip must restore orders")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := feasibleFIFO()
	c := s.Clone()
	c.Alpha[0] = 42
	c.SendOrder[0] = 1
	if s.Alpha[0] == 42 || s.SendOrder[0] == 1 {
		t.Error("Clone aliases the original")
	}
}

func TestStringRendering(t *testing.T) {
	s := feasibleFIFO()
	out := s.String()
	for _, want := range []string{"T=1", "σ1=", "σ2=", "α=["} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}
}

// TestQuickFlipInvariant: for random feasible schedules, flipping onto the
// mirror platform preserves feasibility and throughput. Schedules are
// generated conservatively (tiny loads) so they are always feasible.
func TestQuickFlipInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		ws := make([]platform.Worker, n)
		for i := range ws {
			ws[i] = platform.Worker{
				C: 0.01 + rng.Float64()*0.05,
				W: 0.01 + rng.Float64()*0.2,
				D: 0.01 + rng.Float64()*0.05,
			}
		}
		p := platform.New(ws...)
		perm := rng.Perm(n)
		s := &Schedule{
			SendOrder:   platform.Order(perm),
			ReturnOrder: platform.Order(rng.Perm(n)),
			Alpha:       make([]float64, n),
			T:           1,
		}
		for i := range s.Alpha {
			s.Alpha[i] = rng.Float64() // small enough on this platform
		}
		if err := s.Check(p, OnePort); err != nil {
			// Not all random combinations are feasible; skip those.
			return true
		}
		fl := flipped(s)
		if err := fl.Check(mirror(p), OnePort); err != nil {
			t.Logf("flip broke feasibility: %v", err)
			return false
		}
		return math.Abs(fl.Throughput()-s.Throughput()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickTimelineConsistency: derived timelines always satisfy basic
// accounting identities regardless of feasibility.
func TestQuickTimelineConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		ws := make([]platform.Worker, n)
		for i := range ws {
			ws[i] = platform.Worker{C: 0.1 + rng.Float64(), W: 0.1 + rng.Float64(), D: 0.1 + rng.Float64()}
		}
		p := platform.New(ws...)
		s := &Schedule{
			SendOrder:   platform.Order(rng.Perm(n)),
			ReturnOrder: platform.Order(rng.Perm(n)),
			Alpha:       make([]float64, n),
			T:           1 + rng.Float64()*10,
		}
		for i := range s.Alpha {
			s.Alpha[i] = rng.Float64() * 3
		}
		tl := s.Timeline(p)
		// Sends tile [0, Σαc] in order; returns tile [T-Σαd, T].
		sumC, sumD := 0.0, 0.0
		for _, i := range s.SendOrder {
			sumC += s.Alpha[i] * p.Workers[i].C
			sumD += s.Alpha[i] * p.Workers[i].D
		}
		var lastSendEnd, lastReturnEnd float64
		for _, wt := range tl {
			w := p.Workers[wt.Worker]
			if math.Abs((wt.SendEnd-wt.SendStart)-s.Alpha[wt.Worker]*w.C) > 1e-9 {
				return false
			}
			if math.Abs((wt.ReturnEnd-wt.ReturnStart)-s.Alpha[wt.Worker]*w.D) > 1e-9 {
				return false
			}
			if math.Abs((wt.CompEnd-wt.SendEnd)-s.Alpha[wt.Worker]*w.W) > 1e-9 {
				return false
			}
			if wt.SendEnd > lastSendEnd {
				lastSendEnd = wt.SendEnd
			}
			if wt.ReturnEnd > lastReturnEnd {
				lastReturnEnd = wt.ReturnEnd
			}
		}
		return math.Abs(lastSendEnd-sumC) < 1e-9 && math.Abs(lastReturnEnd-s.T) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTimeline(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	ws := make([]platform.Worker, n)
	for i := range ws {
		ws[i] = platform.Worker{C: 0.1 + rng.Float64(), W: rng.Float64(), D: rng.Float64()}
	}
	p := platform.New(ws...)
	s := &Schedule{
		SendOrder:   platform.Order(rng.Perm(n)),
		ReturnOrder: platform.Order(rng.Perm(n)),
		Alpha:       make([]float64, n),
		T:           100,
	}
	for i := range s.Alpha {
		s.Alpha[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Timeline(p)
	}
}

func BenchmarkCheckOnePort(b *testing.B) {
	p := twoWorkerPlatform()
	s := feasibleFIFO()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Check(p, OnePort); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := feasibleFIFO()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.T != s.T || len(back.Alpha) != len(s.Alpha) {
		t.Fatalf("round trip changed schedule: %+v", back)
	}
	for i := range s.Alpha {
		if back.Alpha[i] != s.Alpha[i] {
			t.Errorf("alpha[%d] changed", i)
		}
	}
	for i := range s.SendOrder {
		if back.SendOrder[i] != s.SendOrder[i] || back.ReturnOrder[i] != s.ReturnOrder[i] {
			t.Errorf("orders changed")
		}
	}
	// The deserialized schedule still checks out.
	if err := back.Check(twoWorkerPlatform(), OnePort); err != nil {
		t.Errorf("deserialized schedule infeasible: %v", err)
	}
}

// feasibleChain builds a FIFO schedule on n random workers with unit
// loads and a horizon long enough for every send, computation and
// return to run in sequence, so it is valid under both models.
func feasibleChain(n int) (*platform.Platform, *Schedule) {
	rng := rand.New(rand.NewSource(int64(n)))
	ws := make([]platform.Worker, n)
	s := &Schedule{SendOrder: platform.Identity(n), ReturnOrder: platform.Identity(n), Alpha: make([]float64, n)}
	for i := range ws {
		ws[i] = platform.Worker{C: 0.05 + rng.Float64(), W: 0.05 + rng.Float64(), D: 0.05 + rng.Float64()}
		s.Alpha[i] = 1
		s.T += ws[i].C + ws[i].W + ws[i].D
	}
	return platform.New(ws...), s
}

func TestCheckAllocs(t *testing.T) {
	p, s := feasibleChain(12)
	for _, m := range []Model{OnePort, TwoPort} {
		if err := s.Check(p, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.Check(p, m) }); n != 0 {
			t.Errorf("%v: Check allocated %v times per valid p = 12 schedule", m, n)
		}
	}
}

// checkOracle is the map-based checker Check replaced, kept verbatim
// (with its own timeline) as the reference FuzzCheckAgreement compares
// against. Its "not in return order" message names whichever missing
// worker map iteration reaches first.
func checkOracle(s *Schedule, p *platform.Platform, model Model) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(s.Alpha) != p.P() {
		return fmt.Errorf("schedule: Alpha has %d entries for %d workers", len(s.Alpha), p.P())
	}
	if s.T <= 0 || math.IsNaN(s.T) || math.IsInf(s.T, 0) {
		return fmt.Errorf("schedule: horizon T = %g must be positive and finite", s.T)
	}
	for i, a := range s.Alpha {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("schedule: alpha[%d] = %g must be finite and >= 0", i, a)
		}
	}
	// Orders: valid subsets, same set.
	inSend := make(map[int]bool, len(s.SendOrder))
	for _, i := range s.SendOrder {
		if i < 0 || i >= p.P() {
			return fmt.Errorf("schedule: send order references worker %d outside platform", i)
		}
		if inSend[i] {
			return fmt.Errorf("schedule: worker %d appears twice in send order", i)
		}
		inSend[i] = true
	}
	inReturn := make(map[int]bool, len(s.ReturnOrder))
	for _, i := range s.ReturnOrder {
		if i < 0 || i >= p.P() {
			return fmt.Errorf("schedule: return order references worker %d outside platform", i)
		}
		if inReturn[i] {
			return fmt.Errorf("schedule: worker %d appears twice in return order", i)
		}
		inReturn[i] = true
	}
	if len(inSend) != len(inReturn) {
		return fmt.Errorf("schedule: send order has %d workers, return order %d", len(inSend), len(inReturn))
	}
	for i := range inSend {
		if !inReturn[i] {
			return fmt.Errorf("schedule: worker %d in send order but not in return order", i)
		}
	}
	for i, a := range s.Alpha {
		if a > 0 && !inSend[i] {
			return fmt.Errorf("schedule: worker %d has load %g but is not enrolled in the orders", i, a)
		}
	}

	tl := timelineOracle(s, p)
	for _, wt := range tl {
		w := p.Workers[wt.Worker]
		name := w.Name
		if !leq(0, wt.SendStart, s.T) {
			return fmt.Errorf("schedule: %s send starts at %g < 0", name, wt.SendStart)
		}
		if !leq(wt.CompEnd, wt.ReturnStart, s.T) {
			return fmt.Errorf("schedule: %s return starts at %g before computation ends at %g (idle %g < 0)",
				name, wt.ReturnStart, wt.CompEnd, wt.Idle)
		}
		if !leq(wt.ReturnEnd, s.T, s.T) {
			return fmt.Errorf("schedule: %s return ends at %g after horizon %g", name, wt.ReturnEnd, s.T)
		}
	}

	// Master-port constraints via interval disjointness.
	type interval struct {
		start, end float64
		kind       string
		worker     int
	}
	var sends, returns []interval
	for _, wt := range tl {
		if wt.SendEnd > wt.SendStart {
			sends = append(sends, interval{wt.SendStart, wt.SendEnd, "send", wt.Worker})
		}
		if wt.ReturnEnd > wt.ReturnStart {
			returns = append(returns, interval{wt.ReturnStart, wt.ReturnEnd, "return", wt.Worker})
		}
	}
	overlap := func(a, b interval) bool {
		return a.start < b.end-relTol*(1+s.T) && b.start < a.end-relTol*(1+s.T)
	}
	checkDisjoint := func(xs []interval) error {
		for i := 0; i < len(xs); i++ {
			for j := i + 1; j < len(xs); j++ {
				if overlap(xs[i], xs[j]) {
					return fmt.Errorf("schedule: master port conflict: %s to/from worker %d [%g,%g] overlaps %s of worker %d [%g,%g]",
						xs[i].kind, xs[i].worker, xs[i].start, xs[i].end,
						xs[j].kind, xs[j].worker, xs[j].start, xs[j].end)
				}
			}
		}
		return nil
	}
	switch model {
	case OnePort:
		all := append(append([]interval(nil), sends...), returns...)
		if err := checkDisjoint(all); err != nil {
			return err
		}
	case TwoPort:
		if err := checkDisjoint(sends); err != nil {
			return err
		}
		if err := checkDisjoint(returns); err != nil {
			return err
		}
	default:
		return fmt.Errorf("schedule: unknown model %v", model)
	}
	return nil
}

// timelineOracle is the map-based timeline checkOracle derives its
// event dates with.
func timelineOracle(s *Schedule, p *platform.Platform) []WorkerTimeline {
	tl := make([]WorkerTimeline, len(s.SendOrder))
	// Forward communications, back-to-back from t = 0.
	t := 0.0
	pos := make(map[int]int, len(s.SendOrder)) // worker -> position in tl
	for k, i := range s.SendOrder {
		w := p.Workers[i]
		dur := s.Alpha[i] * w.C
		tl[k] = WorkerTimeline{Worker: i, SendStart: t, SendEnd: t + dur}
		tl[k].CompEnd = tl[k].SendEnd + s.Alpha[i]*w.W
		t += dur
		pos[i] = k
	}
	// Return communications, back-to-back ending at t = T.
	total := 0.0
	for _, i := range s.ReturnOrder {
		total += s.Alpha[i] * p.Workers[i].D
	}
	t = s.T - total
	for _, i := range s.ReturnOrder {
		k := pos[i]
		dur := s.Alpha[i] * p.Workers[i].D
		tl[k].ReturnStart = t
		tl[k].ReturnEnd = t + dur
		tl[k].Idle = tl[k].ReturnStart - tl[k].CompEnd
		t += dur
	}
	return tl
}

// fuzzSchedule decodes one FuzzCheckAgreement input.
//
//   - n % 81 is the worker count (0 fails validation); costs come from
//     seed. mode bits 0-1 pick the model (2 and 3 are unknown), bit 2
//     makes worker 0's W zero, bit 3 drops one Alpha entry, and bits 4-5
//     shape σ2: decoded from ret (0, 3), σ2 = σ1 (1), σ2 reversed (2).
//   - Each byte of send and ret is a worker index in [-1, p], so both
//     ends are out of range.
//   - Worker i's load comes from byte alpha[i % len(alpha)]: its low
//     nibble picks 0, -1, NaN, +Inf, -0, 1e-300, the smallest subnormal
//     or one of nine multiples of a scale its high nibble sets.
//   - tmode % 3 picks T: t itself, the tightest horizon the orders and
//     loads allow, or that horizon times 1 + t.
func fuzzSchedule(n, mode uint8, send, ret, alpha []byte, tmode uint8, t float64, seed int64) (*platform.Platform, *Schedule, Model) {
	np := int(n) % 81
	rng := rand.New(rand.NewSource(seed))
	ws := make([]platform.Worker, np)
	for i := range ws {
		ws[i] = platform.Worker{C: 0.05 + rng.Float64(), W: 0.05 + rng.Float64(), D: 0.05 + rng.Float64()}
	}
	if mode&4 != 0 && np > 0 {
		ws[0].W = 0
	}
	p := platform.New(ws...)
	order := func(bs []byte) platform.Order {
		o := make(platform.Order, len(bs))
		for k, b := range bs {
			o[k] = int(b)%(np+2) - 1
		}
		return o
	}
	s := &Schedule{SendOrder: order(send)}
	switch mode >> 4 & 3 {
	case 1:
		s.ReturnOrder = s.SendOrder.Clone()
	case 2:
		s.ReturnOrder = s.SendOrder.Reverse()
	default:
		s.ReturnOrder = order(ret)
	}
	na := np
	if mode&8 != 0 && na > 0 {
		na--
	}
	s.Alpha = make([]float64, na)
	for i := range s.Alpha {
		if len(alpha) == 0 {
			break
		}
		b := alpha[i%len(alpha)]
		switch code := b & 15; code {
		case 0:
		case 1:
			s.Alpha[i] = -1
		case 2:
			s.Alpha[i] = math.NaN()
		case 3:
			s.Alpha[i] = math.Inf(1)
		case 4:
			s.Alpha[i] = math.Copysign(0, -1)
		case 5:
			s.Alpha[i] = 1e-300
		case 6:
			s.Alpha[i] = math.SmallestNonzeroFloat64
		default:
			s.Alpha[i] = float64(code-6) * float64(b>>4+1) / 16
		}
	}
	s.T = t
	if tmode%3 != 0 {
		s.T = tightHorizon(p, s, Model(mode&3))
		if tmode%3 == 2 {
			s.T *= 1 + t
		}
	}
	return p, s, Model(mode & 3)
}

// tightHorizon is the smallest T at which every return of s starts after
// its computation ends (and, one-port, after the last send), looking
// only at in-range order entries and loads.
func tightHorizon(p *platform.Platform, s *Schedule, model Model) float64 {
	load := func(i int) (platform.Worker, float64, bool) {
		if i < 0 || i >= p.P() || i >= len(s.Alpha) {
			return platform.Worker{}, 0, false
		}
		return p.Workers[i], s.Alpha[i], true
	}
	compEnd := make(map[int]float64)
	sent := 0.0
	for _, i := range s.SendOrder {
		if w, a, ok := load(i); ok {
			sent += a * w.C
			compEnd[i] = sent + a*w.W
		}
	}
	T, suffix := 0.0, 0.0
	for k := len(s.ReturnOrder) - 1; k >= 0; k-- {
		i := s.ReturnOrder[k]
		if w, a, ok := load(i); ok {
			suffix += a * w.D
			T = math.Max(T, compEnd[i]+suffix)
		}
	}
	if model == OnePort {
		T = math.Max(T, sent+suffix)
	}
	return T
}

// FuzzCheckAgreement holds Check to checkOracle: the same verdict and
// the same message on every input, except that where several send-order
// workers are missing from the return order, Check names the first of
// them in send order.
func FuzzCheckAgreement(f *testing.F) {
	f.Add(uint8(4), uint8(0x10), []byte{1, 2, 3, 4}, []byte{}, []byte{0x17}, uint8(1), 0.0, int64(1))
	f.Add(uint8(12), uint8(0x21), []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"), []byte{}, []byte{0x28, 0x19}, uint8(2), 1e-9, int64(7))
	f.Fuzz(func(t *testing.T, n, mode uint8, send, ret, alpha []byte, tmode uint8, tv float64, seed int64) {
		p, s, model := fuzzSchedule(n, mode, send, ret, alpha, tmode, tv, seed)
		got, want := s.Check(p, model), checkOracle(s, p, model)
		if (got == nil) != (want == nil) {
			t.Fatalf("Check = %v, oracle = %v on %v", got, want, s)
		}
		if got == nil || got.Error() == want.Error() {
			return
		}
		const missing = " in send order but not in return order"
		if !strings.HasSuffix(want.Error(), missing) {
			t.Fatalf("Check = %q, oracle = %q on %v", got, want, s)
		}
		first := -1
		for _, i := range s.SendOrder {
			if !slices.Contains(s.ReturnOrder, i) {
				first = i
				break
			}
		}
		if w := fmt.Sprintf("schedule: worker %d%s", first, missing); got.Error() != w {
			t.Fatalf("Check = %q, want %q (oracle %q)", got, w, want)
		}
	})
}
