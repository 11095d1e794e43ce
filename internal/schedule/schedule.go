// Package schedule represents one-round divisible-load schedules on star
// platforms and verifies their feasibility under the one-port and two-port
// communication models.
//
// Following Section 2.2 of RR-5738, a schedule is canonically described by
// a send permutation σ1, a return permutation σ2, the per-worker loads α,
// and the horizon T. Event dates are derived, not stored: initial messages
// are sent back-to-back starting at t = 0 in σ1 order, return messages are
// received back-to-back ending at t = T in σ2 order, each worker computes
// immediately after its reception, and the slack between computation end
// and return start is the worker's idle time x_i ≥ 0.
//
// The feasibility checker re-derives all event dates and verifies every
// model constraint from scratch, so code that constructs schedules (linear
// programs, closed forms, transformations) never certifies itself.
package schedule

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/numeric"
	"repro/internal/platform"
)

// Model selects the communication model under which a schedule is checked.
type Model int

// Communication models of the paper.
const (
	// OnePort: the master is involved in at most one transfer (send or
	// receive) at any instant.
	OnePort Model = iota
	// TwoPort: the master may send to one worker and simultaneously receive
	// from another worker.
	TwoPort
)

// String names the model.
func (m Model) String() string {
	switch m {
	case OnePort:
		return "one-port"
	case TwoPort:
		return "two-port"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Schedule is a one-round divisible-load schedule in canonical form. Alpha
// is indexed by worker index of the underlying platform and covers all
// workers (zero for the non-enrolled). SendOrder and ReturnOrder list the
// enrolled workers — those traversed by the master's communication
// sequence; they must contain the same set of indices.
type Schedule struct {
	// SendOrder is σ1: the order in which the master sends initial data.
	SendOrder platform.Order
	// ReturnOrder is σ2: the order in which the master receives results.
	ReturnOrder platform.Order
	// Alpha[i] is the load (in divisible load units) assigned to worker i.
	Alpha []float64
	// T is the schedule horizon. The paper normalises T = 1 when maximising
	// throughput; scaled schedules (see ScaledToLoad) carry their real
	// makespan here.
	T float64
}

// Throughput returns the number of load units processed per unit time,
// ρ = Σα / T.
func (s *Schedule) Throughput() float64 {
	return s.TotalLoad() / s.T
}

// TotalLoad returns Σα.
func (s *Schedule) TotalLoad() float64 {
	sum := 0.0
	for _, a := range s.Alpha {
		sum += a
	}
	return sum
}

// Participants returns the worker indices with strictly positive load, in
// send order.
func (s *Schedule) Participants() []int {
	var out []int
	for _, i := range s.SendOrder {
		if s.Alpha[i] > 0 {
			out = append(out, i)
		}
	}
	return out
}

// IsFIFO reports whether σ2 equals σ1.
func (s *Schedule) IsFIFO() bool {
	if len(s.SendOrder) != len(s.ReturnOrder) {
		return false
	}
	for i := range s.SendOrder {
		if s.SendOrder[i] != s.ReturnOrder[i] {
			return false
		}
	}
	return true
}

// IsLIFO reports whether σ2 is the reverse of σ1.
func (s *Schedule) IsLIFO() bool {
	n := len(s.SendOrder)
	if n != len(s.ReturnOrder) {
		return false
	}
	for i := range s.SendOrder {
		if s.SendOrder[i] != s.ReturnOrder[n-1-i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		SendOrder:   s.SendOrder.Clone(),
		ReturnOrder: s.ReturnOrder.Clone(),
		Alpha:       append([]float64(nil), s.Alpha...),
		T:           s.T,
	}
}

// ScaledToLoad returns a copy of the schedule rescaled so that the total
// load equals total (in absolute load units). By linearity of the cost
// model this preserves feasibility; the new horizon is total/ρ.
func (s *Schedule) ScaledToLoad(total float64) *Schedule {
	cur := s.TotalLoad()
	if cur <= 0 {
		panic("schedule: cannot scale a schedule with zero total load")
	}
	f := total / cur
	out := s.Clone()
	for i := range out.Alpha {
		out.Alpha[i] *= f
	}
	out.T *= f
	return out
}

// WorkerTimeline holds the derived event dates of one enrolled worker.
type WorkerTimeline struct {
	Worker      int     // worker index into the platform
	SendStart   float64 // master starts sending input data
	SendEnd     float64 // worker has all input data; computation starts
	CompEnd     float64 // computation finishes
	Idle        float64 // x_i: wait between computation end and return start
	ReturnStart float64 // worker starts sending results
	ReturnEnd   float64 // master has all results
}

// Timeline derives the event dates of the schedule on platform p, in send
// order. It does not check feasibility; negative idle times and overlapping
// master communications are surfaced by Check.
func (s *Schedule) Timeline(p *platform.Platform) []WorkerTimeline {
	tl := make([]WorkerTimeline, len(s.SendOrder))
	s.timeline(p, tl, make([]int, p.P()))
	return tl
}

// timeline writes the event dates into tl (one entry per send position),
// using pos (one zeroed entry per platform worker) as the worker →
// position index. A worker of the return order missing from the send
// order reads position 0, as a map lookup would.
func (s *Schedule) timeline(p *platform.Platform, tl []WorkerTimeline, pos []int) {
	// Forward communications, back-to-back from t = 0.
	t := 0.0
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
}

// String renders the schedule compactly.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule T=%.6g ρ=%.6g σ1=%v σ2=%v α=[", s.T, s.Throughput(), s.SendOrder, s.ReturnOrder)
	for i, a := range s.Alpha {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.6g", a)
	}
	b.WriteString("]")
	return b.String()
}

// relTol is the relative tolerance used by the feasibility checker;
// schedules typically come out of float64 linear programming. See
// internal/numeric for how it relates to the solver tolerances.
const relTol = numeric.CheckTol

func leq(a, b, scale float64) bool { return a <= b+relTol*(1+math.Abs(scale)) }

// Check verifies that the schedule is feasible on platform p under the
// given model. It returns nil if every constraint holds (within a relative
// tolerance) and a descriptive error for the first violation found. It
// allocates nothing for a valid schedule on a platform of at most 32
// workers (its scratch lives on the stack); only an error message, or a
// larger platform, reaches the heap.
//
// Checked constraints:
//   - structural: orders are permutations of the same enrolled set, every
//     positive-load worker is enrolled, loads are non-negative and finite;
//   - per worker: computation starts after reception, the return message
//     starts after computation ends (idle ≥ 0), all events fit in [0, T];
//   - master port: under OnePort all transfer intervals (sends and returns)
//     are pairwise disjoint; under TwoPort sends are pairwise disjoint and
//     returns are pairwise disjoint.
func (s *Schedule) Check(p *platform.Platform, model Model) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.P()
	if len(s.Alpha) != n {
		return fmt.Errorf("schedule: Alpha has %d entries for %d workers", len(s.Alpha), n)
	}
	if s.T <= 0 || math.IsNaN(s.T) || math.IsInf(s.T, 0) {
		return fmt.Errorf("schedule: horizon T = %g must be positive and finite", s.T)
	}
	for i, a := range s.Alpha {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("schedule: alpha[%d] = %g must be finite and >= 0", i, a)
		}
	}
	// Orders: valid subsets, same set. seen[i] holds worker i's
	// membership bits.
	const inSend, inReturn = 1, 2
	var seenArr [64]uint8
	seen := scratch(seenArr[:], n)
	for _, i := range s.SendOrder {
		if i < 0 || i >= n {
			return fmt.Errorf("schedule: send order references worker %d outside platform", i)
		}
		if seen[i]&inSend != 0 {
			return fmt.Errorf("schedule: worker %d appears twice in send order", i)
		}
		seen[i] |= inSend
	}
	for _, i := range s.ReturnOrder {
		if i < 0 || i >= n {
			return fmt.Errorf("schedule: return order references worker %d outside platform", i)
		}
		if seen[i]&inReturn != 0 {
			return fmt.Errorf("schedule: worker %d appears twice in return order", i)
		}
		seen[i] |= inReturn
	}
	// Neither order repeats a worker, so their lengths count the sets.
	if len(s.SendOrder) != len(s.ReturnOrder) {
		return fmt.Errorf("schedule: send order has %d workers, return order %d", len(s.SendOrder), len(s.ReturnOrder))
	}
	for _, i := range s.SendOrder {
		if seen[i]&inReturn == 0 {
			return fmt.Errorf("schedule: worker %d in send order but not in return order", i)
		}
	}
	for i, a := range s.Alpha {
		if a > 0 && seen[i]&inSend == 0 {
			return fmt.Errorf("schedule: worker %d has load %g but is not enrolled in the orders", i, a)
		}
	}

	var tlArr [32]WorkerTimeline
	var posArr [32]int
	tl := scratch(tlArr[:], len(s.SendOrder))
	s.timeline(p, tl, scratch(posArr[:], n))
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

	// Master-port constraints via interval disjointness: the sends, then
	// the returns, in send order.
	var ivArr [64]interval
	iv := scratch(ivArr[:], 2*len(tl))[:0]
	for _, wt := range tl {
		if wt.SendEnd > wt.SendStart {
			iv = append(iv, interval{wt.SendStart, wt.SendEnd, wt.Worker, false})
		}
	}
	sends := len(iv)
	for _, wt := range tl {
		if wt.ReturnEnd > wt.ReturnStart {
			iv = append(iv, interval{wt.ReturnStart, wt.ReturnEnd, wt.Worker, true})
		}
	}
	tol := relTol * (1 + s.T)
	switch model {
	case OnePort:
		return disjoint(iv, tol)
	case TwoPort:
		if err := disjoint(iv[:sends], tol); err != nil {
			return err
		}
		return disjoint(iv[sends:], tol)
	}
	return fmt.Errorf("schedule: unknown model %v", model)
}

// scratch returns buf[:n] when n fits in buf, else a fresh slice. Check
// passes freshly declared (zeroed) arrays as buf, so both are zeroed.
func scratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// interval is one master transfer: a send, or a return when ret is set.
type interval struct {
	start, end float64
	worker     int
	ret        bool
}

func (v interval) kind() string {
	if v.ret {
		return "return"
	}
	return "send"
}

// disjoint reports the first pair of xs, in (i, j > i) order, that
// overlaps by more than tol.
func disjoint(xs []interval, tol float64) error {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			a, b := xs[i], xs[j]
			if a.start < b.end-tol && b.start < a.end-tol {
				return fmt.Errorf("schedule: master port conflict: %s to/from worker %d [%g,%g] overlaps %s of worker %d [%g,%g]",
					a.kind(), a.worker, a.start, a.end,
					b.kind(), b.worker, b.start, b.end)
			}
		}
	}
	return nil
}
