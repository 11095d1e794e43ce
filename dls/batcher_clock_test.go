package dls_test

// Edge-case tests for the admission-window machinery under an injected
// virtual clock (internal/sim.Clock): timer/deadline races that real
// clocks can only probe with sleeps are driven here deterministically —
// window expiry landing exactly on a request's SLO deadline, the
// zero-delay direct mode with a full queue, and Close racing an
// in-flight flush.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

func TestParseSLOClasses(t *testing.T) {
	classes, err := dls.ParseSLOClasses("tight=25ms:2,standard=250ms:1,batch=0:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []dls.SLOClass{
		{Name: "tight", Deadline: 25 * time.Millisecond, Priority: 2},
		{Name: "standard", Deadline: 250 * time.Millisecond, Priority: 1},
		{Name: "batch"},
	}
	if len(classes) != len(want) {
		t.Fatalf("got %d classes, want %d", len(classes), len(want))
	}
	for i, c := range classes {
		if c != want[i] {
			t.Errorf("class %d = %+v, want %+v", i, c, want[i])
		}
	}

	// Priority is optional.
	classes, err = dls.ParseSLOClasses("a=5ms")
	if err != nil || len(classes) != 1 || classes[0].Priority != 0 || classes[0].Deadline != 5*time.Millisecond {
		t.Errorf("priority-less spec: %+v, %v", classes, err)
	}

	for _, bad := range []string{
		"",              // empty
		"noequals",      // missing =
		"x=bogus",       // unparsable deadline
		"x=-5ms",        // negative deadline
		"x=1ms:zz",      // unparsable priority
		"a=1ms,a=2ms:1", // duplicate name
	} {
		if _, err := dls.ParseSLOClasses(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestBatcherClassResolution(t *testing.T) {
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Classes: dls.DefaultSLOClasses()})
	defer b.Close()

	if c, err := b.Class(""); err != nil || c != (dls.SLOClass{}) {
		t.Errorf(`Class("") = %+v, %v; want zero class`, c, err)
	}
	c, err := b.Class("tight")
	if err != nil || c.Deadline != 25*time.Millisecond {
		t.Errorf(`Class("tight") = %+v, %v`, c, err)
	}
	if _, err := b.Class("nope"); !errors.Is(err, dls.ErrUnknownClass) {
		t.Errorf(`Class("nope") error = %v, want ErrUnknownClass`, err)
	}
	if _, err := b.SubmitSLO(context.Background(), dls.Request{}, "nope"); !errors.Is(err, dls.ErrUnknownClass) {
		t.Errorf("SubmitSLO under unknown class = %v, want ErrUnknownClass", err)
	}
}

// TestBatcherWindowExpiryAtRequestDeadline pins the nastiest timer race:
// the window timer and the request's SLO-deadline context expire at the
// same virtual instant. The submission must come back with
// DeadlineExceeded (the deadline context was armed first) and the
// batcher must stay fully serviceable afterwards. Both drain workers are
// parked first: only a submission that finds them busy waits for the
// window timer.
func TestBatcherWindowExpiryAtRequestDeadline(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: 2 * time.Millisecond,
		MaxSize:  8,
		Clock:    clk,
		Classes:  []dls.SLOClass{{Name: "exact", Deadline: 2 * time.Millisecond, Priority: 1}},
	})
	defer b.Close()
	park, release := context.WithCancel(context.Background())
	parked := parkWorkers(t, park, solver, b, 2)
	defer func() {
		release()
		parked()
	}()

	req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO, Load: 100}
	errc := make(chan error, 1)
	go func() {
		_, err := b.SubmitSLO(context.Background(), req, "exact")
		errc <- err
	}()
	// Two timers must be pending: the deadline context (armed by Submit)
	// and the window timer (armed by the collector) — both due at +2ms.
	if !clk.WaitTimers(2, 5*time.Second) {
		t.Fatal("deadline and window timers were not both armed")
	}
	clk.Advance(2 * time.Millisecond)
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("submission at deadline = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission did not return after the shared expiry instant")
	}

	// The batcher still serves: a plain submission flushed by the next
	// window timer solves normally. It must open that next window, so
	// first let the collector flush the expired one.
	waitFor(t, "the expired window to flush", func() bool { return solver.Stats().Windows == 3 })
	resc := make(chan *dls.Result, 1)
	go func() {
		res, err := b.Submit(context.Background(), req)
		if err != nil {
			t.Errorf("follow-up Submit: %v", err)
		}
		resc <- res
	}()
	if !clk.WaitTimers(1, 5*time.Second) {
		t.Fatal("follow-up window timer was not armed")
	}
	clk.Advance(2 * time.Millisecond)
	release() // the workers drain the expired window, then solve this one
	select {
	case res := <-resc:
		if res == nil {
			t.Fatal("follow-up Submit returned no result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up Submit did not return")
	}
}

// TestBatcherDirectModeShedsAtCap covers the zero-delay window with a
// full queue: MaxDelay = 0 turns the batcher into a bounded direct
// solver, and a Submit beyond QueueCap concurrent solves must shed
// immediately with ErrOverloaded, then recover once the slot frees.
func TestBatcherDirectModeShedsAtCap(t *testing.T) {
	registerBlockingStrategy()
	solver := mustSolver(t, dls.WithParallelism(1))
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 0, QueueCap: 1, Clock: sim.NewClock()})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: "test-block"})
		blocked <- err
	}()
	waitFor(t, "first submission to occupy the direct slot", func() bool {
		return b.Stats().QueueDepth == 1
	})

	if _, err := b.Submit(context.Background(), dls.Request{Platform: testPlatform(), Strategy: "test-block"}); !errors.Is(err, dls.ErrOverloaded) {
		t.Fatalf("over-cap direct Submit = %v, want ErrOverloaded", err)
	}
	st := solver.Stats()
	if st.Shed == 0 || st.ShedByClass[""] == 0 {
		t.Errorf("shed not counted: Shed=%d ShedByClass=%v", st.Shed, st.ShedByClass)
	}

	cancel()
	if err := <-blocked; err == nil {
		t.Fatal("cancelled direct submission reported success")
	}
	waitFor(t, "the direct slot to free", func() bool {
		return b.Stats().QueueDepth == 0
	})
	res, err := b.Submit(context.Background(), dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO, Load: 100})
	if err != nil || res == nil {
		t.Fatalf("post-recovery Submit = %v, %v", res, err)
	}
}

// TestBatcherCloseDrainsInFlightFlush races Close against a window that
// has flushed but is not yet answered: Close must block until the window
// is answered (drain semantics), then return. The only drain worker is
// parked first, so the submission waits for the window timer.
func TestBatcherCloseDrainsInFlightFlush(t *testing.T) {
	registerBlockingStrategy()
	clk := sim.NewClock()
	solver := mustSolver(t, dls.WithParallelism(1))
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 4, Workers: 1, Clock: clk})

	ctx, cancel := context.WithCancel(context.Background())
	parked := parkWorkers(t, ctx, solver, b, 1)
	subErr := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: "test-block"})
		subErr <- err
	}()
	if !clk.WaitTimers(1, 5*time.Second) {
		t.Fatal("window timer was not armed")
	}
	clk.Advance(time.Millisecond)
	waitFor(t, "the window to flush", func() bool {
		return solver.Stats().Windows >= 2
	})

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a flushed window was still solving")
	case <-time.After(50 * time.Millisecond):
	}

	cancel() // release the wedged solve; Close must now drain and return
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight window completed")
	}
	if err := <-subErr; err == nil {
		t.Fatal("wedged submission reported success")
	}
	parked()
	if _, err := b.Submit(context.Background(), dls.Request{}); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("Submit after Close = %v, want ErrBatcherClosed", err)
	}
}

// TestSyncBatcherAccounting drives the synchronous (simulation) surface
// directly: Offer/ExpireWindow/Complete under a virtual clock, checking
// queue-cap shedding (with the OnShed hook seeing the owner tag), dedup
// group counting, and per-class violation accounting against the clock.
// Two windows (one per drain worker) are left uncompleted first, so the
// offers below wait for ExpireWindow instead of flushing at once.
func TestSyncBatcherAccounting(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	var windows []*dls.Window
	type shedRec struct {
		class string
		tag   any
		err   error
	}
	var sheds []shedRec
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond,
		MaxSize:  4,
		QueueCap: 4, // 2 parked + 2 offered
		Clock:    clk,
		Classes:  []dls.SLOClass{{Name: "tight", Deadline: time.Millisecond, Priority: 1}},
		OnWindow: func(w *dls.Window) { windows = append(windows, w) },
		OnShed:   func(class string, tag any, err error) { sheds = append(sheds, shedRec{class, tag, err}) },
	})

	if _, err := b.Submit(context.Background(), dls.Request{}); err == nil {
		t.Fatal("Submit on a synchronous batcher was accepted")
	}

	req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC, Load: 100}
	for i := 0; i < 2; i++ {
		if _, err := b.Offer(context.Background(), req, "", "parked"); err != nil {
			t.Fatal(err)
		}
	}
	if len(windows) != 2 {
		t.Fatalf("parking offers flushed %d windows, want 2 (one each)", len(windows))
	}
	windows = nil
	base := solver.Stats()

	p1, err := b.Offer(context.Background(), req, "tight", "a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p1.Deadline(), sim.Epoch.Add(time.Millisecond); !got.Equal(want) {
		t.Errorf("tight deadline = %v, want %v", got, want)
	}
	if dl, ok := b.WindowDeadline(); !ok || !dl.Equal(sim.Epoch.Add(time.Millisecond)) {
		t.Errorf("WindowDeadline = %v, %t", dl, ok)
	}
	if _, err := b.Offer(context.Background(), req, "", "b"); err != nil {
		t.Fatal(err)
	}
	// Third offer exceeds QueueCap: shed immediately, tag visible to OnShed.
	p3, err := b.Offer(context.Background(), req, "", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Done() || !errors.Is(p3.Err(), dls.ErrOverloaded) {
		t.Fatalf("over-cap Offer: done=%t err=%v", p3.Done(), p3.Err())
	}
	if len(sheds) != 1 || sheds[0].tag != "c" || sheds[0].class != "" {
		t.Fatalf("OnShed saw %+v", sheds)
	}

	// Expire past the tight deadline: the window still flushes and
	// completes, and the late completion is counted as a violation.
	clk.Advance(2 * time.Millisecond)
	b.ExpireWindow()
	if len(windows) != 1 {
		t.Fatalf("flushed %d windows, want 1", len(windows))
	}
	w := windows[0]
	if w.Size() != 2 || w.Groups() != 1 {
		t.Errorf("window size=%d groups=%d, want 2 identical requests in 1 group", w.Size(), w.Groups())
	}
	if w.Tag(0) != "a" || w.Class(0).Name != "tight" {
		t.Errorf("window sub 0: tag=%v class=%q", w.Tag(0), w.Class(0).Name)
	}
	if err := w.Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
	if !p1.Done() || p1.Err() != nil {
		t.Errorf("completed pending: done=%t err=%v", p1.Done(), p1.Err())
	}
	st := solver.Stats()
	if st.ViolationsByClass["tight"] != 1 {
		t.Errorf("ViolationsByClass = %v, want tight:1", st.ViolationsByClass)
	}
	if st.Windows-base.Windows != 1 || st.BatchedWindows-base.BatchedWindows != 1 || st.BatchedRequests-base.BatchedRequests != 2 {
		t.Errorf("window counters: %d/%d/%d", st.Windows-base.Windows, st.BatchedWindows-base.BatchedWindows, st.BatchedRequests-base.BatchedRequests)
	}

	// A window completed inside its deadline adds no violation.
	if _, err := b.Offer(context.Background(), req, "tight", nil); err != nil {
		t.Fatal(err)
	}
	b.ExpireWindow()
	if len(windows) != 2 {
		t.Fatalf("flushed %d windows, want 2", len(windows))
	}
	if err := windows[1].Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := solver.Stats().ViolationsByClass["tight"]; got != 1 {
		t.Errorf("on-time completion counted as violation: %d", got)
	}

	// Complete validates slice lengths before touching any submission.
	if _, err := b.Offer(context.Background(), req, "", nil); err != nil {
		t.Fatal(err)
	}
	b.ExpireWindow()
	last := windows[len(windows)-1]
	if err := last.Complete(make([]*dls.Result, last.Size()+1), nil); err == nil {
		t.Error("Complete accepted a mis-sized results slice")
	}
	if err := last.Complete(nil, make([]error, last.Size()+1)); err == nil {
		t.Error("Complete accepted a mis-sized errors slice")
	}
	if err := last.Complete(nil, nil); err != nil {
		t.Fatal(err)
	}

	b.Close()
	if _, err := b.Offer(context.Background(), req, "", nil); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("Offer after Close = %v, want ErrBatcherClosed", err)
	}
}

// waitFor polls cond with a real-time budget — for the few assertions
// that synchronize with the batcher's own goroutines.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
