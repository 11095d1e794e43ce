package dls_test

// Contract tests for work-conserving admission: a filling window flushes
// at once when fewer than Workers windows are in flight and nothing else
// is queued, and otherwise waits for its size threshold or its timer.

import (
	"context"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/obs"
	"repro/internal/sim"
)

// stageAttr returns the value of attribute key on the named stage of a
// trace ("" when absent).
func stageAttr(t *obs.Trace, stage, key string) string {
	for _, st := range t.Snapshot().Stages {
		if st.Name != stage {
			continue
		}
		for _, a := range st.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return ""
}

// TestBatcherLoneSubmitFlushesAtOnce: on an idle batcher a lone Submit
// is answered without the virtual clock ever moving and without a window
// timer, even under an hour-long MaxDelay; its window_wait span says why.
func TestBatcherLoneSubmitFlushesAtOnce(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, Clock: clk})
	defer b.Close()

	trace := obs.NewTrace("lone", "/v1/solve", clk.Now)
	ctx := obs.ContextWithTrace(context.Background(), trace)
	type answer struct {
		res *dls.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC})
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil || a.res == nil {
			t.Fatalf("lone Submit = %v, %v", a.res, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone Submit on an idle batcher waited for the window timer")
	}
	if !clk.Now().Equal(sim.Epoch) {
		t.Errorf("virtual clock moved to %v", clk.Now())
	}
	if at, ok := clk.NextTimer(); ok {
		t.Errorf("a timer is armed for %v", at)
	}
	if st := solver.Stats(); st.Flushes != (dls.WindowFlushes{Idle: 1}) {
		t.Errorf("flushes %+v, want one idle flush", st.Flushes)
	}
	if got := stageAttr(trace, "window_wait", "flush"); got != "idle" {
		t.Errorf("window_wait flush attribute %q, want idle", got)
	}
}

// TestBatcherSequentialSubmitsNeverWait: a closed-loop caller submitting
// again as soon as it is answered always finds the drain worker idle.
// The window leaves the in-flight count before its answer is delivered,
// so even a single worker and an hour-long timer cost nothing.
func TestBatcherSequentialSubmitsNeverWait(t *testing.T) {
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, Workers: 1})
	defer b.Close()
	const n = 200
	finished := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := b.Submit(context.Background(), dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC}); err != nil {
				finished <- err
				return
			}
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sequential submissions stalled on the window timer")
	}
	if st := solver.Stats(); st.Flushes != (dls.WindowFlushes{Idle: n}) {
		t.Errorf("flushes %+v, want %d idle flushes", st.Flushes, n)
	}
}

// TestBatcherBusyWorkersWaitForTimer: with every drain worker parked, a
// Submit opens a window and waits for its timer.
func TestBatcherBusyWorkersWaitForTimer(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 2 * time.Millisecond, Clock: clk})
	defer b.Close()
	park, release := context.WithCancel(context.Background())
	defer release()
	parked := parkWorkers(t, park, solver, b, 2)

	trace := obs.NewTrace("busy", "/v1/solve", clk.Now)
	ctx := obs.ContextWithTrace(context.Background(), trace)
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC})
		done <- err
	}()
	if !clk.WaitTimers(1, 5*time.Second) {
		t.Fatal("window timer was not armed")
	}
	if st := solver.Stats(); st.Windows != 2 || b.Stats().WindowFill != 1 {
		t.Fatalf("window flushed before its timer: windows %d, fill %d", st.Windows, b.Stats().WindowFill)
	}
	clk.Advance(2 * time.Millisecond)
	waitFor(t, "the timer flush", func() bool { return solver.Stats().Windows == 3 })
	release()
	parked()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission not answered after its timer flush")
	}
	if st := solver.Stats(); st.Flushes != (dls.WindowFlushes{Idle: 2, Timer: 1}) {
		t.Errorf("flushes %+v, want 2 idle (parkers) and 1 timer", st.Flushes)
	}
	if got := stageAttr(trace, "window_wait", "flush"); got != "timer" {
		t.Errorf("window_wait flush attribute %q, want timer", got)
	}
}

// TestSyncOfferFlushesToIdleWorker: the synchronous surface runs the same
// rule. An Offer on an idle batcher reaches OnWindow at once; with Workers
// windows outstanding (handed to OnWindow, not completed) it waits for
// ExpireWindow; completing one frees a worker again.
func TestSyncOfferFlushesToIdleWorker(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	var windows []*dls.Window
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond,
		Workers:  2,
		Clock:    clk,
		OnWindow: func(w *dls.Window) { windows = append(windows, w) },
	})
	defer b.Close()
	req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC}
	offer := func() {
		t.Helper()
		if _, err := b.Offer(context.Background(), req, "", nil); err != nil {
			t.Fatal(err)
		}
	}

	for want := 1; want <= 2; want++ {
		offer()
		if len(windows) != want {
			t.Fatalf("offer %d on an idle worker: %d windows flushed, want %d", want, len(windows), want)
		}
		if _, ok := b.WindowDeadline(); ok {
			t.Fatalf("offer %d left a window open", want)
		}
	}

	// Both workers busy: the next offers fill a window until it expires.
	offer()
	offer()
	if len(windows) != 2 {
		t.Fatalf("offers with 2 windows outstanding flushed: %d windows", len(windows))
	}
	if dl, ok := b.WindowDeadline(); !ok || !dl.Equal(sim.Epoch.Add(time.Millisecond)) {
		t.Fatalf("WindowDeadline = %v, %t", dl, ok)
	}
	clk.Advance(time.Millisecond)
	b.ExpireWindow()
	if len(windows) != 3 || windows[2].Size() != 2 {
		t.Fatalf("expiry flushed %d windows (last size %d), want 3 (2)", len(windows), windows[len(windows)-1].Size())
	}

	// Completing a window frees its worker: the next offer flushes at once.
	if err := windows[0].Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := windows[1].Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
	offer()
	if len(windows) != 4 {
		t.Fatalf("offer after completions: %d windows flushed, want 4", len(windows))
	}
	if st := solver.Stats(); st.Flushes != (dls.WindowFlushes{Idle: 3, Timer: 1}) {
		t.Errorf("flushes %+v, want 3 idle and 1 timer", st.Flushes)
	}
	for _, w := range windows[2:] {
		if err := w.Complete(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}
