package dls_test

// Tests for the synchronous Offer/ExpireWindow/Window.Complete surface:
// it joins and flushes windows through the same admission core as the
// goroutine collector, so it answers abandoned submissions the same way,
// and it conserves every offered submission under any driving sequence.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

// TestSyncOfferAnswersCancelledContext: an Offer whose context is already
// done is answered with ctx.Err() and never admitted — no window, no
// outstanding submission — exactly as the goroutine collector treats a
// submission abandoned while queued.
func TestSyncOfferAnswersCancelledContext(t *testing.T) {
	solver := mustSolver(t)
	var windows []*dls.Window
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond,
		Clock:    sim.NewClock(),
		OnWindow: func(w *dls.Window) { windows = append(windows, w) },
	})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := b.Offer(ctx, dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done() || !errors.Is(p.Err(), context.Canceled) {
		t.Fatalf("cancelled Offer: done=%t err=%v, want done with context.Canceled", p.Done(), p.Err())
	}
	if len(windows) != 0 {
		t.Fatalf("cancelled Offer reached OnWindow (%d windows)", len(windows))
	}
	if st := b.Stats(); st != (dls.BatcherStats{}) {
		t.Errorf("batcher stats %+v after a cancelled Offer, want zero", st)
	}
	if st := solver.Stats(); st.Windows != 0 || st.Shed != 0 {
		t.Errorf("solver counted windows %d, shed %d for a cancelled Offer", st.Windows, st.Shed)
	}
}

// TestSyncWindowCompleteTwice: a second Complete is an error and leaves
// every counter alone; the window's worker was freed by the first.
func TestSyncWindowCompleteTwice(t *testing.T) {
	clk := sim.NewClock()
	solver := mustSolver(t)
	var windows []*dls.Window
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond,
		Workers:  1,
		Clock:    clk,
		Classes:  []dls.SLOClass{{Name: "tight", Deadline: time.Millisecond}},
		OnWindow: func(w *dls.Window) { windows = append(windows, w) },
	})
	defer b.Close()
	req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC}
	offer := func() {
		t.Helper()
		if _, err := b.Offer(context.Background(), req, "tight", nil); err != nil {
			t.Fatal(err)
		}
	}
	offer() // flushes at once to the idle worker
	offer() // fills a window behind it
	if len(windows) != 1 {
		t.Fatalf("%d windows flushed, want 1", len(windows))
	}
	clk.Advance(2 * time.Millisecond) // past the deadline: completion is a violation
	if err := windows[0].Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
	bs, st := b.Stats(), solver.Stats()
	if err := windows[0].Complete(nil, nil); err == nil {
		t.Fatal("second Complete of a window succeeded")
	}
	if got := b.Stats(); got != bs {
		t.Errorf("batcher stats %+v after the second Complete, want %+v", got, bs)
	}
	if got := solver.Stats(); got.ViolationsByClass["tight"] != st.ViolationsByClass["tight"] || got.Windows != st.Windows {
		t.Errorf("second Complete moved violations %v→%v, windows %d→%d",
			st.ViolationsByClass, got.ViolationsByClass, st.Windows, got.Windows)
	}
	// Exactly one window is in flight (the one filled behind the first):
	// a double decrement would have freed a second worker.
	b.ExpireWindow()
	offer()
	if len(windows) != 2 {
		t.Fatalf("%d windows flushed, want 2", len(windows))
	}
	if _, ok := b.WindowDeadline(); !ok {
		t.Fatal("offer behind a busy worker flushed at once: the second Complete freed a worker")
	}
	if err := windows[1].Complete(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatcherSync replays a byte-coded sequence of Offer (mixed classes,
// some with an already-cancelled context), clock advances with
// ExpireWindow, Window.Complete (some with injected errors, some twice)
// and Close against a synchronous batcher on a virtual clock, and checks
// the batcher's conservation laws: every offer is completed, shed or
// failed by its context exactly once; every Pending is done once Close
// has run and the remaining windows are completed; QueueDepth never goes
// negative; and the flush reasons sum to the window count.
func FuzzBatcherSync(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 1, 2, 2, 3})
	f.Add(uint8(7), []byte{0, 8, 16, 24, 32, 0x41, 0x42, 0x81, 0xc3, 0, 0x10, 0x22})
	f.Add(uint8(0x9a), []byte{0x40, 0x48, 0x50, 0x58, 0x06, 0x0e, 0x45, 0x02, 0x0a, 0x03})
	f.Fuzz(func(t *testing.T, cfgByte uint8, ops []byte) {
		clk := sim.NewClock()
		solver := mustSolver(t)
		var (
			windows []*dls.Window
			next    int // windows[:next] are completed
			shed    int
		)
		cfg := dls.BatcherConfig{
			MaxDelay: time.Millisecond,
			MaxSize:  1 + int(cfgByte&3),
			QueueCap: 1 + int(cfgByte>>2&7),
			Workers:  1 + int(cfgByte>>5&1),
			Clock:    clk,
			Classes: []dls.SLOClass{
				{Name: "tight", Deadline: 500 * time.Microsecond, Priority: 1},
				{Name: "standard", Deadline: 5 * time.Millisecond},
			},
			OnWindow: func(w *dls.Window) { windows = append(windows, w) },
			OnShed:   func(string, any, error) { shed++ },
		}
		if cfgByte&0x80 != 0 {
			cfg.Adaptive = true
		}
		b := solver.NewBatcher(cfg)
		classes := []string{"", "tight", "standard", ""}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		req := dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC}
		injected := errors.New("injected failure")

		var pendings []*dls.Pending
		closed := false
		complete := func(errs bool) {
			w := windows[next]
			next++
			var es []error
			if errs {
				es = make([]error, w.Size())
				for i := range es {
					es[i] = injected
				}
			}
			if err := w.Complete(nil, es); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
		for _, op := range ops {
			switch op & 3 {
			case 0: // Offer
				ctx := context.Background()
				if op&4 != 0 {
					ctx = cancelled
				}
				p, err := b.Offer(ctx, req, classes[op>>3&3], nil)
				if closed {
					if !errors.Is(err, dls.ErrBatcherClosed) {
						t.Fatalf("Offer after Close = %v, want ErrBatcherClosed", err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				pendings = append(pendings, p)
			case 1: // advance the clock, firing the window timer if due
				clk.Advance(time.Duration(op>>2) * 50 * time.Microsecond)
				if dl, ok := b.WindowDeadline(); ok && !clk.Now().Before(dl) {
					b.ExpireWindow()
				}
			case 2: // complete the oldest outstanding window
				if next < len(windows) {
					complete(op&4 != 0)
					if op&8 != 0 && windows[next-1].Complete(nil, nil) == nil {
						t.Fatal("second Complete of a window succeeded")
					}
				}
			case 3:
				b.Close()
				closed = true
			}
			if d := b.Stats().QueueDepth; d < 0 {
				t.Fatalf("QueueDepth %d after op %#x", d, op)
			}
		}
		b.Close()
		for next < len(windows) {
			complete(false)
		}

		completed, ctxFailed := 0, 0
		for _, w := range windows {
			completed += w.Size()
		}
		for i, p := range pendings {
			if !p.Done() {
				t.Fatalf("pending %d not done after Close and every completion", i)
			}
			if errors.Is(p.Err(), context.Canceled) {
				ctxFailed++
			}
		}
		if completed+shed+ctxFailed != len(pendings) {
			t.Fatalf("conservation: completed %d + shed %d + ctx-failed %d != offers %d",
				completed, shed, ctxFailed, len(pendings))
		}
		if st := b.Stats(); st != (dls.BatcherStats{}) {
			t.Fatalf("drained batcher stats %+v, want zero", st)
		}
		st := solver.Stats()
		if fl := st.Flushes; fl.Idle+fl.Size+fl.Timer+fl.Close != st.Windows {
			t.Fatalf("flushes %+v do not sum to %d windows", fl, st.Windows)
		}
		if st.Windows != uint64(len(windows)) || st.Shed != uint64(shed) {
			t.Fatalf("solver counted %d windows, %d shed; OnWindow saw %d, OnShed %d",
				st.Windows, st.Shed, len(windows), shed)
		}
	})
}
