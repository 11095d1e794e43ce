package dls_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
)

// chainStreamRequests builds chain-shaped requests over distinct same-size
// platforms: exactly the workload the SoA batch prepass collapses.
func chainStreamRequests(rng *rand.Rand, n int) []dls.Request {
	reqs := make([]dls.Request, 0, n)
	strategies := []string{dls.StrategyIncC, dls.StrategyIncW, dls.StrategyDecC, dls.StrategyLIFO}
	for i := 0; i < n; i++ {
		p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		reqs = append(reqs, dls.Request{Platform: p, Strategy: strategies[i%len(strategies)]})
	}
	return reqs
}

// TestSolveStreamTakesBatchPrepass pins the ROADMAP "Streaming prepass"
// item: a burst of chain-shaped requests streamed within one admission
// window while the drain workers are busy must be answered by the SoA
// batch prepass (observable in Stats), not by solo solves, and the
// results must be byte-identical to direct Solve in the original order.
func TestSolveStreamTakesBatchPrepass(t *testing.T) {
	rng := rand.New(rand.NewSource(9090))
	reqs := chainStreamRequests(rng, 16)
	// A wide window so even a heavily loaded CI machine admits the burst
	// into few windows.
	solver := mustSolver(t, dls.WithParallelism(8), dls.WithStreamWindow(50*time.Millisecond))
	in := make(chan dls.Request)
	out := solver.SolveStream(context.Background(), in)
	// Park both drain workers of the stream's batcher first, one window
	// each: a burst that found a worker idle would flush at once instead
	// of meeting in a window.
	gate := openGate(t)
	const parkers = 2
	for i := uint64(1); i <= parkers; i++ {
		in <- dls.Request{Platform: gate.platform, Strategy: gateStrategy}
		waitFor(t, "a parking window to flush", func() bool { return solver.Stats().Windows == i })
	}
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- r
		}
	}()
	// The burst fills the slots the parkers leave and flushes on the
	// window timer; then release the workers.
	waitFor(t, "the burst window to flush", func() bool { return solver.Stats().Windows > parkers })
	gate.release()
	var got []dls.StreamResult
	for sr := range out {
		got = append(got, sr)
	}
	if len(got) != parkers+len(reqs) {
		t.Fatalf("stream yielded %d results for %d requests", len(got), parkers+len(reqs))
	}
	for _, sr := range got[:parkers] {
		if !errors.Is(sr.Err, errGateReleased) {
			t.Fatalf("parking request %d: %v, want errGateReleased", sr.Index, sr.Err)
		}
	}
	got = got[parkers:]
	st := solver.Stats()
	if st.Windows == 0 {
		t.Fatal("stream flushed no admission windows")
	}
	if st.BatchedWindows == 0 {
		t.Errorf("no window collapsed >= 2 requests: stats %+v", st)
	}
	if st.PrepassGroups == 0 {
		t.Errorf("streamed chain requests never took the SoA batch prepass: stats %+v", st)
	}
	solo := mustSolver(t)
	for i, sr := range got {
		if sr.Index != parkers+i {
			t.Fatalf("stream out of order: position %d has index %d", parkers+i, sr.Index)
		}
		if sr.Err != nil {
			t.Fatalf("request %d failed: %v", i, sr.Err)
		}
		want, err := solo.Solve(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if sr.Result.Throughput != want.Throughput {
			t.Errorf("request %d: streamed throughput %.17g != solo %.17g", i, sr.Result.Throughput, want.Throughput)
		}
		for w := range want.Schedule.Alpha {
			if sr.Result.Schedule.Alpha[w] != want.Schedule.Alpha[w] {
				t.Errorf("request %d: load of worker %d differs from solo solve", i, w)
			}
		}
	}
}

// TestSolveStreamIdleNoStall: a sequential closed-loop caller (next
// request only after the previous result) must not pay the admission
// window — a request alone in the stream solves directly.
func TestSolveStreamIdleNoStall(t *testing.T) {
	rng := rand.New(rand.NewSource(9096))
	reqs := chainStreamRequests(rng, 20)
	// A window so large that a single timer-based flush would blow the
	// test's deadline if a lone request ever waited it out.
	solver := mustSolver(t, dls.WithParallelism(4), dls.WithStreamWindow(time.Minute))
	in := make(chan dls.Request)
	out := solver.SolveStream(context.Background(), in)
	begin := time.Now()
	for i, r := range reqs {
		in <- r
		sr, ok := <-out
		if !ok {
			t.Fatalf("stream closed after %d results", i)
		}
		if sr.Err != nil {
			t.Fatalf("request %d failed: %v", i, sr.Err)
		}
		if sr.Index != i {
			t.Fatalf("request %d answered as index %d", i, sr.Index)
		}
	}
	close(in)
	if _, ok := <-out; ok {
		t.Fatal("stream yielded an extra result")
	}
	if elapsed := time.Since(begin); elapsed > 30*time.Second {
		t.Fatalf("sequential stream stalled on the admission window: %v for %d chain solves", elapsed, len(reqs))
	}
	if st := solver.Stats(); st.BatchedWindows != 0 {
		t.Errorf("sequential stream batched windows: %+v", st)
	}
}

// TestSolveStreamWindowDisabled: WithStreamWindow(0) restores the solo
// path — no windows are counted and results still arrive in order.
func TestSolveStreamWindowDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(9091))
	reqs := chainStreamRequests(rng, 8)
	solver := mustSolver(t, dls.WithParallelism(4), dls.WithStreamWindow(0))
	in := make(chan dls.Request)
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- r
		}
	}()
	n := 0
	for sr := range solver.SolveStream(context.Background(), in) {
		if sr.Index != n {
			t.Fatalf("stream out of order: position %d has index %d", n, sr.Index)
		}
		if sr.Err != nil {
			t.Fatalf("request %d failed: %v", n, sr.Err)
		}
		n++
	}
	if n != len(reqs) {
		t.Fatalf("stream yielded %d results for %d requests", n, len(reqs))
	}
	if st := solver.Stats(); st.Windows != 0 || st.PrepassGroups != 0 {
		t.Errorf("disabled stream window still micro-batched: %+v", st)
	}
}

// TestSolveStreamErrorsStayRaw: per-request stream errors keep their
// sentinel identity through the micro-batcher.
func TestSolveStreamErrorsStayRaw(t *testing.T) {
	// No common z: StrategyFIFO fails with ErrNoCommonZ.
	bad := dls.NewPlatform(
		dls.Worker{C: 0.1, W: 0.5, D: 0.05},
		dls.Worker{C: 0.2, W: 0.3, D: 0.2},
	)
	solver := mustSolver(t, dls.WithStreamWindow(10*time.Millisecond))
	in := make(chan dls.Request, 2)
	// Two copies, so the identity also survives a window they may share.
	in <- dls.Request{Platform: bad, Strategy: dls.StrategyFIFO}
	in <- dls.Request{Platform: bad, Strategy: dls.StrategyFIFO}
	close(in)
	results := make([]dls.StreamResult, 0, 2)
	for sr := range solver.SolveStream(context.Background(), in) {
		results = append(results, sr)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, sr := range results {
		if !errors.Is(sr.Err, dls.ErrNoCommonZ) {
			t.Errorf("stream error %d lost its identity: %v", i, sr.Err)
		}
	}
}

// TestBatcherDedupesWindow: identical requests meeting in one admission
// window are solved once; the duplicates come back Cached even on a
// cache-less solver.
func TestBatcherDedupesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9092))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t)
	// MaxSize 8 flushes exactly when the whole burst is in; the generous
	// timer is only the fallback for straggling goroutines.
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Second, MaxSize: 8})
	defer b.Close()
	// The burst must find every drain worker busy, or its first arrivals
	// would flush at once, one window each.
	park, release := context.WithCancel(context.Background())
	defer release()
	parked := parkWorkers(t, park, solver, b, 2)
	base := solver.Stats()
	var wg sync.WaitGroup
	results := make([]*dls.Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Submit(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	waitFor(t, "the burst window to flush", func() bool { return solver.Stats().Windows > base.Windows })
	release()
	parked()
	wg.Wait()
	st := solver.Stats()
	if st.SolvesByStrategy[dls.StrategyFIFOExhaustive] != 1 {
		t.Errorf("identical requests solved %d times, want 1 (stats %+v)",
			st.SolvesByStrategy[dls.StrategyFIFOExhaustive], st)
	}
	cached := 0
	for i, res := range results {
		if res == nil {
			t.Fatalf("submission %d got no result", i)
		}
		if res.Cached {
			cached++
		}
	}
	if cached != 7 {
		t.Errorf("%d duplicates marked Cached, want 7", cached)
	}
	if st.BatchedWindows == 0 || st.BatchedRequests < 8 {
		t.Errorf("burst did not batch: %+v", st)
	}
}

// registerBlockingStrategy registers (once) a strategy that parks until
// its context dies, so tests can wedge a batcher's drain workers
// deterministically.
var registerBlockingStrategy = sync.OnceFunc(func() {
	err := dls.RegisterStrategy("test-block", func(ctx context.Context, _ dls.Request) (*dls.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		panic(err)
	}
})

// parkWorkers wedges n drain workers of b on the test-block strategy
// until ctx ends: it submits n one-request windows one at a time, each
// flushed at once to an idle worker, so later arrivals find the workers
// busy and wait in a window. The returned function waits until the
// parked submissions have been answered.
func parkWorkers(t *testing.T, ctx context.Context, solver *dls.Solver, b *dls.Batcher, n int) (wait func()) {
	t.Helper()
	registerBlockingStrategy()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		before := solver.Stats().Windows
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: "test-block"})
		}()
		waitFor(t, "a parking window to flush", func() bool { return solver.Stats().Windows > before })
	}
	return wg.Wait
}

// gateStrategy parks until the gate registered for its request's
// platform is released (see openGate), then fails with errGateReleased.
// It wedges drain workers whose context is shared with the requests
// under test (SolveStream), where test-block could not be released
// alone.
const gateStrategy = "test-gate"

var (
	errGateReleased = errors.New("test gate released")
	// gates maps a gate's platform to its release channel.
	gates                sync.Map
	registerGateStrategy = sync.OnceFunc(func() {
		err := dls.RegisterStrategy(gateStrategy, func(ctx context.Context, req dls.Request) (*dls.Result, error) {
			ch, _ := gates.Load(req.Platform)
			select {
			case <-ch.(chan struct{}):
				return nil, errGateReleased
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		if err != nil {
			panic(err)
		}
	})
)

// testGate is one gate: requests for platform under gateStrategy park
// until release.
type testGate struct {
	platform *dls.Platform
	release  func()
}

func openGate(t *testing.T) testGate {
	registerGateStrategy()
	p := testPlatform()
	ch := make(chan struct{})
	gates.Store(p, ch)
	t.Cleanup(func() { gates.Delete(p) })
	return testGate{platform: p, release: func() { close(ch) }}
}

// TestBatcherSheds: once the drain workers are wedged and the admission
// queue is full, further submissions are rejected immediately with
// ErrOverloaded and counted, instead of queueing unboundedly.
func TestBatcherSheds(t *testing.T) {
	registerBlockingStrategy()
	rng := rand.New(rand.NewSource(9093))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t, dls.WithParallelism(1))
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 1, QueueCap: 2, Workers: 1})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 16 concurrent blocking submissions against absorbing capacity 5
	// (1 draining + 1 buffered flush + 1 in the collector + 2 queued):
	// at least 11 must shed no matter the interleaving.
	var wg sync.WaitGroup
	var shed atomic.Uint64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(ctx, dls.Request{Platform: p, Strategy: "test-block"}); errors.Is(err, dls.ErrOverloaded) {
				shed.Add(1)
			}
		}()
	}
	// Every submission either sheds immediately or parks in the wedged
	// batcher; wait until the shed ones have reported, then release.
	deadline := time.Now().Add(5 * time.Second)
	for shed.Load() < 11 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if shed.Load() < 11 {
		t.Fatalf("only %d of 16 submissions shed with capacity 5", shed.Load())
	}
	if st := solver.Stats(); st.Shed != shed.Load() {
		t.Errorf("shed counter %d != observed sheds %d", st.Shed, shed.Load())
	}
}

// TestBatcherDirectModeBounds: with MaxDelay = 0 (batching disabled) the
// batcher still bounds concurrency at QueueCap, sheds beyond it, and
// refuses submissions after Close.
func TestBatcherDirectModeBounds(t *testing.T) {
	registerBlockingStrategy()
	rng := rand.New(rand.NewSource(9097))
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 0, QueueCap: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var shed atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(ctx, dls.Request{Platform: p, Strategy: "test-block"}); errors.Is(err, dls.ErrOverloaded) {
				shed.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for shed.Load() < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if shed.Load() != 6 {
		t.Fatalf("%d of 8 direct submissions shed with 2 slots, want 6", shed.Load())
	}
	cancel()
	wg.Wait()
	b.Close() // must wait out the in-flight direct solves
	if _, err := b.Submit(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyIncC}); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("submit after close: %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherCloseDrains: Close answers every admitted submission before
// returning, and later submissions fail with ErrBatcherClosed.
func TestBatcherCloseDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(9094))
	solver := mustSolver(t)
	// A long window: only Close's drain can flush these, once they have
	// found every drain worker busy.
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, MaxSize: 1 << 20})
	park, release := context.WithCancel(context.Background())
	parked := parkWorkers(t, park, solver, b, 2)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		wg.Add(1)
		go func(i int, req dls.Request) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), req)
		}(i, dls.Request{Platform: p, Strategy: dls.StrategyIncC})
	}
	// Let the submissions reach the window before closing.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := b.Stats()
		if st.QueueDepth+st.WindowFill >= 6 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Freed workers take no window by themselves: the filling one still
	// waits for Close.
	release()
	parked()
	b.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("drained submission %d failed: %v", i, err)
		}
	}
	if st := solver.Stats(); st.Flushes.Close != 1 {
		t.Errorf("Close flushed %d windows, want 1: %+v", st.Flushes.Close, st.Flushes)
	}
	if _, err := b.Submit(context.Background(), dls.Request{}); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("submit after close: %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherHonoursContext: a submission whose context dies while queued
// returns ctx.Err() and is skipped by the flush.
func TestBatcherHonoursContext(t *testing.T) {
	rng := rand.New(rand.NewSource(9095))
	p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, MaxSize: 1 << 20})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, dls.Request{Platform: p, Strategy: dls.StrategyIncC}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submission returned %v, want context.Canceled", err)
	}
}
