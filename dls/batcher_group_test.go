package dls_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/dls"
)

// flushLog records flushed window sizes through BatcherConfig.OnFlush.
type flushLog struct {
	mu    sync.Mutex
	sizes []int
}

func (l *flushLog) observe(n int) {
	l.mu.Lock()
	l.sizes = append(l.sizes, n)
	l.mu.Unlock()
}

func (l *flushLog) get() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.sizes...)
}

// sameContexts returns n copies of ctx, one per batch slot.
func sameContexts(ctx context.Context, n int) []context.Context {
	ctxs := make([]context.Context, n)
	for i := range ctxs {
		ctxs[i] = ctx
	}
	return ctxs
}

// TestSubmitBatchIsOneWindow: a body of exactly MaxSize requests on an
// idle batcher is admitted as one group and flushes as exactly one
// window, with every slot answered.
func TestSubmitBatchIsOneWindow(t *testing.T) {
	reqs := chainStreamRequests(rand.New(rand.NewSource(9100)), 64)
	solver := mustSolver(t)
	var flushes flushLog
	// A long timer: only the size threshold can flush the body promptly.
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 5 * time.Second, MaxSize: 64, OnFlush: flushes.observe})
	defer b.Close()
	before := solver.Stats()
	results, errs := b.SubmitBatch(sameContexts(context.Background(), len(reqs)), reqs, "")
	for i := range reqs {
		if errs[i] != nil || results[i] == nil {
			t.Fatalf("slot %d: result %v, error %v", i, results[i], errs[i])
		}
	}
	after := solver.Stats()
	if d := after.Windows - before.Windows; d != 1 {
		t.Errorf("body flushed as %d windows, want 1 (sizes %v)", d, flushes.get())
	}
	if d := after.BatchedRequests - before.BatchedRequests; d != 64 {
		t.Errorf("BatchedRequests rose by %d, want 64", d)
	}
	if got := flushes.get(); !reflect.DeepEqual(got, []int{64}) {
		t.Errorf("flushed window sizes %v, want [64]", got)
	}
}

// TestSubmitBatchSplitsAtMaxSize: a body larger than MaxSize fills
// windows in slot order, flushing partway through it at each MaxSize.
func TestSubmitBatchSplitsAtMaxSize(t *testing.T) {
	reqs := chainStreamRequests(rand.New(rand.NewSource(9101)), 150)
	solver := mustSolver(t)
	var flushes flushLog
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 5 * time.Millisecond, MaxSize: 64, OnFlush: flushes.observe})
	defer b.Close()
	_, errs := b.SubmitBatch(sameContexts(context.Background(), len(reqs)), reqs, "")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if got := flushes.get(); !reflect.DeepEqual(got, []int{64, 64, 22}) {
		t.Errorf("flushed window sizes %v, want [64 64 22]", got)
	}
}

// TestSubmitBatchShedsWhole: a body larger than the free queue capacity
// is shed whole — every slot ErrOverloaded and counted, nothing solved —
// while a body that fits is admitted.
func TestSubmitBatchShedsWhole(t *testing.T) {
	reqs := chainStreamRequests(rand.New(rand.NewSource(9102)), 5)
	solver := mustSolver(t)
	var shedHook int
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond, QueueCap: 4,
		OnShed: func(string, any, error) { shedHook++ },
	})
	defer b.Close()
	results, errs := b.SubmitBatch(sameContexts(context.Background(), 5), reqs, "")
	for i := range reqs {
		if results[i] != nil || !errors.Is(errs[i], dls.ErrOverloaded) {
			t.Errorf("slot %d: result %v, error %v; want shed", i, results[i], errs[i])
		}
	}
	st := solver.Stats()
	if st.Shed != 5 || st.ShedByClass[""] != 5 || shedHook != 5 {
		t.Errorf("shed counted Shed=%d ByClass=%v hook=%d, want 5 each", st.Shed, st.ShedByClass, shedHook)
	}
	if st.Solves != 0 || st.Windows != 0 {
		t.Errorf("a shed body was solved: Solves=%d Windows=%d", st.Solves, st.Windows)
	}
	if _, errs := b.SubmitBatch(sameContexts(context.Background(), 4), reqs[:4], ""); errors.Join(errs...) != nil {
		t.Errorf("a body that fits failed: %v", errs)
	}
}

// TestSubmitBatchQueueDepthCountsSubmissions: a queued body counts each
// of its requests in QueueDepth, not one per group.
func TestSubmitBatchQueueDepthCountsSubmissions(t *testing.T) {
	registerBlockingStrategy()
	solver := mustSolver(t, dls.WithParallelism(1))
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 1, QueueCap: 16, Workers: 1})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	block := func(n int) []dls.Request {
		reqs := make([]dls.Request, n)
		for i := range reqs {
			reqs[i] = dls.Request{Platform: testPlatform(), Strategy: "test-block"}
		}
		return reqs
	}
	var wg sync.WaitGroup
	submit := func(n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.SubmitBatch(sameContexts(ctx, n), block(n), "")
		}()
	}
	// Three one-request windows wedge the pipeline: one solving, one
	// buffered, one held by the collector. The next body stays queued.
	submit(3)
	waitFor(t, "the collector to wedge", func() bool { return solver.Stats().Windows == 3 })
	submit(5)
	waitFor(t, "QueueDepth to count the queued body's 5 submissions", func() bool {
		return b.Stats().QueueDepth == 5
	})
	cancel()
	wg.Wait()
}

// TestBatcherAnswersGroupEarly: a request is answered as soon as its own
// dedup group is solved, while a slower group of the same window is
// still solving; Close still drains the slow one.
func TestBatcherAnswersGroupEarly(t *testing.T) {
	registerBlockingStrategy()
	solver := mustSolver(t, dls.WithParallelism(2))
	// MaxSize 2 and an hour-long timer: the two submissions flush together
	// once they find the only drain worker parked.
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, MaxSize: 2, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	park, release := context.WithCancel(context.Background())
	defer release()
	parked := parkWorkers(t, park, solver, b, 1)
	base := solver.Stats()
	blockErr := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: "test-block"})
		blockErr <- err
	}()
	type answer struct {
		res *dls.Result
		err error
	}
	chain := make(chan answer, 1)
	go func() {
		res, err := b.Submit(ctx, dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC})
		chain <- answer{res, err}
	}()
	waitFor(t, "the two submissions to flush", func() bool { return solver.Stats().Windows > base.Windows })
	release()
	parked()
	select {
	case a := <-chain:
		if a.err != nil || a.res == nil || a.res.Throughput <= 0 {
			t.Fatalf("chain request answered with %v, %v", a.res, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chain request not answered while the parked solve runs")
	}
	if st := solver.Stats(); st.Windows-base.Windows != 1 || st.BatchedWindows != 1 {
		t.Fatalf("requests did not share one window: %+v", st)
	}
	select {
	case err := <-blockErr:
		t.Fatalf("parked solve returned early: %v", err)
	default:
	}

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the parked solve was still running")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the parked solve")
	}
	if err := <-blockErr; err == nil {
		t.Fatal("parked solve reported success")
	}
}

// TestSubmitBatchDirectMode: with MaxDelay = 0 a body solves at once as
// one SolveBatch, bounded by QueueCap like single submissions.
func TestSubmitBatchDirectMode(t *testing.T) {
	reqs := chainStreamRequests(rand.New(rand.NewSource(9103)), 8)
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 0, QueueCap: 8})
	defer b.Close()
	if _, errs := b.SubmitBatch(sameContexts(context.Background(), 9), append(reqs, reqs[0]), ""); !errors.Is(errs[8], dls.ErrOverloaded) {
		t.Errorf("over-cap direct body: %v, want ErrOverloaded", errs[8])
	}
	// Slot 0 is abandoned before admission; the rest keep their places.
	ctxs := sameContexts(context.Background(), 8)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs[0] = gone
	results, errs := b.SubmitBatch(ctxs, reqs, "")
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("abandoned slot: %v, want context.Canceled", errs[0])
	}
	want, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if errs[i] != nil || results[i].Throughput != want[i].Throughput {
			t.Errorf("slot %d: %v, %v; want throughput %g", i, results[i], errs[i], want[i].Throughput)
		}
	}
	if st := solver.Stats(); st.Windows != 0 || st.Shed != 9 {
		t.Errorf("direct bodies: Windows=%d Shed=%d, want 0 and 9", st.Windows, st.Shed)
	}
}

// TestSubmitBatchRejects: mismatched contexts, unknown classes, closed
// and synchronous batchers fail every slot.
func TestSubmitBatchRejects(t *testing.T) {
	reqs := chainStreamRequests(rand.New(rand.NewSource(9104)), 2)
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond})
	if _, errs := b.SubmitBatch(sameContexts(context.Background(), 1), reqs, ""); errs[0] == nil || errs[1] == nil {
		t.Errorf("mismatched contexts accepted: %v", errs)
	}
	if _, errs := b.SubmitBatch(sameContexts(context.Background(), 2), reqs, "nope"); !errors.Is(errs[1], dls.ErrUnknownClass) {
		t.Errorf("unknown class: %v", errs)
	}
	b.Close()
	if _, errs := b.SubmitBatch(sameContexts(context.Background(), 2), reqs, ""); !errors.Is(errs[0], dls.ErrBatcherClosed) || !errors.Is(errs[1], dls.ErrBatcherClosed) {
		t.Errorf("closed batcher: %v, want ErrBatcherClosed", errs)
	}
	sync := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, OnWindow: func(*dls.Window) {}})
	if _, errs := sync.SubmitBatch(sameContexts(context.Background(), 2), reqs, ""); errs[0] == nil {
		t.Error("synchronous batcher accepted SubmitBatch")
	}
}
