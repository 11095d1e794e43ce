package dls

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors reported by Batcher.Submit.
var (
	// ErrOverloaded is returned when the batcher's admission queue is full
	// (or, under adaptive admission, when the request provably cannot meet
	// its SLO deadline) and the submission is shed instead of queued.
	// Serving layers map it to 429 Too Many Requests.
	ErrOverloaded = errors.New("dls: batcher overloaded: admission queue full")
	// ErrSLOUnmeetable is the deadline-aware shed: the adaptive admission
	// policy estimated that the request could not complete before its SLO
	// deadline and dropped it instead of burning a solve on a certain
	// violation. It wraps ErrOverloaded, so serving layers that switch on
	// errors.Is(err, ErrOverloaded) keep answering 429.
	ErrSLOUnmeetable = fmt.Errorf("%w: SLO deadline unmeetable", ErrOverloaded)
	// ErrBatcherClosed is returned by Submit after Close.
	ErrBatcherClosed = errors.New("dls: batcher closed")
	// ErrUnknownClass rejects a submission naming an SLO class that is
	// not configured (see BatcherConfig.Classes).
	ErrUnknownClass = errors.New("dls: unknown SLO class")
)

// BatcherConfig configures an admission-window micro-batcher.
type BatcherConfig struct {
	// MaxDelay is the admission window while the drain workers are busy:
	// a window that cannot flush at once to an idle worker (see Batcher)
	// flushes at most MaxDelay after its first request was admitted,
	// trading up to that much latency for batch collapse. A request that
	// finds a worker idle never waits for it. MaxDelay = 0 disables
	// micro-batching: Submit solves directly (bounded by QueueCap
	// concurrent solves, shedding beyond), so a serving layer can expose
	// batching as a knob that can be turned off.
	MaxDelay time.Duration
	// MaxSize flushes a window early once it holds this many requests.
	// Default 64. Under Adaptive admission this is the no-backlog base
	// size; the effective threshold grows toward adaptiveMaxSize when
	// the drain workers are behind.
	MaxSize int
	// QueueCap bounds admission, counted in submissions (a SubmitBatch
	// body counts each of its requests). A submission that finds the
	// queue full (or, with MaxDelay = 0, QueueCap solves in flight) is
	// shed with ErrOverloaded instead of blocking, so overload surfaces
	// immediately rather than as unbounded latency. Default 1024.
	QueueCap int
	// Workers bounds how many flushed windows are solved concurrently
	// (each window is one SolveBatch, which fans out over the solver's own
	// worker pool). It is also the admission policy's idleness test: while
	// fewer than Workers windows are in flight, a filling window flushes
	// at once instead of waiting out MaxDelay. Default 2.
	Workers int
	// Clock is the time source for the window timer, deadline propagation
	// and SLO accounting. Nil means SystemClock(); internal/sim injects a
	// virtual clock.
	Clock Clock
	// Classes are the SLO classes SubmitSLO and SubmitBatch resolve
	// against. Optional; plain Submit works regardless.
	Classes []SLOClass
	// Adaptive replaces the fixed MaxDelay/MaxSize window with the
	// SLO-aware adaptive policy: while every drain worker is busy, the
	// window delay (100µs to 5ms) and size (up to 512) grow with the
	// observed backlog and solve cost, and requests whose estimated
	// completion already misses their SLO deadline are shed at admission.
	// MaxDelay must be > 0 (the adaptive policy is meaningless in direct
	// mode).
	Adaptive bool
	// OnFlush, when set, observes the size of every flushed window (a
	// metrics hook; called from the collector goroutine, must not block).
	OnFlush func(size int)
	// OnShed, when set, observes every shed submission: its class name,
	// owner tag (synchronous mode; nil otherwise) and the shed error
	// (ErrOverloaded, or ErrSLOUnmeetable for deadline-aware drops).
	// Called from whichever goroutine sheds; must not block.
	OnShed func(class string, tag any, err error)
	// OnWindow switches the batcher into synchronous (simulation) mode:
	// NewBatcher spawns no goroutines, and the owner drives admission
	// explicitly — Offer admits or sheds, WindowDeadline exposes the
	// pending flush time, ExpireWindow fires it, and every flushed window
	// is handed to OnWindow instead of the drain pool; the owner answers
	// it with Window.Complete. Admission runs through the same core as
	// the goroutine mode (see Batcher); only the channel/goroutine
	// transport around it is absent. internal/sim replays millions of
	// virtual arrivals through this surface.
	OnWindow func(*Window)
}

// withDefaults fills the zero fields.
func (cfg BatcherConfig) withDefaults() BatcherConfig {
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
	}
	return cfg
}

// BatcherStats is a point-in-time view of a batcher's admission state; the
// cumulative counters (windows, batched requests, shed submissions) live
// in the owning solver's Stats.
type BatcherStats struct {
	// QueueDepth is the number of admitted submissions not yet collected
	// into a window (in synchronous mode: admitted submissions in flushed
	// windows not yet completed).
	QueueDepth int
	// WindowFill is the size of the currently filling window.
	WindowFill int
}

// submission is one queued request and its reply slot.
type submission struct {
	ctx      context.Context
	req      Request
	class    SLOClass
	deadline time.Time // zero: best effort
	res      *Result
	err      error
	ready    chan struct{}
	tag      any // owner value (synchronous mode; see Pending.SetTag)

	// Tracing (internal/obs): the traces riding ctx at submit time, and
	// the batcher-clock timestamps bracketing the depth-0 stages —
	// queue_wait (trace start → admitted into a window), window_wait
	// (admitted → flush) and solve (flush → answer). All zero when no
	// trace rides the context: the hot path then skips every stage call.
	traces  []*obs.Trace
	admitAt time.Time
	flushAt time.Time
}

// stage records a depth-0 stage on every trace following the submission.
func (sub *submission) stage(name string, start, end time.Time, attrs ...obs.Attr) {
	for _, t := range sub.traces {
		t.StageAt(0, name, start, end, attrs...)
	}
}

// queueStage records queue_wait on every trace following the submission,
// from the trace's own start to end, so the time from the trace's start
// to the submission counts as queueing and the depth-0 stages begin where
// the trace does.
func (sub *submission) queueStage(end time.Time) {
	for _, t := range sub.traces {
		t.StageAt(0, "queue_wait", t.Start(), end)
	}
}

// Batcher is an admission-window micro-batcher over one Solver: Submit
// queues a request into a bounded window that is flushed as a single
// SolveBatch call, so chain-shaped requests arriving together collapse
// into the engine's structure-of-arrays prepass and duplicate requests
// dedupe against each other, instead of solving one by one.
//
// Admission is work-conserving, like the paper's one-port master, which
// never leaves its port idle while load waits to be sent: once a whole
// queue entry (a Submit, or a SubmitBatch body) has joined the filling
// window, the window flushes at once if fewer than Workers windows are in
// flight and no further entry is already queued. Otherwise it flushes
// when it reaches the size threshold or when the window delay has passed
// since it opened. So a lone request never waits for company, and
// windows grow only while every drain worker is busy — exactly when
// batching pays. A window is in flight from its flush until its last
// submission is answered (synchronous mode: until Window.Complete).
//
// SubmitBatch admits a whole batch body as one group: one queue entry,
// admitted or shed whole, appended to windows in slot order (a body
// reaching the size threshold flushes partway through it, so a body of
// exactly MaxSize requests on an idle batcher is exactly one window).
//
// Every request is answered as soon as its own dedup group is solved —
// prepass-certified groups right after the chain prepass, the rest when
// their solve returns — not when the window's slowest solve ends, the
// way the paper's FIFO schedules return each worker's result once it is
// computed instead of at the makespan.
//
// With BatcherConfig.Adaptive set, the window delay and size adapt to
// observed backlog and solve cost, and requests that provably cannot meet
// their SLO deadline are shed early; see BatcherConfig.Adaptive.
//
// One admission core, two transports: a single-threaded collector runs
// the rules above, fed by a collect goroutine in goroutine mode, or by
// the owner's Offer and ExpireWindow calls in synchronous mode (see
// BatcherConfig.OnWindow).
//
// A Batcher is safe for concurrent use (synchronous mode: the owner
// serializes calls). Close drains: admitted requests are still solved and
// answered, then the workers exit.
type Batcher struct {
	s     *Solver
	cfg   BatcherConfig
	clock Clock
	adapt *adaptive // nil unless cfg.Adaptive

	mu     sync.RWMutex // guards closed vs. new admissions
	closed bool
	queue  chan []*submission // one entry per Submit or SubmitBatch body
	// queued counts admitted submissions not yet collected (with direct:
	// submissions solving); admission reserves against QueueCap.
	queued atomic.Int64

	direct   bool // MaxDelay = 0: bounded direct solves instead of a queue
	inflight sync.WaitGroup

	flushes chan []*submission
	fill    atomic.Int64
	wg      sync.WaitGroup // collector + drain workers
	// inFlight counts flushed windows whose last submission is not yet
	// answered: the admission policy's idleness signal and the adaptive
	// controller's backlog.
	inFlight atomic.Int64

	// col is the admission core: owned by the collect goroutine, or in
	// synchronous mode by the owner's serialized calls.
	col collector
	// outstanding counts submissions in windows handed to OnWindow and
	// not yet completed (synchronous mode; single-threaded, no locking).
	outstanding int
}

// NewBatcher builds an admission-window micro-batcher over the solver.
func (s *Solver) NewBatcher(cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{s: s, cfg: cfg, clock: cfg.Clock}
	b.col.b = b
	if cfg.Adaptive && cfg.MaxDelay > 0 {
		b.adapt = newAdaptive(cfg.Clock, &b.inFlight)
	}
	if cfg.OnWindow != nil {
		b.col.sink = b.handOff
		return b // synchronous mode: the owner pumps
	}
	if cfg.MaxDelay <= 0 {
		b.direct = true
		return b
	}
	// Every entry holds at least one reserved submission, so QueueCap
	// entries always fit and sends never block.
	b.queue = make(chan []*submission, cfg.QueueCap)
	b.flushes = make(chan []*submission, cfg.Workers)
	b.col.sink = func(win []*submission) { b.flushes <- win }
	b.wg.Add(1 + cfg.Workers)
	go b.collect()
	for w := 0; w < cfg.Workers; w++ {
		go b.drain()
	}
	return b
}

// AdaptiveState snapshots the adaptive admission controller; ok reports
// false when the batcher runs the fixed window.
func (b *Batcher) AdaptiveState() (AdaptiveState, bool) {
	if b.adapt == nil {
		return AdaptiveState{}, false
	}
	return b.adapt.state(), true
}

// Class resolves a configured SLO class by name ("" is the zero,
// best-effort class); the error wraps ErrUnknownClass for names not in
// BatcherConfig.Classes.
func (b *Batcher) Class(name string) (SLOClass, error) { return b.resolveClass(name) }

// resolveClass finds a configured SLO class by name ("" is the zero,
// best-effort class).
func (b *Batcher) resolveClass(name string) (SLOClass, error) {
	if name == "" {
		return SLOClass{}, nil
	}
	for _, c := range b.cfg.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return SLOClass{}, fmt.Errorf("%w %q", ErrUnknownClass, name)
}

// initSubmission fills sub as a submission under its class, recording
// its deadline (the class deadline on the batcher clock, else the
// context's) for SLO shedding and violation accounting.
func (b *Batcher) initSubmission(sub *submission, ctx context.Context, req Request, class SLOClass) {
	*sub = submission{ctx: ctx, req: req, class: class, ready: make(chan struct{})}
	sub.traces = obs.Traces(ctx)
	if class.Deadline > 0 {
		sub.deadline = b.clock.Now().Add(class.Deadline)
	} else if d, ok := ctx.Deadline(); ok {
		sub.deadline = d
	}
}

// submitCtx fills sub as a goroutine-mode submission: the class deadline
// is also merged into its context, so the solve is cancelled at the
// deadline. A context that already carries an earlier deadline keeps it.
func (b *Batcher) submitCtx(sub *submission, ctx context.Context, req Request, class SLOClass) context.CancelFunc {
	b.initSubmission(sub, ctx, req, class)
	if class.Deadline <= 0 {
		return func() {}
	}
	var cancel context.CancelFunc
	sub.ctx, cancel = b.clock.ContextWithDeadline(ctx, sub.deadline)
	return cancel
}

// recordShed counts one shed submission (per class too) and answers it.
func (b *Batcher) recordShed(sub *submission, err error) {
	b.s.shed.Add(1)
	if errors.Is(err, ErrSLOUnmeetable) {
		b.s.shedSLO.Add(1)
	}
	b.s.shedByClass.Add(sub.class.Name, 1)
	if b.cfg.OnShed != nil {
		b.cfg.OnShed(sub.class.Name, sub.tag, err)
	}
	sub.err = err
	close(sub.ready)
}

// Submit queues req and blocks until it is answered — as soon as its own
// dedup group in the window's SolveBatch is solved — returning the
// request's own result (duplicates within a window are deduplicated by
// SolveBatch and come back marked Cached). If admission is full the
// request is shed immediately with ErrOverloaded. A ctx that expires
// while the request is queued abandons it (the flush skips submissions
// whose context is already done); a ctx that expires mid-solve returns
// ctx.Err() without waiting for the solve.
func (b *Batcher) Submit(ctx context.Context, req Request) (*Result, error) {
	return b.submitClass(ctx, req, SLOClass{})
}

// SubmitSLO is Submit under a named SLO class (see BatcherConfig.Classes):
// the class deadline bounds the solve, drives the adaptive policy's
// deadline-aware shedding, and keys the per-class shed/violation counters
// in the solver's Stats.
func (b *Batcher) SubmitSLO(ctx context.Context, req Request, class string) (*Result, error) {
	c, err := b.resolveClass(class)
	if err != nil {
		return nil, err
	}
	return b.submitClass(ctx, req, c)
}

func (b *Batcher) submitClass(ctx context.Context, req Request, class SLOClass) (*Result, error) {
	if b.cfg.OnWindow != nil {
		return nil, errSyncSubmit
	}
	sub := new(submission)
	cancel := b.submitCtx(sub, ctx, req, class)
	defer cancel()
	if err := b.admit([]*submission{sub}); err != nil {
		return nil, err
	}
	return sub.wait()
}

// errSyncSubmit rejects the goroutine-mode entry points on a synchronous
// batcher.
var errSyncSubmit = errors.New("dls: Submit on a synchronous batcher (drive it with Offer)")

// SubmitBatch admits a batch body as one group under a named SLO class
// and blocks until every request is answered: results[i] and errs[i]
// answer reqs[i], which is submitted under ctxs[i] (per-slot contexts, so
// each slot can carry its own trace). The body takes one queue entry and
// counts len(reqs) submissions against QueueCap; a body that does not fit
// is shed whole, every slot failing with ErrOverloaded. Admitted slots
// join windows in slot order and are answered like Submit's: each as soon
// as its dedup group is solved, a slot whose context ends mid-solve with
// its ctx.Err().
func (b *Batcher) SubmitBatch(ctxs []context.Context, reqs []Request, class string) ([]*Result, []error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	fail := func(err error) ([]*Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	if len(ctxs) != len(reqs) {
		return fail(fmt.Errorf("dls: SubmitBatch: %d contexts for %d requests", len(ctxs), len(reqs)))
	}
	if b.cfg.OnWindow != nil {
		return fail(errSyncSubmit)
	}
	c, err := b.resolveClass(class)
	if err != nil {
		return fail(err)
	}
	if len(reqs) == 0 {
		return results, errs
	}
	// One block holds the body's submissions; each keeps its own ready
	// channel.
	block := make([]submission, len(reqs))
	subs := make([]*submission, len(reqs))
	cancels := make([]context.CancelFunc, len(reqs))
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	for i, req := range reqs {
		subs[i] = &block[i]
		cancels[i] = b.submitCtx(subs[i], ctxs[i], req, c)
	}
	if err := b.admit(subs); err != nil {
		return fail(err)
	}
	for i, sub := range subs {
		results[i], errs[i] = sub.wait()
	}
	return results, errs
}

// wait blocks until sub is answered or its context ends; an answer that
// is already in wins over a context that ended afterwards.
func (sub *submission) wait() (*Result, error) {
	select {
	case <-sub.ready:
		return sub.res, sub.err
	default:
	}
	select {
	case <-sub.ready:
		return sub.res, sub.err
	case <-sub.ctx.Done():
		return nil, sub.ctx.Err()
	}
}

// admit admits subs as one group, or sheds every one of them: queued as
// one entry for the collector, or (direct mode) solved right here.
func (b *Batcher) admit(subs []*submission) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrBatcherClosed
	}
	if !b.reserve(len(subs)) {
		b.mu.RUnlock()
		for _, sub := range subs {
			b.recordShed(sub, ErrOverloaded)
		}
		return ErrOverloaded
	}
	if !b.direct {
		b.queue <- subs
		b.mu.RUnlock()
		return nil
	}
	b.inflight.Add(1)
	b.mu.RUnlock()
	defer func() {
		b.queued.Add(-int64(len(subs)))
		b.inflight.Done()
	}()
	b.solveDirect(subs)
	return nil
}

// reserve claims n submissions of QueueCap, all or nothing.
func (b *Batcher) reserve(n int) bool {
	for {
		cur := b.queued.Load()
		if cur+int64(n) > int64(b.cfg.QueueCap) {
			return false
		}
		if b.queued.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// solveDirect is the MaxDelay = 0 path: no window, the group solves at
// once in the caller's goroutine — a lone request through Solve, a batch
// body through one SolveBatch — still bounded by QueueCap and honouring
// Close.
func (b *Batcher) solveDirect(subs []*submission) {
	var start time.Time
	for _, sub := range subs {
		if len(sub.traces) > 0 {
			if start.IsZero() {
				start = b.clock.Now()
			}
			// Direct mode has no window: the slot wait is the queue stage
			// and the solve runs immediately after.
			sub.queueStage(start)
			sub.flushAt = start
		}
	}
	if len(subs) > 1 {
		b.solveWindow(subs)
		return
	}
	sub := subs[0]
	res, err := b.s.Solve(sub.ctx, sub.req)
	b.answer(nil, sub, res, err, true)
}

// answer answers sub with res and err. A solved submission also records
// its solve stage (flush → now) and, on success, its SLO outcome: a late
// answer counts as a violation of its class. An abandoned one, answered
// with its ctx.Err() instead of being solved, does neither. unanswered
// counts the unanswered submissions of the flushed window sub rides (nil
// outside one, as in direct mode): the window leaves flight just before
// its last answer, so a caller that submits again on its answer already
// finds a worker idle.
func (b *Batcher) answer(unanswered *atomic.Int64, sub *submission, res *Result, err error, solved bool) {
	sub.res, sub.err = res, err
	if solved {
		if len(sub.traces) > 0 {
			sub.stage("solve", sub.flushAt, b.clock.Now())
		}
		if err == nil && !sub.deadline.IsZero() && b.clock.Now().After(sub.deadline) {
			b.s.violationsByClass.Add(sub.class.Name, 1)
		}
	}
	if unanswered != nil && unanswered.Add(-1) == 0 {
		b.inFlight.Add(-1)
	}
	close(sub.ready)
}

// Close stops admission and drains: every queued submission is still
// flushed, solved and answered before Close returns. Further Submits
// report ErrBatcherClosed. In synchronous mode the filling window is
// flushed through OnWindow; completing it stays with the owner.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		if b.queue != nil {
			close(b.queue)
		}
		if b.cfg.OnWindow != nil {
			b.col.flush(flushClose)
		}
	}
	b.mu.Unlock()
	b.inflight.Wait()
	b.wg.Wait()
}

// Stats returns the batcher's admission gauges.
func (b *Batcher) Stats() BatcherStats {
	depth := int(b.queued.Load())
	if b.cfg.OnWindow != nil {
		depth = b.outstanding
	}
	return BatcherStats{QueueDepth: depth, WindowFill: int(b.fill.Load())}
}

// admitOrShed applies the deadline-aware admission check to a collected
// submission: a deadline-carrying request whose estimated completion
// (remaining window wait, backlog of windows ahead, its own solve)
// already exceeds its deadline is shed now rather than solved into a
// certain violation. flushAt is the scheduled flush of the filling
// window (zero when this submission opens one). Reports whether the
// submission was admitted.
func (b *Batcher) admitOrShed(sub *submission, flushAt time.Time) bool {
	if b.adapt == nil || sub.deadline.IsZero() {
		return true
	}
	now := b.clock.Now()
	if b.adapt.estCompletion(now, flushAt, b.cfg.Workers).After(sub.deadline) {
		b.recordShed(sub, ErrSLOUnmeetable)
		return false
	}
	return true
}

// dropDoomed re-applies the deadline check at flush time — the estimate
// may have soured while the window filled — and sheds submissions that
// can no longer make their deadline. Returns the surviving window.
func (b *Batcher) dropDoomed(win []*submission) []*submission {
	if b.adapt == nil {
		return win
	}
	now := b.clock.Now()
	est := b.adapt.estCompletion(now, time.Time{}, b.cfg.Workers)
	live := win[:0]
	for _, sub := range win {
		if !sub.deadline.IsZero() && est.After(sub.deadline) {
			b.recordShed(sub, ErrSLOUnmeetable)
			continue
		}
		live = append(live, sub)
	}
	return live
}

// flushReason names what flushed a window.
type flushReason int

const (
	flushIdle  flushReason = iota // a drain worker was free and nothing else was queued
	flushSize                     // the window reached its size threshold
	flushTimer                    // the window delay passed
	flushClose                    // Close drained the filling window
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"idle", "size", "timer", "close"}

func (r flushReason) String() string { return flushReasonNames[r] }

// stageFlush records the admission stages of a flushed window on every
// traced submission — queue_wait (trace start → admission) and window_wait
// (admission → this flush, annotated with the window id, its fill and
// the flush reason, so a slow window_wait says whether the workers were
// busy) — and stamps flushAt, where the solve stage picks up.
func (b *Batcher) stageFlush(win []*submission, id uint64, reason flushReason) {
	var now time.Time
	for _, sub := range win {
		if len(sub.traces) == 0 {
			continue
		}
		if now.IsZero() {
			now = b.clock.Now()
		}
		sub.flushAt = now
		sub.queueStage(sub.admitAt)
		sub.stage("window_wait", sub.admitAt, now,
			obs.Uint64("window", id), obs.Int("fill", len(win)), obs.String("flush", reason.String()))
	}
}

// collector is the admission core both transports run. It owns the
// filling window, its size threshold and its flush deadline; join admits
// one queue entry and flush hands a window to the sink (the drain
// workers' channel in goroutine mode, OnWindow in synchronous mode). It
// is single-threaded: the collect goroutine owns it, or in synchronous
// mode the owner's serialized calls.
type collector struct {
	b        *Batcher
	win      []*submission
	size     int
	deadline time.Time // the open window's flush time
	sink     func([]*submission)
}

// join admits one queue entry (a Submit or a SubmitBatch body) into
// windows in slot order, flushing partway through whenever a window
// fills. Once the whole entry is in, the window flushes at once if a
// drain worker is idle (fewer than Workers windows in flight), unless
// more entries are already queued to join it.
func (c *collector) join(subs []*submission, more bool) {
	b := c.b
	for _, sub := range subs {
		if err := sub.ctx.Err(); err != nil {
			// Abandoned while queued; answer without admitting so the
			// adaptive estimates only see live traffic.
			b.answer(nil, sub, nil, err, false)
			continue
		}
		if !b.admitOrShed(sub, c.deadline) {
			continue
		}
		if len(sub.traces) > 0 {
			sub.admitAt = b.clock.Now()
		}
		c.win = append(c.win, sub)
		b.fill.Store(int64(len(c.win)))
		if len(c.win) == 1 {
			now := b.clock.Now()
			c.size, c.deadline = b.cfg.MaxSize, now.Add(b.cfg.MaxDelay)
			if b.adapt != nil {
				c.size = b.adapt.windowSize(b.cfg.MaxSize)
				c.deadline = now.Add(b.adapt.windowDelay(now, sub.deadline))
			}
		}
		if len(c.win) >= c.size {
			c.flush(flushSize)
		}
	}
	if len(c.win) > 0 && !more && b.inFlight.Load() < int64(b.cfg.Workers) {
		c.flush(flushIdle)
	}
}

// flush sheds the window's doomed submissions, counts the flush (hook,
// counters, the in-flight count), records its admission stages and hands
// the survivors to the sink. No-op when no window is open.
func (c *collector) flush(reason flushReason) {
	if len(c.win) == 0 {
		return
	}
	b := c.b
	win := b.dropDoomed(c.win)
	c.win, c.deadline = nil, time.Time{}
	b.fill.Store(0)
	if len(win) == 0 {
		return
	}
	if b.cfg.OnFlush != nil {
		b.cfg.OnFlush(len(win))
	}
	b.inFlight.Add(1)
	b.s.flushes[reason].Add(1)
	id := b.s.windows.Add(1)
	if len(win) >= 2 {
		b.s.batchedWindows.Add(1)
		b.s.batchedRequests.Add(uint64(len(win)))
	}
	b.stageFlush(win, id, reason)
	c.sink(win)
}

// collect is goroutine mode's transport around the collector: it feeds
// it queue entries and window timer expiries, keeping one timer armed for
// the open window's deadline.
func (b *Batcher) collect() {
	defer b.wg.Done()
	defer close(b.flushes)
	c := &b.col
	var (
		timer Timer
		fire  <-chan time.Time
		armed time.Time
	)
	for {
		select {
		case subs, ok := <-b.queue:
			if !ok {
				if timer != nil {
					timer.Stop()
				}
				c.flush(flushClose)
				return
			}
			b.queued.Add(-int64(len(subs)))
			c.join(subs, len(b.queue) > 0)
		case <-fire:
			timer, fire = nil, nil
			c.flush(flushTimer)
		}
		// Keep one timer armed for the open window's deadline.
		if timer != nil && !armed.Equal(c.deadline) {
			timer.Stop()
			timer, fire = nil, nil
		}
		if timer == nil && len(c.win) > 0 {
			armed = c.deadline
			timer = b.clock.NewTimer(armed.Sub(b.clock.Now()))
			fire = timer.C()
		}
	}
}

// drain solves flushed windows.
func (b *Batcher) drain() {
	defer b.wg.Done()
	for win := range b.flushes {
		b.solveWindow(win)
	}
}

// solveWindow answers every submission of one window with a single
// SolveBatch, each as soon as its dedup group is solved: a request never
// waits for a slower group it merely shared the window with. Submissions
// whose context is already done are answered with their ctx.Err() without
// solving; the batch context propagates the callers' deadlines and
// cancellations (see windowContext). The window leaves the in-flight
// count just before its last submission is answered, so a caller that
// submits again on its answer already finds a worker idle. The adaptive
// controller still observes the whole window, which is how long it held
// a drain worker.
func (b *Batcher) solveWindow(win []*submission) {
	groups := 0
	start := b.clock.Now()
	if b.adapt != nil {
		defer func() { b.adapt.observeSolve(b.clock.Now().Sub(start), groups) }()
	}
	var unanswered *atomic.Int64
	if !b.direct { // direct-mode bodies are never counted in flight
		unanswered = new(atomic.Int64)
		unanswered.Store(int64(len(win)))
	}
	// A fresh slice: a direct-mode window is the caller's own body.
	live := make([]*submission, 0, len(win))
	for _, sub := range win {
		if err := sub.ctx.Err(); err != nil {
			b.answer(unanswered, sub, nil, err, false)
			continue
		}
		live = append(live, sub)
	}
	if len(live) == 0 {
		return
	}
	ctx, cancel := b.windowContext(live)
	if cancel != nil {
		defer cancel()
	}
	reqs := make([]Request, len(live))
	var traces [][]*obs.Trace
	for i, sub := range live {
		reqs[i] = sub.req
		if len(sub.traces) > 0 {
			if traces == nil {
				traces = make([][]*obs.Trace, len(live))
			}
			traces[i] = sub.traces
		}
	}
	groups = b.s.solveBatchTraced(ctx, reqs, traces, func(i int, res *Result, err error) {
		b.answer(unanswered, live[i], res, err, true)
	})
}

// windowContext derives the context a window is solved under. A window
// whose submissions share one context (the SolveStream case) solves under
// it directly. A mixed window solves under a derived context that carries
// the latest deadline across the window — no caller's budget is silently
// extended past the solver timeout — and is cancelled once every caller
// has gone away, so abandoned windows stop burning CPU. If any submission
// is uncancellable (context.Background), the window is too.
func (b *Batcher) windowContext(live []*submission) (context.Context, context.CancelFunc) {
	shared := live[0].ctx
	for _, sub := range live[1:] {
		if sub.ctx != shared {
			shared = nil
			break
		}
	}
	if shared != nil {
		return shared, nil
	}
	var latest time.Time
	haveDeadlines := true
	for _, sub := range live {
		if sub.ctx.Done() == nil {
			// An uncancellable caller keeps the window alive regardless of
			// the others, so there is nothing to watch.
			return context.Background(), nil
		}
		if d, ok := sub.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			haveDeadlines = false
		}
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if haveDeadlines {
		ctx, cancel = b.clock.ContextWithDeadline(context.Background(), latest)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	// Cancel the window once every caller is gone. AfterFunc registrations
	// instead of watcher goroutines: windows flush at serving rate, and
	// the returned cleanup drops the registrations with the window.
	remaining := new(atomic.Int64)
	remaining.Store(int64(len(live)))
	stops := make([]func() bool, len(live))
	for i, sub := range live {
		stops[i] = context.AfterFunc(sub.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	cleanup := func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
	return ctx, cleanup
}

// String renders the batcher configuration compactly (for logs).
func (b *Batcher) String() string {
	mode := "fixed"
	if b.adapt != nil {
		mode = "adaptive"
	}
	return fmt.Sprintf("batcher(window=%v size=%d queue=%d workers=%d mode=%s)",
		b.cfg.MaxDelay, b.cfg.MaxSize, b.cfg.QueueCap, b.cfg.Workers, mode)
}
