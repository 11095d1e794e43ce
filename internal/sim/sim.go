package sim

import (
	"bufio"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/dls"
	"repro/internal/obs"
)

// Config parameterizes one simulation run. Zero values take the defaults
// documented per field; exactly the randomness reachable from Seed is
// used, so a (Config, Seed) pair is a reproducible experiment.
type Config struct {
	// Seed seeds the run's single random stream.
	Seed int64
	// Horizon bounds virtual time: no arrival is generated after it.
	Horizon time.Duration
	// MaxArrivals bounds the number of generated arrivals (0: only
	// Horizon bounds the run). At least one of the two must be set.
	MaxArrivals int
	// Process generates the arrival sequence. Required.
	Process Process

	// Classes are the SLO classes offered, with Shares their relative
	// traffic fractions (normalized; zero Shares means uniform). Default:
	// dls.DefaultSLOClasses with shares 0.3 / 0.5 / 0.2.
	Classes []dls.SLOClass
	Shares  []float64

	// Platforms is the size of the hot problem pool: distinct platforms,
	// each contributing one chain-kind and one search-kind request.
	// Smaller pools mean more duplicate collapse per window. Default 32.
	Platforms int
	// P is the worker count of each generated platform. Default 6.
	P int
	// SearchShare is the fraction of arrivals that are search-kind
	// (exhaustive-order solves, ~100× a chain solve). The zero value runs
	// a chain-only mix; dlssim's default is 0.1.
	SearchShare float64
	// ZipfS skews platform popularity (s > 1: rand.Zipf; else uniform).
	// Default 1.1 — a hot head like a production key distribution.
	ZipfS float64
	// Cost is the virtual service-time model. Default DefaultCostModel.
	Cost CostModel

	// Window, WindowSize, QueueCap and Drain configure the batcher
	// (BatcherConfig MaxDelay / MaxSize / QueueCap / Workers). Defaults
	// 2ms / 64 / 1024 / 2 — dlsd's defaults.
	Window     time.Duration
	WindowSize int
	QueueCap   int
	Drain      int
	// Adaptive enables the adaptive admission policy.
	Adaptive bool

	// Failures injects replica crashes (see Failure and ParseFailures):
	// in-flight windows fail with ErrReplicaCrashed, arrivals during the
	// downtime are lost, and service resumes at At+Down.
	Failures []Failure

	// Log, when set, receives the JSONL event log (arrive / shed / flush
	// / done lines in virtual-time order — byte-identical across runs of
	// the same seeded config).
	Log io.Writer

	// Trace runs every admitted arrival under an internal/obs trace on
	// the virtual clock: stage timestamps are virtual times, trace ids are
	// the sequential arrival ids, and the Report gains a Tracing section
	// aggregating per-stage totals — all pure functions of the Config, so
	// traced runs stay byte-deterministic.
	Trace bool
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Classes) == 0 {
		cfg.Classes = dls.DefaultSLOClasses()
		cfg.Shares = []float64{0.3, 0.5, 0.2}
	}
	if len(cfg.Shares) != len(cfg.Classes) {
		cfg.Shares = make([]float64, len(cfg.Classes))
		for i := range cfg.Shares {
			cfg.Shares[i] = 1
		}
	}
	if cfg.Platforms <= 0 {
		cfg.Platforms = 32
	}
	if cfg.P <= 0 {
		cfg.P = 6
	}
	if cfg.SearchShare < 0 {
		cfg.SearchShare = 0
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if len(cfg.Cost.Kinds) == 0 {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Millisecond
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2
	}
	return cfg
}

// Report is the outcome of a run. Everything marshalled to JSON is a
// pure function of the Config (including Seed) — wall-clock measurements
// ride along unexported from the JSON so CI can compare reports
// byte-for-byte across runs.
type Report struct {
	Scenario       string                  `json:"scenario,omitempty"`
	Seed           int64                   `json:"seed"`
	Mode           string                  `json:"mode"` // "fixed" | "adaptive"
	WindowMS       float64                 `json:"window_ms"`
	WindowSize     int                     `json:"window_size"`
	QueueCap       int                     `json:"queue_cap"`
	Drain          int                     `json:"drain"`
	VirtualSeconds float64                 `json:"virtual_seconds"`
	Arrivals       int64                   `json:"arrivals"`
	Completed      int64                   `json:"completed"`
	Shed           int64                   `json:"shed"`
	ShedSLO        int64                   `json:"shed_slo"`
	Violations     int64                   `json:"violations"`
	Windows        int64                   `json:"windows"`
	AvgWindowFill  float64                 `json:"avg_window_fill"`
	CollapseRatio  float64                 `json:"collapse_ratio"` // requests per dedup group
	Crashes        int64                   `json:"crashes,omitempty"`
	CrashFailed    int64                   `json:"crash_failed,omitempty"` // in-flight requests failed by crashes
	CrashLost      int64                   `json:"crash_lost,omitempty"`   // arrivals lost while the replica was down
	Classes        map[string]*ClassReport `json:"classes"`
	WindowTrace    []WindowSample          `json:"window_trace,omitempty"`
	Events         int64                   `json:"events"`
	// Traces counts finished request traces and Tracing aggregates their
	// stages by name (Config.Trace; virtual-time durations, deterministic).
	Traces  int64                `json:"traces,omitempty"`
	Tracing map[string]*StageAgg `json:"tracing,omitempty"`

	// WallSeconds is how long the run took in real time. Excluded from
	// the JSON: it would break byte-identical determinism.
	WallSeconds float64 `json:"-"`
}

// ClassReport is the per-SLO-class outcome.
type ClassReport struct {
	Arrivals   int64   `json:"arrivals"`
	Completed  int64   `json:"completed"`
	Shed       int64   `json:"shed"`
	ShedSLO    int64   `json:"shed_slo"`
	Failed     int64   `json:"failed,omitempty"` // crash-failed in-flight + arrivals lost to downtime
	Violations int64   `json:"violations"`
	ShedRate   float64 `json:"shed_rate"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// StageAgg aggregates one trace stage across a run: how often it was
// recorded, its total virtual duration and its maximum.
type StageAgg struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// WindowSample is one decimated point of the window-size trace.
type WindowSample struct {
	TNanos  int64 `json:"t"`
	Size    int   `json:"n"`
	Groups  int   `json:"g"`
	Backlog int   `json:"backlog"` // windows flushed or queued, not yet completed
	DelayNS int64 `json:"delay_ns"`
}

// arrivalMeta links a batcher submission back to its arrival record; it
// rides on the submission as its tag.
type arrivalMeta struct {
	id    int64
	at    time.Time
	class string
	kind  string
	pb    int
	trace *obs.Trace // Config.Trace: finished where the arrival is answered
}

// event is one scheduled occurrence on the virtual timeline. seq breaks
// time ties in schedule order, which makes the event order — and hence
// the whole run — deterministic.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// job is one flushed window awaiting (or in) virtual service. failed is
// set when an injected crash already answered the window, so the stale
// finishService event recognizes itself and does nothing.
type job struct {
	win    *dls.Window
	kinds  []string
	failed bool
}

type classAcc struct {
	arrivals, completed, shed, shedSLO, failed, violations int64
	lat                                                    []time.Duration
}

// simulator is the single-threaded event-loop state.
type simulator struct {
	cfg    Config
	clock  *Clock
	rng    *rand.Rand
	zipf   *rand.Zipf
	events eventHeap
	seq    uint64
	err    error

	solver *dls.Solver
	b      *dls.Batcher

	chainReqs  []dls.Request
	searchReqs []dls.Request

	shareCum []float64

	winGen          int64
	expiryScheduled int64

	busy      int
	ready     []*job
	readyHead int
	inService []*job

	down                            bool
	crashes, crashFailed, crashLost int64

	nextID      int64
	generated   int
	lastArrival time.Time
	horizonEnd  time.Time

	perClass map[string]*classAcc

	flushes, sizeSum, groupSum int64
	trace                      []WindowSample
	traceStride, flushIdx      int64

	log        *bufio.Writer
	eventCount int64

	rec      *obs.Recorder // Config.Trace: recorder on the virtual clock
	traced   int64
	stageAgg map[string]*StageAgg
}

// Run executes one simulation.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Process == nil {
		return nil, errors.New("sim: Config.Process is required")
	}
	if cfg.Horizon <= 0 && cfg.MaxArrivals <= 0 {
		return nil, errors.New("sim: set Config.Horizon or Config.MaxArrivals")
	}
	solver, err := dls.NewSolver()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	s := &simulator{
		cfg:             cfg,
		clock:           NewClock(),
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		solver:          solver,
		expiryScheduled: -1,
		traceStride:     1,
		perClass:        make(map[string]*classAcc, len(cfg.Classes)),
	}
	if cfg.ZipfS > 1 && cfg.Platforms > 1 {
		s.zipf = rand.NewZipf(s.rng, cfg.ZipfS, 1, uint64(cfg.Platforms-1))
	}
	if cfg.Log != nil {
		s.log = bufio.NewWriterSize(cfg.Log, 1<<16)
	}
	for _, c := range cfg.Classes {
		s.perClass[c.Name] = &classAcc{}
	}
	if cfg.Trace {
		s.rec = obs.NewRecorder(obs.RecorderConfig{Now: s.clock.Now})
		s.stageAgg = make(map[string]*StageAgg)
	}
	s.buildPool()
	s.buildShares()

	s.b = solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: cfg.Window,
		MaxSize:  cfg.WindowSize,
		QueueCap: cfg.QueueCap,
		Workers:  cfg.Drain,
		Clock:    s.clock,
		Classes:  cfg.Classes,
		Adaptive: cfg.Adaptive,
		OnWindow: s.onWindow,
		OnShed:   s.onShed,
	})
	defer s.b.Close()

	if cfg.Horizon > 0 {
		s.horizonEnd = Epoch.Add(cfg.Horizon)
	} else {
		s.horizonEnd = Epoch.Add(1<<62 - 1)
	}
	s.lastArrival = Epoch

	start := time.Now()
	s.scheduleNextArrival()
	for _, f := range cfg.Failures {
		f := f
		s.schedule(Epoch.Add(f.At), func() { s.crash(f.Down) })
	}
	for len(s.events) > 0 && s.err == nil {
		ev := heap.Pop(&s.events).(*event)
		s.clock.AdvanceTo(ev.at)
		ev.fn()
		s.eventCount++
	}
	if s.err != nil {
		return nil, s.err
	}
	// Flush whatever window is still open (arrivals can end before its
	// expiry event fires usefully — ExpireWindow is a no-op when empty).
	s.b.ExpireWindow()
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		s.clock.AdvanceTo(ev.at)
		ev.fn()
		s.eventCount++
	}
	if s.log != nil {
		if err := s.log.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("sim: event log: %w", err)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	rep := s.report()
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// buildPool draws the hot problem pool: Platforms random platforms, each
// prebuilt into one chain request (INC_C, the closed-form path) and one
// exhaustive-search request. Reusing the built Request values makes
// same-(platform, kind) arrivals literally identical requests, so the
// batcher's dedup collapses them exactly as it would in dlsd.
func (s *simulator) buildPool() {
	s.chainReqs = make([]dls.Request, s.cfg.Platforms)
	s.searchReqs = make([]dls.Request, s.cfg.Platforms)
	for i := 0; i < s.cfg.Platforms; i++ {
		plat := dls.RandomSpeeds(s.rng, s.cfg.P, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		s.chainReqs[i] = dls.Request{Platform: plat, Strategy: dls.StrategyIncC, Load: 1000}
		s.searchReqs[i] = dls.Request{Platform: plat, Strategy: dls.StrategyFIFOExhaustive}
	}
}

func (s *simulator) buildShares() {
	s.shareCum = make([]float64, len(s.cfg.Shares))
	var sum float64
	for _, w := range s.cfg.Shares {
		if w < 0 {
			w = 0
		}
		sum += w
	}
	if sum <= 0 {
		sum = float64(len(s.cfg.Shares))
	}
	acc := 0.0
	for i, w := range s.cfg.Shares {
		if w < 0 {
			w = 0
		}
		acc += w / sum
		s.shareCum[i] = acc
	}
	s.shareCum[len(s.shareCum)-1] = 1
}

func (s *simulator) schedule(at time.Time, fn func()) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// scheduleNextArrival draws the next inter-arrival gap and schedules the
// arrival, unless the horizon or arrival budget is exhausted. Generation
// happens at fire time of the previous arrival, so all randomness stays
// on one stream in one deterministic order.
func (s *simulator) scheduleNextArrival() {
	if s.cfg.MaxArrivals > 0 && s.generated >= s.cfg.MaxArrivals {
		return
	}
	arr, ok := s.cfg.Process.Next(s.rng)
	if !ok {
		return
	}
	at := s.lastArrival.Add(arr.Gap)
	if at.After(s.horizonEnd) {
		return
	}
	s.lastArrival = at
	s.generated++
	s.schedule(at, func() {
		s.admit(arr)
		s.scheduleNextArrival()
	})
}

// admit injects one arrival into the batcher.
func (s *simulator) admit(arr Arrival) {
	now := s.clock.Now()
	pb := arr.Platform
	if pb < 0 || pb >= s.cfg.Platforms {
		pb = s.drawPlatform()
	}
	kind := arr.Kind
	if kind == "" {
		kind = "chain"
		if s.rng.Float64() < s.cfg.SearchShare {
			kind = "search"
		}
	}
	class := arr.Class
	if class == "" {
		class = s.drawClass()
	}
	req := s.chainReqs[pb]
	if kind == "search" {
		req = s.searchReqs[pb]
	}
	s.nextID++
	meta := &arrivalMeta{id: s.nextID, at: now, class: class, kind: kind, pb: pb}
	if acc := s.perClass[class]; acc != nil {
		acc.arrivals++
	}
	if s.down {
		// The replica is dark: the arrival never reaches admission
		// (connection refused) and is lost.
		s.crashLost++
		if acc := s.perClass[class]; acc != nil {
			acc.failed++
		}
		s.logf(`{"t":%d,"e":"lost","id":%d,"class":%q}`+"\n", s.tns(now), meta.id, class)
		return
	}
	s.logf(`{"t":%d,"e":"arrive","id":%d,"class":%q,"kind":%q,"pb":%d}`+"\n",
		s.tns(now), meta.id, class, kind, pb)
	ctx := context.Background()
	if s.rec != nil {
		// Deterministic trace id: the sequential arrival id, zero-padded
		// to the 32-hex traceparent shape (no randomness in traced runs).
		meta.trace = s.rec.StartTrace(kind, fmt.Sprintf("%032x", uint64(meta.id)), "")
		ctx = obs.ContextWithTrace(ctx, meta.trace)
	}
	if _, err := s.b.Offer(ctx, req, class, meta); err != nil {
		s.err = fmt.Errorf("sim: offer: %w", err)
		return
	}
	s.armExpiry()
}

// armExpiry schedules the window-expiry event for the currently filling
// window, once per window generation. Stale events (their window already
// flushed by size) recognize themselves by generation and do nothing.
func (s *simulator) armExpiry() {
	dl, ok := s.b.WindowDeadline()
	if !ok || s.expiryScheduled == s.winGen {
		return
	}
	gen := s.winGen
	s.expiryScheduled = gen
	s.schedule(dl, func() {
		if gen == s.winGen {
			s.b.ExpireWindow()
		}
	})
}

func (s *simulator) drawPlatform() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	if s.cfg.Platforms == 1 {
		return 0
	}
	return s.rng.Intn(s.cfg.Platforms)
}

func (s *simulator) drawClass() string {
	u := s.rng.Float64()
	for i, cum := range s.shareCum {
		if u < cum {
			return s.cfg.Classes[i].Name
		}
	}
	return s.cfg.Classes[len(s.cfg.Classes)-1].Name
}

// onShed observes every shed, at admission or at flush, via the
// batcher's hook.
func (s *simulator) onShed(class string, tag any, err error) {
	slo := errors.Is(err, dls.ErrSLOUnmeetable)
	acc := s.perClass[class]
	if acc == nil {
		acc = &classAcc{}
		s.perClass[class] = acc
	}
	acc.shed++
	if slo {
		acc.shedSLO++
	}
	id := int64(0)
	if m, ok := tag.(*arrivalMeta); ok {
		id = m.id
		m.trace.Annotate(obs.Bool("shed", true))
		s.finishTrace(m)
	}
	s.logf(`{"t":%d,"e":"shed","id":%d,"class":%q,"slo":%t}`+"\n",
		s.tns(s.clock.Now()), id, class, slo)
}

// onWindow receives each flushed window from the batcher and routes it
// into the Drain-bounded virtual service stage.
func (s *simulator) onWindow(w *dls.Window) {
	s.winGen++
	if s.down {
		// The crash flushed the filling window (or a stale expiry fired
		// during the blackout): everything in it dies with the replica.
		s.failWindow(w)
		return
	}
	s.flushes++
	s.sizeSum += int64(w.Size())
	s.groupSum += int64(w.Groups())
	s.sampleWindow(w)

	j := &job{win: w, kinds: s.windowKinds(w)}
	backlog := s.busy + (len(s.ready) - s.readyHead)
	s.logf(`{"t":%d,"e":"flush","n":%d,"g":%d,"backlog":%d}`+"\n",
		s.tns(w.FlushedAt()), w.Size(), w.Groups(), backlog)
	if s.busy < s.cfg.Drain {
		s.startService(j)
	} else {
		s.ready = append(s.ready, j)
	}
}

// windowKinds lists the window's deduplicated (platform, kind) groups in
// first-seen order — the unit the cost model prices.
func (s *simulator) windowKinds(w *dls.Window) []string {
	seen := make(map[int]struct{}, w.Size())
	kinds := make([]string, 0, w.Size())
	for i := 0; i < w.Size(); i++ {
		m, ok := w.Tag(i).(*arrivalMeta)
		if !ok {
			kinds = append(kinds, "chain")
			continue
		}
		key := m.pb << 1
		if m.kind == "search" {
			key |= 1
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		kinds = append(kinds, m.kind)
	}
	return kinds
}

func (s *simulator) startService(j *job) {
	s.busy++
	s.inService = append(s.inService, j)
	cost := s.cfg.Cost.WindowCost(s.rng, j.kinds)
	s.schedule(s.clock.Now().Add(cost), func() { s.finishService(j, cost) })
}

// crash fires one injected replica failure: every window in service or
// queued fails with ErrReplicaCrashed, the filling window is flushed
// into the same fate, and arrivals are lost until the restart fires
// `down` later. A crash while already down is ignored (the blackout in
// progress already covers it).
func (s *simulator) crash(down time.Duration) {
	if s.down {
		return
	}
	now := s.clock.Now()
	s.down = true
	s.crashes++
	s.logf(`{"t":%d,"e":"crash","down":%d}`+"\n", s.tns(now), int64(down))
	for _, j := range s.inService {
		j.failed = true
		s.failWindow(j.win)
	}
	s.inService = s.inService[:0]
	s.busy = 0
	for i := s.readyHead; i < len(s.ready); i++ {
		s.failWindow(s.ready[i].win)
	}
	s.ready = s.ready[:0]
	s.readyHead = 0
	s.b.ExpireWindow() // the filling window fails via the down-path in onWindow
	s.schedule(now.Add(down), s.restore)
}

func (s *simulator) restore() {
	s.down = false
	s.logf(`{"t":%d,"e":"restore"}`+"\n", s.tns(s.clock.Now()))
}

// failWindow answers every submission of w with ErrReplicaCrashed.
func (s *simulator) failWindow(w *dls.Window) {
	errs := make([]error, w.Size())
	for i := range errs {
		errs[i] = ErrReplicaCrashed
	}
	if err := w.Complete(nil, errs); err != nil {
		s.err = fmt.Errorf("sim: %w", err)
		return
	}
	for i := 0; i < w.Size(); i++ {
		if m, ok := w.Tag(i).(*arrivalMeta); ok {
			if acc := s.perClass[m.class]; acc != nil {
				acc.failed++
			}
			m.trace.Annotate(obs.String("error", ErrReplicaCrashed.Error()))
			s.finishTrace(m)
		}
	}
	s.crashFailed += int64(w.Size())
	s.logf(`{"t":%d,"e":"crash-fail","n":%d}`+"\n", s.tns(s.clock.Now()), w.Size())
}

func (s *simulator) finishService(j *job, cost time.Duration) {
	if j.failed {
		// A crash already answered this window; busy/ready were reset.
		return
	}
	for i, sj := range s.inService {
		if sj == j {
			s.inService[i] = s.inService[len(s.inService)-1]
			s.inService = s.inService[:len(s.inService)-1]
			break
		}
	}
	now := s.clock.Now()
	w := j.win
	if err := w.Complete(nil, nil); err != nil {
		s.err = fmt.Errorf("sim: %w", err)
		return
	}
	for i := 0; i < w.Size(); i++ {
		m, ok := w.Tag(i).(*arrivalMeta)
		if !ok {
			continue
		}
		s.finishTrace(m)
		acc := s.perClass[m.class]
		if acc == nil {
			continue
		}
		acc.completed++
		acc.lat = append(acc.lat, now.Sub(m.at))
		if dl := w.Deadline(i); !dl.IsZero() && now.After(dl) {
			acc.violations++
		}
	}
	s.logf(`{"t":%d,"e":"done","n":%d,"svc":%d}`+"\n", s.tns(now), w.Size(), int64(cost))
	s.busy--
	if s.readyHead < len(s.ready) {
		next := s.ready[s.readyHead]
		s.ready[s.readyHead] = nil
		s.readyHead++
		if s.readyHead == len(s.ready) {
			s.ready = s.ready[:0]
			s.readyHead = 0
		}
		s.startService(next)
	}
}

// sampleWindow records the window-size trace, decimating by powers of
// two so the trace stays bounded (≤ 512 samples) and deterministic.
func (s *simulator) sampleWindow(w *dls.Window) {
	if s.flushIdx%s.traceStride == 0 {
		delay := s.cfg.Window
		if st, ok := s.b.AdaptiveState(); ok {
			delay = st.WindowDelay
		}
		s.trace = append(s.trace, WindowSample{
			TNanos:  s.tns(w.FlushedAt()),
			Size:    w.Size(),
			Groups:  w.Groups(),
			Backlog: s.busy + (len(s.ready) - s.readyHead),
			DelayNS: int64(delay),
		})
		if len(s.trace) == 512 {
			keep := s.trace[:0]
			for i := 0; i < len(s.trace); i += 2 {
				keep = append(keep, s.trace[i])
			}
			s.trace = keep
			s.traceStride *= 2
		}
	}
	s.flushIdx++
}

// finishTrace seals one arrival's trace into the recorder and folds its
// stages into the per-stage aggregates for the Report. Events fire in
// deterministic virtual-time order, so the aggregates are a pure
// function of the Config.
func (s *simulator) finishTrace(m *arrivalMeta) {
	if s.rec == nil || m.trace == nil {
		return
	}
	d := s.rec.Finish(m.trace)
	m.trace = nil
	s.traced++
	for _, st := range d.Stages {
		agg := s.stageAgg[st.Name]
		if agg == nil {
			agg = &StageAgg{}
			s.stageAgg[st.Name] = agg
		}
		agg.Count++
		agg.TotalNS += st.DurationNS
		if st.DurationNS > agg.MaxNS {
			agg.MaxNS = st.DurationNS
		}
	}
}

func (s *simulator) tns(t time.Time) int64 { return t.Sub(Epoch).Nanoseconds() }

func (s *simulator) logf(format string, args ...any) {
	if s.log == nil {
		return
	}
	if _, err := fmt.Fprintf(s.log, format, args...); err != nil && s.err == nil {
		s.err = fmt.Errorf("sim: event log: %w", err)
	}
}

func (s *simulator) report() *Report {
	mode := "fixed"
	if s.cfg.Adaptive {
		mode = "adaptive"
	}
	rep := &Report{
		Seed:           s.cfg.Seed,
		Mode:           mode,
		WindowMS:       float64(s.cfg.Window) / float64(time.Millisecond),
		WindowSize:     s.cfg.WindowSize,
		QueueCap:       s.cfg.QueueCap,
		Drain:          s.cfg.Drain,
		VirtualSeconds: s.clock.Now().Sub(Epoch).Seconds(),
		Windows:        s.flushes,
		Crashes:        s.crashes,
		CrashFailed:    s.crashFailed,
		CrashLost:      s.crashLost,
		Classes:        make(map[string]*ClassReport, len(s.perClass)),
		WindowTrace:    s.trace,
		Events:         s.eventCount,
		Traces:         s.traced,
		Tracing:        s.stageAgg,
	}
	if s.flushes > 0 {
		rep.AvgWindowFill = float64(s.sizeSum) / float64(s.flushes)
	}
	if s.groupSum > 0 {
		rep.CollapseRatio = float64(s.sizeSum) / float64(s.groupSum)
	}
	names := make([]string, 0, len(s.perClass))
	for name := range s.perClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		acc := s.perClass[name]
		cr := &ClassReport{
			Arrivals:   acc.arrivals,
			Completed:  acc.completed,
			Shed:       acc.shed,
			ShedSLO:    acc.shedSLO,
			Failed:     acc.failed,
			Violations: acc.violations,
		}
		if acc.arrivals > 0 {
			cr.ShedRate = float64(acc.shed) / float64(acc.arrivals)
		}
		if len(acc.lat) > 0 {
			sort.Slice(acc.lat, func(i, j int) bool { return acc.lat[i] < acc.lat[j] })
			cr.P50MS = latPctMS(acc.lat, 0.50)
			cr.P90MS = latPctMS(acc.lat, 0.90)
			cr.P99MS = latPctMS(acc.lat, 0.99)
			cr.MaxMS = float64(acc.lat[len(acc.lat)-1]) / float64(time.Millisecond)
		}
		rep.Classes[name] = cr
		rep.Arrivals += acc.arrivals
		rep.Completed += acc.completed
		rep.Shed += acc.shed
		rep.ShedSLO += acc.shedSLO
		rep.Violations += acc.violations
	}
	return rep
}

// latPctMS is the nearest-rank percentile of a sorted latency slice, in
// milliseconds.
func latPctMS(sorted []time.Duration, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
