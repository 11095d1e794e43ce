package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/dls"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config configures a Server. The zero value of every knob picks a
// production-shaped default.
type Config struct {
	// Solver is the shared engine. Required.
	Solver *dls.Solver
	// Window is the admission window: while every drain worker is busy,
	// a solve request waits at most this long for company before its
	// window is flushed as one SolveBatch. A request that finds a worker
	// idle is flushed at once. 0 disables micro-batching (every request
	// solves on its own). Default 2ms.
	Window time.Duration
	// WindowSize flushes a window early once it holds this many requests.
	// Default 64.
	WindowSize int
	// QueueCap bounds the admission queue; requests beyond it are shed
	// with 429. Default 1024.
	QueueCap int
	// Workers bounds how many flushed windows solve concurrently; while
	// fewer are in flight, windows flush at once. Default 2.
	Workers int
	// RetryAfter is the advisory delay stamped on 429 responses before
	// the server has observed any window flushes; once traffic flows, the
	// advisory is derived from the observed drain rate (queue depth over
	// recent flush size × flush interval) instead. Default 50ms.
	RetryAfter time.Duration
	// Clock injects the time source for the admission batcher (tests and
	// simulation; nil = the system clock).
	Clock dls.Clock
	// Classes are the SLO classes accepted via the X-SLO-Class header.
	// Default: dls.DefaultSLOClasses.
	Classes []dls.SLOClass
	// Adaptive runs the adaptive SLO-aware admission policy instead of the
	// fixed Window/WindowSize.
	Adaptive bool
	// MaxBatch caps the request count of one /v1/solve/batch call.
	// Default 1024.
	MaxBatch int
	// MaxBody caps request body sizes in bytes. Default 8 MiB.
	MaxBody int64
	// NoBatchWindow marks Window = 0 as deliberate (the zero Config value
	// otherwise means "use the default window").
	NoBatchWindow bool
	// Trace enables per-request tracing: every solve request carries an
	// internal/obs trace through the batcher, engine, eval backends and
	// searches; finished traces land in the ring + slowest-exemplar store
	// behind GET /debug/requests, feed the dlsd_stage_latency_seconds
	// histograms, and stamp X-Trace-Id on responses.
	Trace bool
	// TraceRing sizes the recent-trace ring buffer (default 256).
	TraceRing int
	// TraceSlowest sizes the per-route slowest-exemplar lists (default 8).
	TraceSlowest int
	// Log, when set, receives one structured line per solve submission:
	// a server-local request sequence number, the route, the latency, and
	// (with Trace on) the trace id. Successes log at Debug, failures at
	// Warn. Nil disables request logging.
	Log *slog.Logger
}

// withDefaults fills the zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Window == 0 && !cfg.NoBatchWindow {
		cfg.Window = 2 * time.Millisecond
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	return cfg
}

// Server serves a dls.Solver over HTTP. Create with New, mount as an
// http.Handler, Close on shutdown (drains in-flight windows).
type Server struct {
	cfg     Config
	solver  *dls.Solver
	batcher *dls.Batcher
	mux     *http.ServeMux
	start   time.Time
	log     *slog.Logger  // Config.Log; nil = no request logging
	reqSeq  atomic.Uint64 // request ids for log correlation

	latency     *stats.Histogram      // end-to-end latency of successful solves, seconds
	windowSizes *stats.Histogram      // flushed admission-window sizes
	codes       stats.CounterMap[int] // HTTP responses by status code

	// Tracing (Config.Trace; see trace.go). rec is nil when tracing is off.
	rec       *obs.Recorder
	stageMu   sync.Mutex
	stageHist map[string]*stats.Histogram // per-stage latency, seconds

	// Flush-rate tracking behind the drain-rate-derived Retry-After.
	flushMu       sync.Mutex
	lastFlushAt   time.Time
	flushInterval float64 // EWMA of seconds between flushes
	flushSize     float64 // EWMA of flushed window sizes
}

// New builds a Server over cfg.Solver.
func New(cfg Config) (*Server, error) {
	if cfg.Solver == nil {
		return nil, fmt.Errorf("server: Config.Solver is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		solver:      cfg.Solver,
		log:         cfg.Log,
		start:       time.Now(),
		latency:     stats.NewHistogram(stats.LatencyBounds()...),
		windowSizes: stats.NewHistogram(stats.SizeBounds()...),
	}
	s.batcher = cfg.Solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: cfg.Window,
		MaxSize:  cfg.WindowSize,
		QueueCap: cfg.QueueCap,
		Workers:  cfg.Workers,
		Clock:    cfg.Clock,
		Classes:  cfg.Classes,
		Adaptive: cfg.Adaptive,
		OnFlush:  s.observeFlush,
	})
	s.initTracing()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.rec != nil {
		s.mux.Handle("GET /debug/requests", s.rec.Handler())
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&countingWriter{ResponseWriter: w, server: s}, r)
}

// Close drains the micro-batcher: every admitted request is answered
// before Close returns. Call after the HTTP listener has stopped
// accepting (http.Server.Shutdown), so no new submissions race the drain.
func (s *Server) Close() {
	s.batcher.Close()
}

// countingWriter counts response codes for /metrics.
type countingWriter struct {
	http.ResponseWriter
	server *Server
	wrote  bool
}

func (cw *countingWriter) WriteHeader(code int) {
	if !cw.wrote {
		cw.wrote = true
		cw.server.codes.Add(code, 1)
	}
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	if !cw.wrote {
		cw.wrote = true
		cw.server.codes.Add(http.StatusOK, 1)
	}
	return cw.ResponseWriter.Write(b)
}

// writeJSON writes v as the JSON body of a response with the given
// status. The body is encoded before anything is written, so a value
// that cannot be encoded answers 500 with an ErrorResponse instead of the
// intended status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v response) {
	buf := bodies.Get().(*[]byte)
	body, err := v.appendJSON((*buf)[:0])
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = (&ErrorResponse{Error: "encoding response: " + err.Error()}).appendJSON(body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone = nothing to do
	if cap(body) <= maxPooledBody {
		*buf = body
		bodies.Put(buf)
	}
}

// bodies recycles response buffers; one larger than maxPooledBody, from
// an unusually large batch, is left to the garbage collector.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// readBody reads the whole request body, at most Config.MaxBody bytes.
// It answers a larger body with 413 and any other read failure with 400;
// ok is false once it has answered.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (data []byte, ok bool) {
	// Size the buffer from Content-Length, but never commit more than
	// 1 MiB up front to a length the client has only claimed.
	hint := min(max(r.ContentLength, 0), s.cfg.MaxBody, 1<<20)
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte cap", tooLarge.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "reading request: %s", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// requestContext derives the solve context: the HTTP request context,
// bounded by the X-Timeout header when present.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	header := r.Header.Get("X-Timeout")
	if header == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(header)
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("invalid X-Timeout %q: want a positive Go duration like 250ms", header)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// solveStatus maps a solve error to an HTTP status.
func (s *Server) solveStatus(err error) int {
	switch {
	case errors.Is(err, dls.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, dls.ErrBatcherClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in the nginx tradition.
		return 499
	default:
		// Unsolvable request (unknown strategy, no common z, order shape):
		// the request was understood but cannot be satisfied.
		return http.StatusUnprocessableEntity
	}
}

// observeFlush records each flushed window for /metrics and for the
// drain-rate estimate behind Retry-After. Called from the collector
// goroutine; the mutex is held only for a few arithmetic operations.
func (s *Server) observeFlush(n int) {
	s.windowSizes.Observe(float64(n))
	now := s.now()
	s.flushMu.Lock()
	const alpha = 0.2
	if !s.lastFlushAt.IsZero() {
		iv := now.Sub(s.lastFlushAt).Seconds()
		if s.flushInterval == 0 {
			s.flushInterval = iv
		} else {
			s.flushInterval += alpha * (iv - s.flushInterval)
		}
	}
	s.lastFlushAt = now
	if s.flushSize == 0 {
		s.flushSize = float64(n)
	} else {
		s.flushSize += alpha * (float64(n) - s.flushSize)
	}
	s.flushMu.Unlock()
}

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock.Now()
	}
	return time.Now()
}

// retryAfter derives the 429 advisory delay from the observed drain
// rate: the queued requests fill queueDepth/flushSize windows, and the
// batcher has been flushing one window every flushInterval — so that
// many intervals (plus one for the retry itself) is when capacity
// plausibly frees up. Before any flush is observed (cold start, or
// batching disabled) it falls back to the configured constant.
func (s *Server) retryAfter() time.Duration {
	s.flushMu.Lock()
	iv, size := s.flushInterval, s.flushSize
	s.flushMu.Unlock()
	if iv <= 0 || size < 1 {
		return s.cfg.RetryAfter
	}
	depth := float64(s.batcher.Stats().QueueDepth)
	ra := time.Duration((depth/size + 1) * iv * float64(time.Second))
	if min := time.Millisecond; ra < min {
		ra = min
	}
	if max := 5 * time.Second; ra > max {
		ra = max
	}
	return ra
}

// writeSolveError answers a failed solve, stamping Retry-After on sheds.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	status := s.solveStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.FormatFloat(s.retryAfter().Seconds(), 'f', 3, 64))
	}
	writeError(w, status, "%s", err)
}

// handleSolve answers POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeSolve(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %s", err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	defer cancel()
	begin := time.Now()
	ctx, finishTrace := s.traceRequest(ctx, r, w, "/v1/solve")
	res, err := s.batcher.SubmitSLO(ctx, req, r.Header.Get("X-SLO-Class"))
	finishTrace(err)
	s.logRequest(ctx, "/v1/solve", begin, err)
	if err != nil {
		if errors.Is(err, dls.ErrUnknownClass) {
			writeError(w, http.StatusBadRequest, "%s", err)
			return
		}
		// Failed and shed submissions stay out of the latency histogram:
		// near-instant 429s during overload would otherwise drag the
		// percentiles down exactly when latency matters most.
		s.writeSolveError(w, err)
		return
	}
	s.latency.Observe(time.Since(begin).Seconds())
	out := resultResponse(res)
	writeJSON(w, http.StatusOK, &out)
}

// handleBatch answers POST /v1/solve/batch: the body is admitted to the
// batcher as one group (one queue entry, shed whole if it does not fit),
// so its slots fill windows in order and share them (and the SoA prepass)
// with whatever else is in flight. Slots that fail keep their error
// message; if the whole batch was shed the response is a single 429.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	reqs, err := decodeBatch(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %s", err)
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d requests exceeds the %d cap", len(reqs), s.cfg.MaxBatch)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	defer cancel()
	class := r.Header.Get("X-SLO-Class")
	if _, err := s.batcher.Class(class); err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	begin := time.Now()
	// Each batch slot is its own trace: slots can land in different
	// admission windows and dedup groups, so their stage timelines
	// genuinely differ. No response writer — one header cannot carry
	// every slot's trace id.
	ctxs := make([]context.Context, len(reqs))
	finishTraces := make([]func(error), len(reqs))
	for i := range reqs {
		ctxs[i], finishTraces[i] = s.traceRequest(ctx, r, nil, "/v1/solve/batch")
	}
	results, errs := s.batcher.SubmitBatch(ctxs, reqs, class)
	for i, err := range errs {
		finishTraces[i](err)
		s.logRequest(ctxs[i], "/v1/solve/batch", begin, err)
	}

	// The answered slots are filled in one block; Results points into it.
	block := make([]SolveResponse, len(results))
	resp := BatchResponse{Results: make([]*SolveResponse, len(results))}
	allShed, anyErr, anyOK := true, false, false
	for i, res := range results {
		if errs[i] != nil {
			anyErr = true
			if !errors.Is(errs[i], dls.ErrOverloaded) {
				allShed = false
			}
			continue
		}
		allShed, anyOK = false, true
		block[i] = resultResponse(res)
		resp.Results[i] = &block[i]
	}
	if anyOK {
		s.latency.Observe(time.Since(begin).Seconds())
	}
	if anyErr {
		if allShed {
			w.Header().Set("Retry-After", strconv.FormatFloat(s.retryAfter().Seconds(), 'f', 3, 64))
			writeError(w, http.StatusTooManyRequests, "batch shed: admission queue full")
			return
		}
		resp.Errors = make([]string, len(results))
		for i, err := range errs {
			if err != nil {
				resp.Errors[i] = err.Error()
			}
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

// logRequest emits one structured line per solve submission (Config.Log):
// request sequence number, route, latency, trace id when tracing is on.
func (s *Server) logRequest(ctx context.Context, route string, begin time.Time, err error) {
	if s.log == nil {
		return
	}
	attrs := make([]any, 0, 6)
	attrs = append(attrs,
		slog.Uint64("req", s.reqSeq.Add(1)),
		slog.String("route", route),
		slog.Duration("dur", time.Since(begin)))
	if ts := obs.Traces(ctx); len(ts) > 0 {
		attrs = append(attrs, slog.String("trace", ts[0].ID()))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()), slog.Int("status", s.solveStatus(err)))
		s.log.Warn("solve failed", attrs...)
		return
	}
	s.log.Debug("solve", attrs...)
}

// handleStrategies answers GET /v1/strategies.
func (s *Server) handleStrategies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, &StrategiesResponse{Strategies: dls.Strategies()})
}

// handleHealthz answers GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
