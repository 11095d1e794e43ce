package server

import (
	"context"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Request tracing: when Config.Trace is set the server starts one
// internal/obs trace per solve request (one per slot for batch bodies),
// threads it through the admission batcher and engine via the context,
// and finishes it into the recorder behind GET /debug/requests. Stage
// durations additionally feed the dlsd_stage_latency_seconds histograms
// on /metrics, and every traced response carries its trace id in the
// X-Trace-Id header so clients (dlsload) can look up their own slowest
// requests.

// TraceIDHeader carries the trace id back to the client on traced
// responses.
const TraceIDHeader = "X-Trace-Id"

// initTracing builds the recorder and stage-histogram store; no-op
// unless cfg.Trace is set.
func (s *Server) initTracing() {
	if !s.cfg.Trace {
		return
	}
	now := time.Now
	if s.cfg.Clock != nil {
		now = s.cfg.Clock.Now
	}
	s.rec = obs.NewRecorder(obs.RecorderConfig{
		Ring:            s.cfg.TraceRing,
		SlowestPerRoute: s.cfg.TraceSlowest,
		Now:             now,
	})
	s.stageHist = make(map[string]*stats.Histogram)
}

// Recorder exposes the trace recorder (nil when tracing is off) so
// embedding servers can mount or inspect it.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// traceRequest starts a trace for one solve submission, adopting the
// trace id of an incoming traceparent header (so fleet-client retries
// chain into the caller's trace) and stamping the id onto the response
// when w is non-nil (batch slots pass nil: one response header cannot
// carry every slot's trace id). The returned finish seals the trace
// into the recorder and the stage histograms, closing the depth-0 stages
// with handback (the solve's answer → here); it must be called exactly
// once, after the solve settled but before the handler returns. With
// tracing off, ctx is returned unchanged and finish is a no-op.
func (s *Server) traceRequest(ctx context.Context, r *http.Request, w http.ResponseWriter, route string) (context.Context, func(error)) {
	if s.rec == nil {
		return ctx, func(error) {}
	}
	var id, parent string
	if tid, span, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		id, parent = tid, span
	}
	t := s.rec.StartTrace(route, id, parent)
	if w != nil {
		w.Header().Set(TraceIDHeader, t.ID())
	}
	return obs.ContextWithTrace(ctx, t), func(err error) {
		if err != nil {
			t.Annotate(obs.String("error", err.Error()))
		}
		t.FinishAfter("solve", "handback")
		s.observeStages(s.rec.Finish(t))
	}
}

// observeStages folds one finished trace into the per-stage latency
// histograms behind dlsd_stage_latency_seconds.
func (s *Server) observeStages(d obs.TraceData) {
	s.stageMu.Lock()
	for _, st := range d.Stages {
		h := s.stageHist[st.Name]
		if h == nil {
			h = stats.NewHistogram(stats.LatencyBounds()...)
			s.stageHist[st.Name] = h
		}
		h.Observe(time.Duration(st.DurationNS).Seconds())
	}
	s.stageMu.Unlock()
}

// writeStageMetrics emits the per-stage latency histograms, one labelled
// series per stage name, in sorted order for a stable exposition.
func (s *Server) writeStageMetrics(m *stats.MetricWriter) {
	if s.rec == nil {
		return
	}
	s.stageMu.Lock()
	names := make([]string, 0, len(s.stageHist))
	for name := range s.stageHist {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Histogram("dlsd_stage_latency_seconds", "Latency of traced request stages (see /debug/requests).",
			s.stageHist[name], stats.Label{Key: "stage", Value: name})
	}
	s.stageMu.Unlock()
}
