// Package obs is the in-process tracing layer of the serving stack: a
// context-carried span recorder that decomposes one request's latency into
// named stages (queue_wait, window_wait, solve, eval-backend, search, ...)
// with key/value annotations, a fixed-size ring buffer of completed traces
// and a slowest-N-per-route exemplar store behind /debug/requests.
//
// The package is dependency-free (standard library only) so every layer —
// dls, internal/core, internal/eval, internal/resilience, internal/sim —
// can record into a trace without import cycles. Time never comes from
// time.Now directly: each Trace carries its own `now` function, which is
// the system clock under dlsd and the virtual clock under internal/sim,
// keeping traced simulation runs byte-deterministic.
//
// Everything is a no-op when no trace rides the context: the helpers cost
// one context lookup and return. Recording is race-safe — a batcher drain
// worker may still be writing stages while the submitter's context has
// expired and the handler is finishing the trace — and allocation-bounded
// on the hot path (stage storage is pre-sized, the ring never grows).
package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a trace or stage. Values are
// strings: deterministic to serialize (the simulator compares reports
// byte-for-byte) and cheap to filter on.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an int64-valued attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Uint64 builds a uint64-valued attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: strconv.FormatUint(v, 10)} }

// Bool builds a boolean-valued attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Stage is one named span inside a trace. Depth is display nesting:
// depth-0 stages partition the request timeline (queue_wait, window_wait,
// solve, handback), deeper stages attribute slices of their parent (strategy,
// eval-backend, search) and are excluded from top-level sums.
type Stage struct {
	Name  string
	Depth int
	Start time.Time
	End   time.Time
	Attrs []Attr
}

// initialStageCap pre-sizes a trace's stage storage so the request hot
// path appends without reallocating (a fully decorated solve records
// about six stages).
const initialStageCap = 8

// Trace is one in-flight request's span recorder. It is safe for
// concurrent use: the admission batcher's collector, a drain worker and
// the HTTP handler may all record into it.
type Trace struct {
	mu       sync.Mutex
	id       string
	parent   string // upstream span id from a traceparent header, if any
	route    string
	start    time.Time
	end      time.Time
	now      func() time.Time
	stages   []Stage
	attrs    []Attr
	finished bool
}

// NewTrace starts a trace on the given time source (nil: time.Now). The
// id is caller-chosen — random for live serving, sequential under the
// simulator — so determinism stays in the caller's hands.
func NewTrace(id, route string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	return &Trace{
		id:     id,
		route:  route,
		start:  now(),
		now:    now,
		stages: make([]Stage, 0, initialStageCap),
	}
}

// ID returns the trace id. Safe on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetParent records the upstream span id this trace continues (from a
// traceparent header).
func (t *Trace) SetParent(span string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = span
	t.mu.Unlock()
}

// Now reads the trace's time source (zero time on a nil trace).
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.now()
}

// Start returns the trace's start time (zero time on a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StageAt records one completed stage. Recording after Finish is dropped:
// the trace has already been snapshotted into the recorder, and a late
// drain-worker write must not mutate what readers saw.
func (t *Trace) StageAt(depth int, name string, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.stages = append(t.stages, Stage{Name: name, Depth: depth, Start: start, End: end, Attrs: attrs})
	}
	t.mu.Unlock()
}

// Annotate attaches key/value attributes to the trace itself (strategy,
// cache disposition, degraded-to, ...). Duplicate keys keep the latest
// value at snapshot time.
func (t *Trace) Annotate(attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.attrs = append(t.attrs, attrs...)
	}
	t.mu.Unlock()
}

// Finish seals the trace at the current time source reading. Idempotent;
// later StageAt/Annotate calls are dropped.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.end = t.now()
	}
	t.mu.Unlock()
}

// FinishAfter seals the trace like Finish and, when a depth-0 stage named
// after was recorded, first records the time from that stage's end to the
// seal as the depth-0 stage name: for a served request, the hand-back of
// the answer to the handler goroutine, which then closes the partition of
// the timeline the depth-0 stages make.
func (t *Trace) FinishAfter(after, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.end = t.now()
		for _, st := range t.stages {
			if st.Depth == 0 && st.Name == after {
				t.stages = append(t.stages, Stage{Name: name, Start: st.End, End: t.end})
				break
			}
		}
	}
	t.mu.Unlock()
}

// StageData is the immutable JSON view of one recorded stage.
type StageData struct {
	Name       string `json:"name"`
	Depth      int    `json:"depth"`
	OffsetNS   int64  `json:"offset_ns"`
	DurationNS int64  `json:"duration_ns"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// TraceData is the immutable snapshot of one completed (or in-flight)
// trace, as served by /debug/requests.
type TraceData struct {
	ID         string      `json:"id"`
	Parent     string      `json:"parent,omitempty"`
	Route      string      `json:"route"`
	Start      time.Time   `json:"start"`
	DurationNS int64       `json:"duration_ns"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Stages     []StageData `json:"stages"`
}

// Attr returns the latest value recorded for key ("" when absent).
func (d TraceData) Attr(key string) string {
	for i := len(d.Attrs) - 1; i >= 0; i-- {
		if d.Attrs[i].Key == key {
			return d.Attrs[i].Value
		}
	}
	return ""
}

// StageSum returns the summed duration of the depth-0 stages — the
// partition of the request timeline, which reproduces the end-to-end
// latency of a served request that was answered.
func (d TraceData) StageSum() time.Duration {
	var sum time.Duration
	for _, st := range d.Stages {
		if st.Depth == 0 {
			sum += time.Duration(st.DurationNS)
		}
	}
	return sum
}

// Snapshot deep-copies the trace into its JSON view. Stages are sorted by
// offset (recording order across goroutines is not deterministic; offsets
// are), so snapshots of deterministic virtual-time runs are byte-stable.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if !t.finished {
		end = t.now()
	}
	d := TraceData{
		ID:         t.id,
		Parent:     t.parent,
		Route:      t.route,
		Start:      t.start,
		DurationNS: end.Sub(t.start).Nanoseconds(),
	}
	if len(t.attrs) > 0 {
		d.Attrs = append(make([]Attr, 0, len(t.attrs)), t.attrs...)
	}
	d.Stages = make([]StageData, len(t.stages))
	for i, st := range t.stages {
		sd := StageData{
			Name:       st.Name,
			Depth:      st.Depth,
			OffsetNS:   st.Start.Sub(t.start).Nanoseconds(),
			DurationNS: st.End.Sub(st.Start).Nanoseconds(),
		}
		if len(st.Attrs) > 0 {
			sd.Attrs = append(make([]Attr, 0, len(st.Attrs)), st.Attrs...)
		}
		d.Stages[i] = sd
	}
	sort.SliceStable(d.Stages, func(i, j int) bool {
		if d.Stages[i].OffsetNS != d.Stages[j].OffsetNS {
			return d.Stages[i].OffsetNS < d.Stages[j].OffsetNS
		}
		return d.Stages[i].Depth < d.Stages[j].Depth
	})
	return d
}
