package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-cranked time source so stage durations are exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestFinishAfterClosesPartition: FinishAfter records the time from the
// named stage's end to the seal as one more depth-0 stage, so the depth-0
// stages sum to the trace's duration; without that stage it only seals.
func TestFinishAfterClosesPartition(t *testing.T) {
	clk := newFakeClock()
	tr := NewTrace("id-2", "/v1/solve", clk.Now)
	s0 := tr.Start()
	clk.advance(3 * time.Millisecond)
	s1 := clk.Now()
	tr.StageAt(0, "queue_wait", s0, s1)
	clk.advance(4 * time.Millisecond)
	tr.StageAt(0, "solve", s1, clk.Now())
	clk.advance(2 * time.Millisecond)
	tr.FinishAfter("solve", "handback")
	tr.FinishAfter("solve", "handback") // idempotent
	d := tr.Snapshot()
	if got, want := d.StageSum(), 9*time.Millisecond; got != want || d.DurationNS != int64(want) {
		t.Fatalf("StageSum = %v, duration %v, want both %v", got, time.Duration(d.DurationNS), want)
	}
	if n := len(d.Stages); n != 3 || d.Stages[2].Name != "handback" || d.Stages[2].DurationNS != int64(2*time.Millisecond) {
		t.Fatalf("stages = %+v, want queue_wait, solve, handback of 2ms", d.Stages)
	}

	bare := NewTrace("id-3", "/v1/solve", clk.Now)
	bare.StageAt(0, "queue_wait", bare.Start(), clk.Now())
	clk.advance(time.Millisecond)
	bare.FinishAfter("solve", "handback")
	if d := bare.Snapshot(); len(d.Stages) != 1 {
		t.Fatalf("unsolved trace stages = %+v, want queue_wait alone", d.Stages)
	}
}

func TestTraceStagesAndStageSum(t *testing.T) {
	clk := newFakeClock()
	tr := NewTrace("id-1", "/v1/solve", clk.Now)

	s0 := clk.Now()
	clk.advance(10 * time.Millisecond)
	s1 := clk.Now()
	tr.StageAt(0, "queue_wait", s0, s1)

	clk.advance(5 * time.Millisecond)
	s2 := clk.Now()
	tr.StageAt(0, "solve", s1, s2)
	// Nested stage inside solve: attributed, but not part of the
	// depth-0 partition.
	tr.StageAt(1, "eval-backend", s1, s2, String("backend", "closed-form"))

	tr.Annotate(String("strategy", "fifo"), String("cache", "miss"))
	tr.Annotate(String("cache", "hit")) // latest value wins
	tr.Finish()

	d := tr.Snapshot()
	if d.ID != "id-1" || d.Route != "/v1/solve" {
		t.Fatalf("snapshot identity = %q %q", d.ID, d.Route)
	}
	if got, want := d.DurationNS, int64(15*time.Millisecond); got != want {
		t.Fatalf("DurationNS = %d, want %d", got, want)
	}
	if got, want := d.StageSum(), 15*time.Millisecond; got != want {
		t.Fatalf("StageSum = %v, want %v (depth-0 only)", got, want)
	}
	if len(d.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(d.Stages))
	}
	// Sorted by offset, then depth: queue_wait, solve, eval-backend.
	wantOrder := []string{"queue_wait", "solve", "eval-backend"}
	for i, name := range wantOrder {
		if d.Stages[i].Name != name {
			t.Fatalf("stage[%d] = %q, want %q", i, d.Stages[i].Name, name)
		}
	}
	if got := d.Attr("cache"); got != "hit" {
		t.Fatalf("Attr(cache) = %q, want hit (latest wins)", got)
	}
	if got := d.Attr("absent"); got != "" {
		t.Fatalf("Attr(absent) = %q, want empty", got)
	}

	// Recording after Finish is dropped.
	tr.StageAt(0, "late", s2, s2.Add(time.Second))
	tr.Annotate(String("late", "true"))
	if d2 := tr.Snapshot(); len(d2.Stages) != 3 || d2.Attr("late") != "" {
		t.Fatalf("post-Finish writes mutated the trace: %+v", d2)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.StageAt(0, "x", time.Time{}, time.Time{})
	tr.Annotate(String("k", "v"))
	tr.Finish()
	if tr.ID() != "" || !tr.Now().IsZero() {
		t.Fatal("nil trace leaked state")
	}
	if d := tr.Snapshot(); d.ID != "" || len(d.Stages) != 0 {
		t.Fatalf("nil snapshot = %+v", d)
	}
}

func TestContextFanout(t *testing.T) {
	clk := newFakeClock()
	ctx := context.Background()
	if Enabled(ctx) || !Now(ctx).IsZero() {
		t.Fatal("empty context reports tracing enabled")
	}
	a := NewTrace("a", "r", clk.Now)
	b := NewTrace("b", "r", clk.Now)
	ctx = ContextWithTrace(ctx, a)
	ctx = ContextWithTrace(ctx, b) // joins
	if got := Traces(ctx); len(got) != 2 {
		t.Fatalf("joined traces = %d, want 2", len(got))
	}
	s0 := clk.Now()
	clk.advance(time.Millisecond)
	StageAt(ctx, 0, "solve", s0, clk.Now())
	Annotate(ctx, String("k", "v"))
	for _, tr := range []*Trace{a, b} {
		d := tr.Snapshot()
		if len(d.Stages) != 1 || d.Attr("k") != "v" {
			t.Fatalf("trace %s missed the fan-out: %+v", d.ID, d)
		}
	}

	c := NewTrace("c", "r", clk.Now)
	rctx := ContextWithTraces(context.Background(), []*Trace{c}) // replaces
	if got := Traces(rctx); len(got) != 1 || got[0].ID() != "c" {
		t.Fatalf("ContextWithTraces = %v", got)
	}
}

func TestRecorderRingRollover(t *testing.T) {
	clk := newFakeClock()
	rec := NewRecorder(RecorderConfig{Ring: 4, SlowestPerRoute: 8, Now: clk.Now})
	for i := 0; i < 6; i++ {
		tr := rec.StartTrace("/v1/solve", fmt.Sprintf("t%d", i), "")
		clk.advance(time.Millisecond)
		rec.Finish(tr)
	}
	if got := rec.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	recent := rec.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent = %d traces, want ring size 4", len(recent))
	}
	// Newest first: t5, t4, t3, t2 — t0/t1 rolled out.
	for i, want := range []string{"t5", "t4", "t3", "t2"} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recent[i].ID, want)
		}
	}
	if got := rec.Recent(2); len(got) != 2 || got[0].ID != "t5" {
		t.Fatalf("Recent(2) = %v", got)
	}
}

func TestRecorderSlowestExemplars(t *testing.T) {
	clk := newFakeClock()
	rec := NewRecorder(RecorderConfig{Ring: 8, SlowestPerRoute: 2, Now: clk.Now})
	durations := []time.Duration{3 * time.Millisecond, time.Millisecond, 7 * time.Millisecond, 5 * time.Millisecond}
	for i, d := range durations {
		tr := rec.StartTrace("/v1/solve", fmt.Sprintf("t%d", i), "")
		clk.advance(d)
		rec.Finish(tr)
	}
	slow := rec.Slowest("/v1/solve")["/v1/solve"]
	if len(slow) != 2 {
		t.Fatalf("slowest = %d exemplars, want cap 2", len(slow))
	}
	if slow[0].ID != "t2" || slow[1].ID != "t3" {
		t.Fatalf("slowest order = %s, %s; want t2, t3", slow[0].ID, slow[1].ID)
	}
	if m := rec.Slowest("/other"); len(m) != 0 {
		t.Fatalf("Slowest(/other) = %v, want empty", m)
	}
}

// TestRecorderConcurrent exercises the race-sensitive surfaces under the
// race detector: stage writers racing Finish, and readers racing both.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Ring: 16, SlowestPerRoute: 4})
	const traces = 32
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		tr := rec.StartTrace("/v1/solve", "", "")
		wg.Add(3)
		go func() { // a drain worker still recording
			defer wg.Done()
			now := tr.Now()
			for j := 0; j < 50; j++ {
				tr.StageAt(1, "search", now, now)
				tr.Annotate(Int("j", j))
			}
		}()
		go func() { // the handler finishing
			defer wg.Done()
			rec.Finish(tr)
		}()
		go func() { // a /debug/requests reader
			defer wg.Done()
			rec.Recent(8)
			rec.Slowest("")
			rec.Total()
		}()
	}
	wg.Wait()
	if got := rec.Total(); got != traces {
		t.Fatalf("Total = %d, want %d", got, traces)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	if len(id) != 32 || len(span) != 16 {
		t.Fatalf("id lengths = %d/%d, want 32/16", len(id), len(span))
	}
	gotID, gotSpan, ok := ParseTraceparent(FormatTraceparent(id, span))
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("round trip = (%q, %q, %v), want (%q, %q, true)", gotID, gotSpan, ok, id, span)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-abc-def-01",                    // wrong lengths
		"00-" + NewTraceID() + "-short-01", // short span
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero trace id
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-01", // non-hex
		FormatTraceparent(NewTraceID(), NewSpanID()) + "-extra",
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed input", v)
		}
	}
}

func TestOutgoingTraceparent(t *testing.T) {
	if _, ok := OutgoingTraceparent(context.Background()); ok {
		t.Fatal("untraced context produced a traceparent")
	}
	tr := NewTrace(NewTraceID(), "r", nil)
	ctx := ContextWithTrace(context.Background(), tr)
	v1, ok := OutgoingTraceparent(ctx)
	if !ok {
		t.Fatal("traced context produced no traceparent")
	}
	id1, span1, ok := ParseTraceparent(v1)
	if !ok || id1 != tr.ID() {
		t.Fatalf("outgoing trace id = %q, want %q", id1, tr.ID())
	}
	// A second hop keeps the trace id but mints a fresh span id.
	v2, _ := OutgoingTraceparent(ctx)
	id2, span2, _ := ParseTraceparent(v2)
	if id2 != id1 {
		t.Fatalf("trace id changed across attempts: %q vs %q", id1, id2)
	}
	if span1 == span2 {
		t.Fatal("span id not refreshed per attempt")
	}
}

func TestDebugHandler(t *testing.T) {
	clk := newFakeClock()
	rec := NewRecorder(RecorderConfig{Ring: 16, SlowestPerRoute: 4, Now: clk.Now})
	mk := func(id, route, strategy, degraded string, d time.Duration) {
		tr := rec.StartTrace(route, id, "")
		tr.Annotate(String("strategy", strategy))
		if degraded != "" {
			tr.Annotate(String("degraded", degraded))
		}
		clk.advance(d)
		rec.Finish(tr)
	}
	mk("t0", "/v1/solve", "fifo", "", time.Millisecond)
	mk("t1", "/v1/solve", "fifo-exhaustive", "true", 4*time.Millisecond)
	mk("t2", "/v1/solve/batch", "lifo", "", 2*time.Millisecond)

	get := func(query string) DebugResponse {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/requests"+query, nil)
		w := httptest.NewRecorder()
		rec.Handler().ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s = %d", query, w.Code)
		}
		var resp DebugResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp
	}

	all := get("")
	if all.Total != 3 || len(all.Recent) != 3 {
		t.Fatalf("unfiltered = total %d, recent %d; want 3, 3", all.Total, len(all.Recent))
	}
	if all.Recent[0].ID != "t2" {
		t.Fatalf("recent[0] = %s, want newest t2", all.Recent[0].ID)
	}

	byRoute := get("?route=/v1/solve")
	if len(byRoute.Recent) != 2 || len(byRoute.Slowest) != 1 {
		t.Fatalf("route filter = %d recent, %d slowest routes; want 2, 1", len(byRoute.Recent), len(byRoute.Slowest))
	}
	byStrategy := get("?strategy=fifo-exhaustive")
	if len(byStrategy.Recent) != 1 || byStrategy.Recent[0].ID != "t1" {
		t.Fatalf("strategy filter = %+v", byStrategy.Recent)
	}
	byDegraded := get("?degraded=true")
	if len(byDegraded.Recent) != 1 || byDegraded.Recent[0].ID != "t1" {
		t.Fatalf("degraded filter = %+v", byDegraded.Recent)
	}
	capped := get("?n=1")
	if len(capped.Recent) != 1 {
		t.Fatalf("n=1 returned %d recent", len(capped.Recent))
	}
}
