package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/obs"
)

// getDebugRequests fetches and decodes GET /debug/requests.
func getDebugRequests(t *testing.T, base, query string) obs.DebugResponse {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests: status %d", resp.StatusCode)
	}
	var out obs.DebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceEndToEnd pins the acceptance criterion: a traced exhaustive
// solve decomposes into named stages — queue_wait, window_wait and solve
// partitioning the timeline, eval-backend and search attributing the
// solve — visible under /debug/requests with the depth-0 stages summing
// to the end-to-end duration within 5%, and per-stage histograms on
// /metrics. The platform's return speeds are drawn independently of its
// forward speeds, so it has no common z and the request runs the p! sweep
// (TestTraceTheoremSearch covers the theorem path).
func TestTraceEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := independentD(rng, dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100)))
	req := dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive}
	_, ts := newTestServer(t, Config{Window: 20 * time.Millisecond, WindowSize: 8, Trace: true})

	resp, _ := postJSON(t, ts.URL+"/v1/solve", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	tid := resp.Header.Get(TraceIDHeader)
	if tid == "" {
		t.Fatal("traced response carries no X-Trace-Id")
	}

	debug := getDebugRequests(t, ts.URL, "?route=/v1/solve")
	if debug.Total != 1 || len(debug.Recent) != 1 {
		t.Fatalf("debug = total %d, recent %d; want 1, 1", debug.Total, len(debug.Recent))
	}
	d := debug.Recent[0]
	if d.ID != tid {
		t.Fatalf("recorded trace id %q != X-Trace-Id %q", d.ID, tid)
	}

	stages := make(map[string]obs.StageData, len(d.Stages))
	for _, st := range d.Stages {
		stages[st.Name] = st
	}
	for _, name := range []string{"queue_wait", "window_wait", "solve", "strategy", "eval-backend", "search"} {
		if _, found := stages[name]; !found {
			t.Errorf("stage %q missing from trace (got %v)", name, stageNames(d))
		}
	}
	if len(d.Stages) < 5 {
		t.Fatalf("traced solve has %d stages, want >= 5", len(d.Stages))
	}
	for _, name := range []string{"queue_wait", "window_wait", "solve"} {
		if depth := stages[name].Depth; depth != 0 {
			t.Errorf("stage %q at depth %d, want 0", name, depth)
		}
	}
	for _, name := range []string{"strategy", "eval-backend", "search"} {
		if depth := stages[name].Depth; depth != 1 {
			t.Errorf("stage %q at depth %d, want 1", name, depth)
		}
	}
	if got := stageAttr(stages["search"], "backend"); got != "sweep" {
		t.Errorf("search backend = %q, want sweep", got)
	}

	// The depth-0 stages partition the request timeline: their sum must
	// reproduce the end-to-end duration to within 5% (handler overhead).
	sum, total := d.StageSum(), time.Duration(d.DurationNS)
	if diff := total - sum; diff < 0 || diff > total/20 {
		t.Errorf("depth-0 stage sum %v vs end-to-end %v: off by %v (> 5%%)", sum, total, diff)
	}

	if got := d.Attr("strategy"); got != string(dls.StrategyFIFOExhaustive) {
		t.Errorf("strategy attr = %q, want %q", got, dls.StrategyFIFOExhaustive)
	}
	if d.Attr("cache") != "miss" {
		t.Errorf("cache attr = %q, want miss", d.Attr("cache"))
	}

	// Slowest exemplars carry the same trace.
	if slow := debug.Slowest["/v1/solve"]; len(slow) != 1 || slow[0].ID != tid {
		t.Errorf("slowest exemplars = %+v, want the one trace", debug.Slowest)
	}

	// Per-stage histograms surface on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(body)
	for _, stage := range []string{"queue_wait", "window_wait", "solve", "search"} {
		series := `dlsd_stage_latency_seconds_count{stage="` + stage + `"}`
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestTraceTheoremSearch: an order search on a platform with a common z
// is answered from the theorem, and its trace says so: a "search" stage
// with backend=theorem and one order, beside the strategy and
// eval-backend stages.
func TestTraceTheoremSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	_, ts := newTestServer(t, Config{Window: 20 * time.Millisecond, WindowSize: 8, Trace: true})
	for _, strategy := range []string{dls.StrategyFIFOExhaustive, dls.StrategyLIFOExhaustive} {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", dls.Request{Platform: p, Strategy: strategy}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: solve status %d", strategy, resp.StatusCode)
		}
	}
	debug := getDebugRequests(t, ts.URL, "?route=/v1/solve")
	if len(debug.Recent) != 2 {
		t.Fatalf("debug = %d recent traces, want 2", len(debug.Recent))
	}
	kinds := map[string]bool{}
	for _, d := range debug.Recent {
		stages := make(map[string]obs.StageData, len(d.Stages))
		for _, st := range d.Stages {
			stages[st.Name] = st
		}
		for _, name := range []string{"queue_wait", "window_wait", "solve", "strategy", "eval-backend", "search"} {
			if _, found := stages[name]; !found {
				t.Errorf("%s: stage %q missing from trace (got %v)", d.Attr("strategy"), name, stageNames(d))
			}
		}
		search := stages["search"]
		if search.Depth != 1 || stageAttr(search, "backend") != "theorem" || stageAttr(search, "orders") != "1" {
			t.Errorf("%s: search stage %+v, want depth 1, backend=theorem, orders=1", d.Attr("strategy"), search)
		}
		kinds[stageAttr(search, "kind")] = true
	}
	if !kinds["fifo-order"] || !kinds["lifo-order"] {
		t.Errorf("search kinds %v, want fifo-order and lifo-order", kinds)
	}
}

// independentD redraws each worker's return cost independently of its
// forward cost, so the platform has no common z and the order searches run
// the sweep.
func independentD(rng *rand.Rand, p *dls.Platform) *dls.Platform {
	for i := range p.Workers {
		p.Workers[i].D *= float64(1+rng.Intn(10)) / float64(1+rng.Intn(10))
	}
	return p
}

// stageAttr returns the value of a stage attribute, or "".
func stageAttr(st obs.StageData, key string) string {
	for _, a := range st.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func stageNames(d obs.TraceData) []string {
	names := make([]string, len(d.Stages))
	for i, st := range d.Stages {
		names[i] = st.Name
	}
	return names
}

// TestTraceAdoptsTraceparent: an incoming traceparent header pins the
// trace id (retries across a fleet chain into the caller's trace).
func TestTraceAdoptsTraceparent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	req := dls.Request{Platform: p, Strategy: dls.StrategyLIFO}
	_, ts := newTestServer(t, Config{Window: 2 * time.Millisecond, Trace: true})

	wantID, span := obs.NewTraceID(), obs.NewSpanID()
	resp, _ := postJSON(t, ts.URL+"/v1/solve", req, map[string]string{
		obs.TraceparentHeader: obs.FormatTraceparent(wantID, span),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceIDHeader); got != wantID {
		t.Fatalf("X-Trace-Id = %q, want adopted %q", got, wantID)
	}
	debug := getDebugRequests(t, ts.URL, "")
	if len(debug.Recent) != 1 || debug.Recent[0].ID != wantID || debug.Recent[0].Parent != span {
		t.Fatalf("recorded trace = %+v, want id %q parent %q", debug.Recent, wantID, span)
	}

	// Malformed traceparent: minted id instead, request still succeeds.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", req, map[string]string{
		obs.TraceparentHeader: "00-bogus-bogus-01",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with malformed traceparent: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceIDHeader); got == "" || got == wantID {
		t.Fatalf("malformed traceparent produced trace id %q", got)
	}
}

// TestTraceBatchSlots: every slot of a /v1/solve/batch body is its own
// trace under the batch route.
func TestTraceBatchSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var reqs []dls.Request
	for i := 0; i < 3; i++ {
		p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		reqs = append(reqs, dls.Request{Platform: p, Strategy: dls.StrategyIncC, Load: 500})
	}
	_, ts := newTestServer(t, Config{Window: 5 * time.Millisecond, WindowSize: 8, Trace: true})

	resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{Requests: reqs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	debug := getDebugRequests(t, ts.URL, "?route=/v1/solve/batch")
	if debug.Total != uint64(len(reqs)) || len(debug.Recent) != len(reqs) {
		t.Fatalf("batch traces = total %d, recent %d; want %d", debug.Total, len(debug.Recent), len(reqs))
	}
	seen := make(map[string]bool)
	for _, d := range debug.Recent {
		if seen[d.ID] {
			t.Fatalf("duplicate trace id %q across batch slots", d.ID)
		}
		seen[d.ID] = true
		if d.StageSum() <= 0 {
			t.Errorf("slot trace %s has no depth-0 stages: %v", d.ID, stageNames(d))
		}
	}
}

// TestTraceDisabled: with Trace off there is no header, no endpoint, no
// per-stage series.
func TestTraceDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	req := dls.Request{Platform: p, Strategy: dls.StrategyLIFO}
	_, ts := newTestServer(t, Config{Window: 2 * time.Millisecond})

	resp, _ := postJSON(t, ts.URL+"/v1/solve", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceIDHeader); got != "" {
		t.Fatalf("untraced response carries X-Trace-Id %q", got)
	}
	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests with tracing off: status %d, want 404", dresp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(body), "dlsd_stage_latency_seconds") {
		t.Fatal("/metrics exposes stage histograms with tracing off")
	}
}
