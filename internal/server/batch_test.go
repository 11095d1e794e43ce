package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/dls"
)

// chainBatch builds a body of n chain-shaped requests over distinct
// platforms.
func chainBatch(rng *rand.Rand, n int) BatchRequest {
	var batch BatchRequest
	for i := 0; i < n; i++ {
		p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		batch.Requests = append(batch.Requests, dls.Request{Platform: p, Strategy: dls.StrategyIncC})
	}
	return batch
}

// TestServeBatchIsOneWindow: a 64-slot body on an idle server is
// admitted as one group and flushes as exactly one window of 64.
func TestServeBatchIsOneWindow(t *testing.T) {
	srv, ts := newTestServer(t, Config{Window: 5 * time.Second, WindowSize: 64})
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", chainBatch(rand.New(rand.NewSource(4250)), 64), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 64 || slices.Contains(out.Results, nil) {
		t.Fatalf("got %d slots (errors %q), want 64 answered", len(out.Results), out.Errors)
	}
	if st := srv.solver.Stats(); st.Windows != 1 || st.BatchedRequests != 64 {
		t.Errorf("body flushed as Windows=%d BatchedRequests=%d, want 1 and 64", st.Windows, st.BatchedRequests)
	}
}

// TestServeBatchShedWhole: a body larger than the free queue capacity is
// shed whole — one 429, every slot counted as shed, nothing solved.
func TestServeBatchShedWhole(t *testing.T) {
	srv, ts := newTestServer(t, Config{Window: time.Millisecond, QueueCap: 4})
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", chainBatch(rand.New(rand.NewSource(4251)), 5), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without Retry-After")
	}
	if st := srv.solver.Stats(); st.Shed != 5 || st.Solves != 0 || st.Windows != 0 {
		t.Errorf("shed body: Shed=%d Solves=%d Windows=%d, want 5, 0, 0", st.Shed, st.Solves, st.Windows)
	}
}

// TestServeBatchShedRetryAfterDerived: once flushes have been observed, a
// shed batch carries the drain-rate advisory of /v1/solve, not the static
// cold-start constant.
func TestServeBatchShedRetryAfterDerived(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: time.Millisecond, QueueCap: 4, RetryAfter: time.Hour})
	rng := rand.New(rand.NewSource(4252))
	// Two flushed windows give the flush-interval estimate its first sample.
	for _, req := range chainBatch(rng, 2).Requests {
		if resp, body := postJSON(t, ts.URL+"/v1/solve", req, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", chainBatch(rng, 5), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ra, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	// The derived advisory is clamped to 5 s; the static one is an hour.
	if ra <= 0 || ra > 5 {
		t.Errorf("shed batch Retry-After = %gs, want the derived advisory (0, 5s]", ra)
	}
}

// TestTraceBatchSlotStages: every slot of a batch body keeps its own
// trace, with the queue_wait, window_wait and solve stages.
func TestTraceBatchSlotStages(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: 5 * time.Millisecond, WindowSize: 8, Trace: true})
	const slots = 5
	resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", chainBatch(rand.New(rand.NewSource(4253)), slots), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	debug := getDebugRequests(t, ts.URL, "?route=/v1/solve/batch")
	if len(debug.Recent) != slots {
		t.Fatalf("%d batch traces, want %d", len(debug.Recent), slots)
	}
	for _, d := range debug.Recent {
		names := stageNames(d)
		for _, want := range []string{"queue_wait", "window_wait", "solve"} {
			if !slices.Contains(names, want) {
				t.Errorf("slot trace %s lacks stage %q: %v", d.ID, want, names)
			}
		}
	}
}

// TestTraceHandbackBothRoutes: on both solve routes the depth-0 stages —
// queue_wait from the trace's start, window_wait, solve and the answer's
// handback to the handler — partition the traced request exactly, and the
// handback stage has its own /metrics histogram.
func TestTraceHandbackBothRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: 5 * time.Millisecond, WindowSize: 8, Trace: true})
	rng := rand.New(rand.NewSource(4254))
	body := chainBatch(rng, 3)
	if resp, _ := postJSON(t, ts.URL+"/v1/solve", body.Requests[0], nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	debug := getDebugRequests(t, ts.URL, "")
	if len(debug.Recent) != 4 {
		t.Fatalf("%d traces, want 4", len(debug.Recent))
	}
	for _, d := range debug.Recent {
		if names := stageNames(d); !slices.Contains(names, "handback") {
			t.Errorf("%s trace %s lacks stage handback: %v", d.Route, d.ID, names)
		}
		if sum := d.StageSum(); sum != time.Duration(d.DurationNS) {
			t.Errorf("%s trace %s: depth-0 stage sum %v, end-to-end %v", d.Route, d.ID, sum, time.Duration(d.DurationNS))
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if series := `dlsd_stage_latency_seconds_count{stage="handback"}`; !strings.Contains(string(metrics), series) {
		t.Errorf("/metrics missing %s", series)
	}
}
