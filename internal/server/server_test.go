package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dls"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Solver == nil {
		solver, err := dls.NewSolver(dls.WithCache(256), dls.WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Solver = solver
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// testRequests builds a served workload mixing chain-shaped and general
// requests over random platforms.
func testRequests(rng *rand.Rand, platforms int) []dls.Request {
	var reqs []dls.Request
	for i := 0; i < platforms; i++ {
		p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		reqs = append(reqs,
			dls.Request{Platform: p, Strategy: dls.StrategyIncC, Load: 500},
			dls.Request{Platform: p, Strategy: dls.StrategyIncW},
			dls.Request{Platform: p, Strategy: dls.StrategyLIFO},
			dls.Request{Platform: p, Strategy: dls.StrategyFIFOOrder, Send: p.ByW()},
			dls.Request{Platform: p, Strategy: dls.StrategyFIFOExhaustive},
		)
	}
	return reqs
}

// TestServeSolveAgreement pins the acceptance criterion: results served
// through the HTTP layer (admission window, batcher, JSON round trip) are
// byte-identical to direct Solver.Solve for the same requests — float64
// survives encoding/json's shortest-round-trip form exactly.
func TestServeSolveAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	reqs := testRequests(rng, 4)
	_, ts := newTestServer(t, Config{Window: 20 * time.Millisecond, WindowSize: 8})

	// Serve concurrently so admission windows actually batch.
	served := make([]*SolveResponse, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req dls.Request) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("request %d: decoding response: %v", i, err)
				return
			}
			served[i] = &out
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	solo, err := dls.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := solo.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("direct solve %d: %v", i, err)
		}
		got := served[i]
		if got.Throughput != want.Throughput {
			t.Errorf("request %d (%s): served throughput %.17g != direct %.17g", i, req.Strategy, got.Throughput, want.Throughput)
		}
		if got.Makespan != want.Makespan {
			t.Errorf("request %d: served makespan %.17g != direct %.17g", i, got.Makespan, want.Makespan)
		}
		for w := range want.Schedule.Alpha {
			if got.Alpha[w] != want.Schedule.Alpha[w] {
				t.Errorf("request %d (%s): alpha[%d] served %.17g != direct %.17g",
					i, req.Strategy, w, got.Alpha[w], want.Schedule.Alpha[w])
			}
		}
		if got.Strategy != req.Strategy {
			t.Errorf("request %d: strategy echoed as %q", i, got.Strategy)
		}
	}
}

// TestServeBatchEndpoint: /v1/solve/batch answers aligned slots and
// reports per-slot errors without failing the whole batch.
func TestServeBatchEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4243))
	p := dls.RandomSpeeds(rng, 6, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	noZ := dls.NewPlatform(
		dls.Worker{C: 0.1, W: 0.5, D: 0.05},
		dls.Worker{C: 0.2, W: 0.3, D: 0.2},
	)
	_, ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []dls.Request{
		{Platform: p, Strategy: dls.StrategyIncC},
		{Platform: noZ, Strategy: dls.StrategyFIFO}, // fails: no common z
		{Platform: p, Strategy: dls.StrategyIncC},   // duplicate of slot 0
	}}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d result slots, want 3", len(out.Results))
	}
	if out.Results[0] == nil || out.Results[2] == nil {
		t.Fatal("successful slots are null")
	}
	if out.Results[1] != nil {
		t.Error("failed slot carries a result")
	}
	if len(out.Errors) != 3 || !strings.Contains(out.Errors[1], "common ratio") {
		t.Errorf("slot error not reported: %q", out.Errors)
	}
	if out.Results[0].Throughput != out.Results[2].Throughput {
		t.Error("duplicate slots disagree")
	}
}

// TestServeDeadline: an X-Timeout too small for the strategy surfaces as
// 504, not as a hung request.
func TestServeDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(4244))
	p := dls.RandomSpeeds(rng, 7, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	_, ts := newTestServer(t, Config{Window: time.Millisecond})
	req := dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req, map[string]string{"X-Timeout": "1ms"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// A malformed header is the caller's bug.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", req, map[string]string{"X-Timeout": "fast"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed X-Timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestServeSheds: with a wedged solver and a tiny queue the server
// answers 429 with a Retry-After header instead of queueing.
func TestServeSheds(t *testing.T) {
	solver, err := dls.NewSolver(dls.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	registerServerBlockStrategy()
	_, ts := newTestServer(t, Config{
		Solver: solver, Window: time.Millisecond, WindowSize: 1, QueueCap: 1, Workers: 1,
	})
	rng := rand.New(rand.NewSource(4245))
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	sheds := make(chan struct{}, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(dls.Request{Platform: p, Strategy: "server-test-block"})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(data))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // cancelled at teardown
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				sheds <- struct{}{}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sheds) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if len(sheds) == 0 {
		t.Fatal("no request was shed with a wedged queue")
	}
}

var registerServerBlockStrategy = sync.OnceFunc(func() {
	err := dls.RegisterStrategy("server-test-block", func(ctx context.Context, _ dls.Request) (*dls.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		panic(err)
	}
})

// TestServeMetricsAndStrategies: the discovery and observability
// endpoints expose the registry and the micro-batching counters.
func TestServeMetricsAndStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(4246))
	srv, ts := newTestServer(t, Config{Window: 50 * time.Millisecond, WindowSize: 16})

	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/strategies")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategies: status %d", resp.StatusCode)
	}
	var strategies StrategiesResponse
	if err := json.Unmarshal(body, &strategies); err != nil {
		t.Fatal(err)
	}
	if len(strategies.Strategies) < 14 {
		t.Errorf("registry lists %d strategies", len(strategies.Strategies))
	}

	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", r, err)
	} else {
		r.Body.Close()
	}

	// Drive chain-shaped traffic as one batch body, so it is admitted as
	// one group and shares a window even on an idle server, and the
	// prepass fires; then check the counters surface in /metrics.
	if resp, body := postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{Requests: testRequests(rng, 3)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve batch: status %d: %s", resp.StatusCode, body)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	metrics, _ := io.ReadAll(r.Body)
	text := string(metrics)
	for _, want := range []string{
		"dlsd_http_requests_total{code=\"200\"}",
		"dlsd_solve_latency_seconds_bucket",
		"dlsd_windows_total",
		"dlsd_window_flushes_total{reason=\"idle\"}",
		"dlsd_window_flushes_total{reason=\"timer\"}",
		"dlsd_batched_windows_total",
		"dlsd_queue_depth",
		"dlsd_solves_total",
		"dlsd_strategy_solves_total{strategy=\"inc-c\"}",
		"dlsd_prepass_groups_total",
		"dlsd_cache_hits_total",
		"dlsd_pair_search_nodes_expanded_total",
		"dlsd_pair_search_subtrees_pruned_total",
		"dlsd_pair_search_screened_total",
		"dlsd_eval_simplex_fallback_total",
		"dlsd_search_helpers_total{outcome=\"started\"}",
		"dlsd_search_helpers_total{outcome=\"denied\"}",
		"dlsd_search_helpers_total{outcome=\"retired\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	st := srv.solver.Stats()
	if st.Windows == 0 {
		t.Error("no admission window flushed")
	}
	if st.BatchedWindows == 0 {
		t.Error("no window batched >= 2 concurrent requests")
	}
	if st.PrepassGroups == 0 {
		t.Error("served chain traffic never took the SoA prepass")
	}
}

// parkServerWorkers wedges n drain workers of srv until ctx ends: it
// posts n server-test-block solves one at a time, each flushed at once to
// an idle worker, so later requests find the workers busy and wait in a
// window. The returned function waits until the parked requests return.
func parkServerWorkers(t *testing.T, ctx context.Context, srv *Server, url string, n int) (wait func()) {
	t.Helper()
	registerServerBlockStrategy()
	data, err := json.Marshal(dls.Request{Platform: dls.RandomSpeeds(rand.New(rand.NewSource(4249)), 4, dls.Heterogeneous).Platform(dls.DefaultApp(100)), Strategy: "server-test-block"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		before := srv.solver.Stats().Windows
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(data))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for srv.solver.Stats().Windows == before {
			if time.Now().After(deadline) {
				t.Fatal("a parking request never flushed")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return wg.Wait
}

// TestServeCloseDrains: Close answers a request still waiting in the
// admission window before returning, and later submissions get 503.
// Both drain workers are parked first, so the request waits in a window
// instead of flushing at once.
func TestServeCloseDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(4247))
	p := dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	solver, err := dls.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long window: only Close's drain can flush the request.
	srv, errNew := New(Config{Solver: solver, Window: time.Hour, WindowSize: 1 << 20})
	if errNew != nil {
		t.Fatal(errNew)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	park, release := context.WithCancel(context.Background())
	defer release()
	parked := parkServerWorkers(t, park, srv, ts.URL, 2)

	done := make(chan *SolveResponse, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/solve", dls.Request{Platform: p, Strategy: dls.StrategyIncC}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("drained request: status %d: %s", resp.StatusCode, body)
			done <- nil
			return
		}
		var out SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Error(err)
		}
		done <- &out
	}()
	// Wait for the request to reach the window, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.batcher.Stats().WindowFill+srv.batcher.Stats().QueueDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Freed workers take no window by themselves: the request still
	// waits for Close.
	release()
	parked()
	srv.Close()
	select {
	case out := <-done:
		if out == nil {
			t.Fatal("in-flight request failed during drain")
		}
		if out.Throughput <= 0 {
			t.Error("drained request got no result")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not answer the in-flight request")
	}
	resp, _ := postJSON(t, ts.URL+"/v1/solve", dls.Request{Platform: p, Strategy: dls.StrategyIncC}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", resp.StatusCode)
	}
	fmt.Fprint(io.Discard, "")
}

// TestOrderSearchMetrics: /metrics splits the order searches by what
// answered them, so the theorem path's hit rate is visible.
func TestOrderSearchMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func() *dls.Platform {
		return dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	}
	_, ts := newTestServer(t, Config{Window: 2 * time.Millisecond})
	for _, p := range []*dls.Platform{draw(), draw(), independentD(rng, draw())} {
		if resp, body := postJSON(t, ts.URL+"/v1/solve", dls.Request{Platform: p, Strategy: dls.StrategyLIFOExhaustive}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	metrics, _ := io.ReadAll(r.Body)
	for _, want := range []string{
		"dlsd_order_searches_total{backend=\"theorem\"} 2\n",
		"dlsd_order_searches_total{backend=\"sweep\"} 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEvalSimplexFallbackMetric: pair searches on the served shape (d tied
// to c) and with independent return costs, under both port models, are
// answered by certified tiers only, so the process-wide simplex fallback
// counter on /metrics still reads 0 after them.
func TestEvalSimplexFallbackMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4251))
	_, ts := newTestServer(t, Config{Window: 2 * time.Millisecond})
	for _, model := range []dls.Model{dls.OnePort, dls.TwoPort} {
		for _, p := range []*dls.Platform{
			dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(400)),
			independentD(rng, dls.RandomSpeeds(rng, 5, dls.Heterogeneous).Platform(dls.DefaultApp(100))),
		} {
			req := dls.Request{Platform: p, Strategy: dls.StrategyPairExhaustive, Model: model}
			if resp, body := postJSON(t, ts.URL+"/v1/solve", req, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
			}
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	metrics, _ := io.ReadAll(r.Body)
	if want := "dlsd_eval_simplex_fallback_total 0\n"; !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}
}
