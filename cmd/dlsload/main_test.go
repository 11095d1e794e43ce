package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/server"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 0.5); p != 5 {
		t.Errorf("p50 = %g, want 5", p)
	}
	if p := percentile(s, 1); p != 10 {
		t.Errorf("p100 = %g, want 10", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %g, want 0", p)
	}
}

func TestWorkloadPools(t *testing.T) {
	for _, mix := range []string{"chain", "mixed"} {
		pool, err := workload(rand.New(rand.NewSource(7)), mix, 5, 4)
		if err != nil {
			t.Fatalf("mix %s: %v", mix, err)
		}
		if len(pool) == 0 {
			t.Fatalf("mix %s: empty pool", mix)
		}
		// Every pre-marshalled request must decode back to a request the
		// engine accepts, and carry its capture metadata.
		for i, entry := range pool {
			var req dls.Request
			if err := json.Unmarshal(entry.body, &req); err != nil {
				t.Fatalf("mix %s: pool[%d] does not decode: %v", mix, i, err)
			}
			if req.Platform == nil || req.Strategy == "" {
				t.Fatalf("mix %s: pool[%d] incomplete: %s", mix, i, entry.body)
			}
			if entry.kind != "chain" && entry.kind != "search" {
				t.Fatalf("mix %s: pool[%d] kind %q", mix, i, entry.kind)
			}
			if entry.pb < 0 || entry.pb >= 4 {
				t.Fatalf("mix %s: pool[%d] platform index %d", mix, i, entry.pb)
			}
		}
	}
	if _, err := workload(rand.New(rand.NewSource(7)), "bogus", 5, 4); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestSearchMixRunsTheSweep: the search mix's platforms have no common z,
// so its order searches stay solver-bound instead of answering from the
// theorems.
func TestSearchMixRunsTheSweep(t *testing.T) {
	pool, err := workload(rand.New(rand.NewSource(1)), "search", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 8 {
		t.Fatalf("search pool has %d entries, want 8", len(pool))
	}
	for i, entry := range pool {
		var req dls.Request
		if err := json.Unmarshal(entry.body, &req); err != nil {
			t.Fatalf("pool[%d] does not decode: %v", i, err)
		}
		if z, ok := req.Platform.Z(); ok {
			t.Fatalf("pool[%d] (%s) has a common z = %g", i, req.Strategy, z)
		}
	}
}

// TestRunAgainstServer drives a real in-process dlsd for a short burst
// and checks the report, the error gates and the batching gate.
func TestRunAgainstServer(t *testing.T) {
	solver, err := dls.NewSolver(dls.WithCache(1024), dls.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Solver: solver, Window: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	out := filepath.Join(t.TempDir(), "report.json")
	var buf strings.Builder
	err = run([]string{
		"-url", ts.URL,
		"-duration", "600ms",
		"-concurrency", "16",
		"-platforms", "8",
		"-mix", "chain",
		"-json", out,
		"-fail-on-error",
		"-min-batched-windows", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 || report.RPS <= 0 {
		t.Errorf("empty report: %+v", report)
	}
	if report.Codes["200"] == 0 {
		t.Errorf("no 200s recorded: %+v", report.Codes)
	}
	if report.Server["dlsd_batched_windows_total"] == 0 {
		t.Errorf("no batched windows observed: %+v", report.Server)
	}
	if report.LatencyMS["p50"] <= 0 {
		t.Errorf("no latency percentiles: %+v", report.LatencyMS)
	}

	// The rps floor gate must fire when set absurdly high.
	err = run([]string{
		"-url", ts.URL, "-duration", "200ms", "-concurrency", "4",
		"-platforms", "2", "-min-rps", "1e12",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "under the") {
		t.Errorf("min-rps gate did not fire: %v", err)
	}
}

// chaosReplica is a fake dlsd replica with a pluggable /v1/solve handler
// and an empty /metrics page, so run()'s scrapes succeed.
func chaosReplica(t *testing.T, solve http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/solve", solve)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRunRetriesAcrossFleet: with one replica answering 500 and one
// healthy, retries route every request to success — availability 1.0
// even though half the first attempts land on the broken replica.
func TestRunRetriesAcrossFleet(t *testing.T) {
	bad := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) //nolint:errcheck
	})

	out := filepath.Join(t.TempDir(), "report.json")
	var buf strings.Builder
	err := run([]string{
		"-url", bad.URL + "," + good.URL,
		"-duration", "400ms",
		"-concurrency", "4",
		"-platforms", "2",
		"-retries", "3",
		"-min-availability", "0.999",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.OK == 0 || report.OK != report.Requests {
		t.Errorf("ok = %d of %d requests, want all", report.OK, report.Requests)
	}
	if report.Failed != 0 || report.Availability != 1 {
		t.Errorf("failed = %d, availability = %g, want 0 and 1", report.Failed, report.Availability)
	}
	if report.Resilience == nil || report.Resilience.Retries == 0 {
		t.Errorf("no retries recorded despite a dead replica: %+v", report.Resilience)
	}
	if len(report.Replicas) != 2 {
		t.Errorf("replicas = %v, want both", report.Replicas)
	}
}

// TestRunClassifiesInjectedAndShed: chaos-marked failures count as
// injected (not failed) and final 429s count as shed — neither touches
// availability's denominator.
func TestRunClassifiesInjectedAndShed(t *testing.T) {
	var n atomic.Uint64
	ts := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set(server.ChaosHeader, "error")
			http.Error(w, "injected", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusTooManyRequests)
	})

	out := filepath.Join(t.TempDir(), "report.json")
	var buf strings.Builder
	err := run([]string{
		"-url", ts.URL,
		"-duration", "300ms",
		"-concurrency", "4",
		"-platforms", "2",
		"-retries", "-1", // disable retries: classify the raw responses
		// Disable the breaker too: five injected 503s in a row would open
		// it, and its short-circuits are not raw responses.
		"-breaker-threshold", "-1",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Injected == 0 || report.Shed == 0 {
		t.Errorf("injected = %d, shed = %d, want both > 0", report.Injected, report.Shed)
	}
	if report.Failed != 0 || report.OK != 0 {
		t.Errorf("failed = %d, ok = %d, want 0 and 0", report.Failed, report.OK)
	}
	if got := report.Injected + report.Shed; got != report.Requests {
		t.Errorf("injected + shed = %d, want all %d requests", got, report.Requests)
	}
}

// TestRunBreakerCycle: a replica that fails its first requests and then
// recovers drives the breaker through a full open -> half-open -> close
// cycle, which -min-breaker-cycles certifies.
func TestRunBreakerCycle(t *testing.T) {
	var n atomic.Uint64
	ts := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 5 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("{}")) //nolint:errcheck
	})

	var buf strings.Builder
	err := run([]string{
		"-url", ts.URL,
		"-duration", "500ms",
		"-concurrency", "2",
		"-platforms", "2",
		"-breaker-threshold", "5",
		"-breaker-cooldown", "20ms",
		"-min-breaker-cycles", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("no breaker recovery cycle observed: %v\noutput:\n%s", err, buf.String())
	}
}

// TestRunResilienceGatesFire: the availability and breaker-cycle floors
// must fail the run when unmet.
func TestRunResilienceGatesFire(t *testing.T) {
	down := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	var buf strings.Builder
	err := run([]string{
		"-url", down.URL, "-duration", "200ms", "-concurrency", "2",
		"-platforms", "2", "-retries", "-1", "-min-availability", "0.5",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "availability") {
		t.Errorf("availability gate did not fire: %v", err)
	}

	healthy := chaosReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) //nolint:errcheck
	})
	err = run([]string{
		"-url", healthy.URL, "-duration", "200ms", "-concurrency", "2",
		"-platforms", "2", "-min-breaker-cycles", "1",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "breaker recovery cycles") {
		t.Errorf("breaker-cycle gate did not fire: %v", err)
	}
}
