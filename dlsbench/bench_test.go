package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/server"
)

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.timed) == 0 || len(a.timed) != len(b.timed) || len(a.warm) != len(b.warm) || !slices.Equal(a.due, b.due) {
			t.Fatalf("%s: seed 7 gave different shapes: %d/%d timed, %d/%d warm", name, len(a.timed), len(b.timed), len(a.warm), len(b.warm))
		}
		for i := range a.timed {
			if !bytes.Equal(a.timed[i].body, b.timed[i].body) {
				t.Fatalf("%s: timed body %d differs between two generations of seed 7", name, i)
			}
		}
		for i := range a.warm {
			if !bytes.Equal(a.warm[i].body, b.warm[i].body) {
				t.Fatalf("%s: warm-up body %d differs between two generations of seed 7", name, i)
			}
		}
		if bytes.Equal(a.timed[0].body, c.timed[0].body) {
			t.Fatalf("%s: seeds 7 and 8 gave the same first body", name)
		}
	}
}

// TestOpenLoopLatencyIncludesLateness drives the open loop against a stub
// server that stalls its first answer: the calls due during the stall
// must count the time they waited for a connection, from their due time.
func TestOpenLoopLatencyIncludesLateness(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	calls := make([]call, 6)
	due := make([]time.Duration, len(calls))
	for i := range calls {
		calls[i] = call{path: "/", body: []byte("{}")}
		due[i] = time.Duration(i) * 20 * time.Millisecond
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	samples, late := openLoop(context.Background(), client, srv.URL, calls, due, 1, time.Now())
	for i := 1; i < len(calls); i++ {
		waited := stall - due[i]
		if samples[i].err != nil {
			t.Fatal(samples[i].err)
		}
		if samples[i].latency < waited {
			t.Errorf("call %d due at %v: latency %v, but it waited %v for the stalled connection", i, due[i], samples[i].latency, waited)
		}
		if late[i] > 10*time.Millisecond {
			t.Errorf("call %d: dispatcher %v late; the stall must not hold the generator back", i, late[i])
		}
	}
}

// solved returns a verified answer to req, built the way dlsd's handler
// builds it.
func solved(t *testing.T, req dls.Request) *server.SolveResponse {
	t.Helper()
	s, err := dls.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := &server.SolveResponse{
		Strategy: res.Strategy, Model: dls.ModelName(res.Model), Throughput: res.Throughput,
		Makespan: res.Makespan, Send: res.Send, Return: res.Return,
	}
	if res.Schedule != nil {
		r.Alpha = res.Schedule.Alpha
	} else {
		r.Alpha = res.Affine.Alpha
	}
	if err := checkAnswer(req, r); err != nil {
		t.Fatalf("untampered %s answer fails verification: %v", req.Strategy, err)
	}
	return r
}

func TestTamperedAnswerFails(t *testing.T) {
	chain, err := generate("chain-solo", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srch, err := generate("search", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []dls.Request{chain.timed[0].reqs[0]}
	for _, c := range srch.timed[:len(searchKinds)] {
		reqs = append(reqs, c.reqs[0])
	}
	for _, req := range reqs {
		r := solved(t, req)
		i := slices.IndexFunc(r.Alpha, func(a float64) bool { return a > 0 })
		tampered := *r
		tampered.Alpha = slices.Clone(r.Alpha)
		tampered.Alpha[i] = -tampered.Alpha[i]
		if err := checkAnswer(req, &tampered); err == nil {
			t.Errorf("%s: answer with α[%d] flipped passes verification", kindOf(req), i)
		}
		// The same tampered answer, served over HTTP, counts as failed.
		body, err := json.Marshal(&tampered)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		verify([]call{{path: "/v1/solve", reqs: []dls.Request{req}}}, []sample{{status: http.StatusOK, body: body}}, 1, 1, &tl)
		if tl.attempted != 1 || tl.failed != 1 {
			t.Errorf("%s: tampered answer tallied %d failed of %d", kindOf(req), tl.failed, tl.attempted)
		}
	}
	// A consistent but wrong answer (loads and throughput both scaled up)
	// passes Σα and must fail the independent re-solve.
	req := chain.timed[0].reqs[0]
	r := solved(t, req)
	var tl tally
	if err := resolveSample(context.Background(), []answer{{req: req, resp: r}}, 1, 1, &tl); err != nil || tl.failed != 0 {
		t.Fatalf("re-solve of an honest answer: %v, %v", err, tl.reasons)
	}
	wrong := *r
	wrong.Throughput *= 1.01
	if err := resolveSample(context.Background(), []answer{{req: req, resp: &wrong}}, 1, 1, &tl); err != nil || tl.failed != 1 {
		t.Errorf("re-solve accepted a throughput 1%% above the optimum: %v, %v", err, tl.reasons)
	}
}

// TestMetricNames checks that every metric name is well formed and that
// the result object carries exactly the metrics BENCHMARK.json lists.
func TestMetricNames(t *testing.T) {
	w := &workload{name: "search", timed: []call{{reqs: make([]dls.Request, 1)}}}
	t0 := time.Now()
	ph := &phase{
		w: w, setup: []time.Duration{time.Second}, elapsed: time.Second,
		samples: []sample{{status: http.StatusOK, latency: time.Millisecond, done: t0}},
		ticks:   []cpuTick{{t0, 0}, {t0.Add(time.Second), time.Millisecond}},
		tally:   tally{attempted: 1, answered: 1}, scrape: metrics{},
	}
	e2e, layer := e2eMetrics(ph), layerMetrics(ph, ph, layerValues{})
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(e2e), layer...) {
		if !valid.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		got  map[string]metricValue
	}{
		{"end_to_end", spec.EndToEnd, ph.result(e2e).Metrics},
		{"per_layer", spec.PerLayer, ph.result(layer).Metrics},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: result carries %d metrics, BENCHMARK.json lists %d", c.what, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s [%s], result has %+v (present %v)", c.what, m.Name, m.Unit, got, ok)
			}
		}
	}
}

func TestSJTVisitsAllPermutations(t *testing.T) {
	const n = 5
	perm := []int{0, 1, 2, 3, 4}
	seen := map[[n]int]bool{[n]int(perm): true}
	sjt(n, func(i int) {
		perm[i], perm[i+1] = perm[i+1], perm[i]
		seen[[n]int(perm)] = true
	})
	if len(seen) != 120 {
		t.Fatalf("SJT visited %d of 120 permutations", len(seen))
	}
}
