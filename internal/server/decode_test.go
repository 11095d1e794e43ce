package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/dls"
)

// postRaw posts body verbatim and returns the status and response body.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// validSolve is a solvable /v1/solve body.
const validSolve = `{"platform":{"workers":[{"c":0.05,"w":0.4,"d":0.025},{"c":0.1,"w":0.3,"d":0.05}]},"strategy":"inc-c"}`

// TestServeDecodeBoundaries pins the boundary checks of request decoding
// on both routes: every check the wire conversion makes answers 400, a
// null slot is a per-slot failure, and a null enum is its default. The
// batch route carries the same body as its only slot.
func TestServeDecodeBoundaries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	platform := `"platform":{"workers":[{"c":0.05,"w":0.4,"d":0.025}]}`
	for _, tc := range []struct {
		name  string
		body  string
		solve int // status on /v1/solve
		batch int // status on /v1/solve/batch
		slot  bool
	}{
		{"valid", validSolve, http.StatusOK, http.StatusOK, false},
		{"unknown model", `{` + platform + `,"strategy":"inc-c","model":"three-port"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"unknown arith", `{` + platform + `,"strategy":"inc-c","arith":"decimal"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"unknown eval", `{` + platform + `,"strategy":"inc-c","eval":"magic"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"removed eval direct", `{` + platform + `,"strategy":"inc-c","eval":"direct"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"removed eval closed-form", `{` + platform + `,"strategy":"inc-c","eval":"closed-form"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"zero c", `{"platform":{"workers":[{"c":0,"w":0.4,"d":0.025}]},"strategy":"inc-c"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"negative c", `{"platform":{"workers":[{"c":-1,"w":0.4,"d":0.025}]},"strategy":"inc-c"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"no workers", `{"platform":{"workers":[]},"strategy":"inc-c"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"malformed", `{"strategy":`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"wrong type", `{"strategy":"inc-c","load":"ten"}`, http.StatusBadRequest, http.StatusBadRequest, false},
		{"null", `null`, http.StatusUnprocessableEntity, http.StatusOK, true},
		{"null model", `{` + platform + `,"strategy":"inc-c","model":null}`, http.StatusOK, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRaw(t, ts.URL+"/v1/solve", tc.body)
			if status != tc.solve {
				t.Errorf("/v1/solve: status %d, want %d: %s", status, tc.solve, body)
			}
			if strings.HasPrefix(tc.name, "removed eval") && !strings.Contains(string(body), "auto, simplex, exact") {
				t.Errorf("/v1/solve: %s does not list the eval modes", body)
			}
			if tc.name == "null model" && status == http.StatusOK {
				var out SolveResponse
				if err := json.Unmarshal(body, &out); err != nil || out.Model != dls.ModelName(dls.OnePort) {
					t.Errorf("/v1/solve: null model answered %s (%v), want the one-port default", body, err)
				}
			}
			status, body = postRaw(t, ts.URL+"/v1/solve/batch", `{"requests":[`+tc.body+`]}`)
			if status != tc.batch {
				t.Fatalf("/v1/solve/batch: status %d, want %d: %s", status, tc.batch, body)
			}
			if status != http.StatusOK {
				return
			}
			var out BatchResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if failed := len(out.Errors) == 1 && out.Errors[0] != "" && out.Results[0] == nil; failed != tc.slot {
				t.Errorf("/v1/solve/batch: slot failed = %v, want %v: %s", failed, tc.slot, body)
			}
		})
	}
}

// TestServeRejectsTrailingData: a body is exactly one JSON value. Data
// after it, even a second complete request, is a 400 on both routes.
func TestServeRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := `{"requests":[` + validSolve + `]}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", validSolve + ` xyz`},
		{"/v1/solve", validSolve + ` {"strategy":"nope"}`},
		{"/v1/solve", validSolve + validSolve},
		{"/v1/solve/batch", batch + `]]]`},
		{"/v1/solve/batch", batch + ` ` + batch},
	} {
		if status, body := postRaw(t, ts.URL+tc.path, tc.body); status != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400: %s", tc.path, tc.body, status, body)
		}
	}
	// Trailing whitespace is not data.
	for path, body := range map[string]string{"/v1/solve": validSolve, "/v1/solve/batch": batch} {
		if status, out := postRaw(t, ts.URL+path, body+" \n\t\r\n"); status != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d: %s", path, status, out)
		}
	}
}

// TestServeOversizedBody: a body over Config.MaxBody answers 413, the
// status of the batch-count cap, on both routes; a body of exactly
// MaxBody bytes is read.
func TestServeOversizedBody(t *testing.T) {
	const limit = 256
	_, ts := newTestServer(t, Config{MaxBody: limit})
	// Pad inside the value, so the JSON value itself crosses the cap.
	pad := func(body string, n int) string { return body[:1] + strings.Repeat(" ", n-len(body)) + body[1:] }
	batch := `{"requests":[` + validSolve + `]}`
	for path, body := range map[string]string{"/v1/solve": validSolve, "/v1/solve/batch": batch} {
		if status, out := postRaw(t, ts.URL+path, pad(body, limit)); status != http.StatusOK {
			t.Errorf("%s at the cap: status %d: %s", path, status, out)
		}
		if status, out := postRaw(t, ts.URL+path, pad(body, limit+1)); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over the cap: status %d, want 413: %s", path, status, out)
		}
	}
}

// decodeSeeds are the FuzzRequestJSON seeds of package dls plus
// marshalled random requests and the bodies of the tests above.
func decodeSeeds() [][]byte {
	seeds := [][]byte{
		[]byte(`{"strategy":"fifo"}`),
		[]byte(`{"strategy":"scenario","model":"two-port","send":[1,0],"return":[0,1]}`),
		[]byte(`{"platform":{"workers":[{"c":0.1,"w":0.5,"d":0.05}]},"strategy":"lifo","arith":"exact","load":10}`),
		[]byte(`{"strategy":"fifo-affine","affine":{"in":[0.1],"out":[0.2],"comp":[0.3]}}`),
		[]byte(validSolve),
		[]byte(validSolve + ` xyz`),
		[]byte(`null`),
		[]byte(`{"platform":{"workers":[{"c":0,"w":1,"d":1}]},"strategy":"fifo","model":null}`),
		[]byte(`{"platform":{"workers":[{"name":"x","c":1,"w":1,"d":1},{"c":2,"w":2,"d":2}]},"platform":null,"eval":"direct"}`),
	}
	rng := rand.New(rand.NewSource(5152))
	for _, req := range chainBatchRequests(rng, 8) {
		data, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// oracleBatch is the batch body's shape for encoding/json, the reference
// decoder.
type oracleBatch struct {
	Requests []dls.WireRequest `json:"requests"`
}

// FuzzDecodeAgreement: on arbitrary bytes, the server's decoders accept
// exactly what encoding/json into the dls wire shapes accepts, and leave
// the same WireRequest values and the same converted Requests behind.
// Every input is tried as a /v1/solve body, as a /v1/solve/batch body,
// and, when it is one JSON value, as the only slot of a batch body. The
// committed corpus holds one input per rule of encoding/json the decoder
// must match.
func FuzzDecodeAgreement(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSolveAgreement(t, data)
		checkBatchAgreement(t, data)
		if json.Valid(data) {
			checkBatchAgreement(t, []byte(`{"requests":[`+string(data)+`]}`))
		}
	})
}

// checkSolveAgreement compares the /v1/solve decode of data with
// encoding/json into dls.WireRequest followed by WireRequest.Request.
func checkSolveAgreement(t *testing.T, data []byte) {
	t.Helper()
	var want dls.WireRequest
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := dls.DecodeWireRequest(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeWireRequest error %v, encoding/json error %v on %q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire decodes differ on %q:\n  codec:         %+v\n  encoding/json: %+v", data, got, want)
	}
	wantReq, wantErr := want.Request()
	gotReq, gotErr := decodeSolve(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeSolve error %v, reference error %v on %q", gotErr, wantErr, data)
	}
	if gotErr == nil && !reflect.DeepEqual(gotReq, wantReq) {
		t.Fatalf("requests differ on %q:\n  server:    %+v\n  reference: %+v", data, gotReq, wantReq)
	}
}

// checkBatchAgreement compares the /v1/solve/batch decode of data with
// encoding/json into oracleBatch followed by WireRequest.Request on every
// slot.
func checkBatchAgreement(t *testing.T, data []byte) {
	t.Helper()
	var want oracleBatch
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := dls.DecodeWireBatch(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeWireBatch error %v, encoding/json error %v on %q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want.Requests) {
		t.Fatalf("batch wire decodes differ on %q:\n  codec:         %+v\n  encoding/json: %+v", data, got, want.Requests)
	}
	wantReqs := make([]dls.Request, len(want.Requests))
	for i := range want.Requests {
		if wantReqs[i], wantErr = want.Requests[i].Request(); wantErr != nil {
			break
		}
	}
	gotReqs, gotErr := decodeBatch(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeBatch error %v, reference error %v on %q", gotErr, wantErr, data)
	}
	if gotErr == nil && !reflect.DeepEqual(gotReqs, wantReqs) {
		t.Fatalf("batch requests differ on %q:\n  server:    %+v\n  reference: %+v", data, gotReqs, wantReqs)
	}
}

// chainBatchRequests draws n requests shaped like the dlsbench
// chain-batch workload: p = 8 or 12 on size-2000 matrix platforms, the
// chain strategies with a load, a send order on fifo-order, and one
// slot in eight repeating an earlier one.
func chainBatchRequests(rng *rand.Rand, n int) []dls.Request {
	strategies := []string{dls.StrategyIncC, dls.StrategyIncW, dls.StrategyDecC, dls.StrategyLIFO, dls.StrategyFIFOOrder}
	reqs := make([]dls.Request, n)
	for i := range reqs {
		if i > 0 && rng.Float64() < 1.0/8 {
			reqs[i] = reqs[rng.Intn(i)]
			continue
		}
		p := 8 + 4*rng.Intn(2)
		plat := dls.RandomSpeeds(rng, p, dls.Heterogeneous).Platform(dls.DefaultApp(2000))
		reqs[i] = dls.Request{Platform: plat, Strategy: strategies[rng.Intn(len(strategies))], Load: 1000}
		if reqs[i].Strategy == dls.StrategyFIFOOrder {
			reqs[i].Send = dls.Order(rng.Perm(p))
		}
	}
	return reqs
}

// batchSlots is the slot count of the decode and handler benchmarks,
// the chain-batch body size.
const batchSlots = 64

func chainBatchBody(tb testing.TB) []byte {
	body, err := json.Marshal(BatchRequest{Requests: chainBatchRequests(rand.New(rand.NewSource(4254)), batchSlots)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeBatch decodes a 64-slot chain-batch body, the handler's
// decode step on its own. It reports the slot count, so allocs/op
// divides into allocations per slot.
func BenchmarkDecodeBatch(b *testing.B) {
	body := chainBatchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeBatch(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batchSlots, "slots")
}

// TestDecodeBatchAllocGate: decoding a 64-slot chain-batch body
// (BenchmarkDecodeBatch) must stay under 24 allocations per slot, the
// bound encoding/json's reflective decode into the wire shape met with
// about 18. The hand-written decoder makes 152 per body, about 2.4 per
// slot (the slot's platform, its worker slice and the odd send order; the
// batch's slices), and the tighter bound holds it at that count plus
// one. Allocation counts are deterministic, so the gate cannot flap;
// under the race detector sync.Pool drops a random share of its items, so
// only the loose bound applies there.
func TestDecodeBatchAllocGate(t *testing.T) {
	res := testing.Benchmark(BenchmarkDecodeBatch)
	if res.N == 0 {
		t.Fatal("BenchmarkDecodeBatch failed")
	}
	per := float64(res.AllocsPerOp()) / res.Extra["slots"]
	t.Logf("DecodeBatch: %d allocs per body, %.2f per slot", res.AllocsPerOp(), per)
	if per >= 24 {
		t.Fatal("request decoding reached 24 allocations per slot")
	}
	if !raceEnabled && res.AllocsPerOp() > 153 {
		t.Fatal("request decoding exceeded 153 allocations per 64-slot body")
	}
}

// batchServer builds a server over a fresh solver with the given cache
// capacity and returns a function that posts one batch body through
// ServeHTTP and fails unless it is answered 200. With noWindow the
// server solves without an admission window; otherwise it keeps dlsd's
// default 2 ms window. The server closes when tb ends.
func batchServer(tb testing.TB, cache int, noWindow bool) (*dls.Solver, func(body []byte)) {
	solver, err := dls.NewSolver(dls.WithCache(cache))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Solver: solver, NoBatchWindow: noWindow})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	return solver, func(body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// handleBatchHit returns the serve step of BenchmarkHandleBatch: a
// 64-slot chain-batch body through a windowless server whose cache
// already holds every slot's answer.
func handleBatchHit(tb testing.TB) func() {
	_, serve := batchServer(tb, 1024, true)
	body := chainBatchBody(tb)
	serve(body) // fill the cache
	return func() { serve(body) }
}

// handleBatchMiss returns the serve step of BenchmarkHandleBatchMiss:
// each call posts the next of 256 distinct 64-slot bodies, about 14k
// distinct problems, to a server with dlsd's default window and 4096-entry
// cache, so every slot misses and the chain prepass builds, verifies and
// caches its answer. One pass over the bodies fills the cache first, so
// each slot served afterwards also evicts an entry.
func handleBatchMiss(tb testing.TB) func() {
	solver, serve := batchServer(tb, 4096, false)
	bodies := make([][]byte, 256)
	for i := range bodies {
		var err error
		bodies[i], err = json.Marshal(BatchRequest{Requests: chainBatchRequests(rand.New(rand.NewSource(int64(i))), batchSlots)})
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, body := range bodies {
		serve(body)
	}
	tb.Cleanup(func() {
		if st := solver.Stats(); st.Hits > 0 {
			tb.Errorf("%d cache hits: the bodies must miss", st.Hits)
		}
	})
	i := 0
	return func() {
		serve(bodies[i%len(bodies)])
		i++
	}
}

// BenchmarkHandleBatch serves a 64-slot chain-batch body through
// ServeHTTP without an admission window, every slot answered from the
// cache: the handler layer (read, decode, admit, encode) with the
// solver's work reduced to cache reads.
func BenchmarkHandleBatch(b *testing.B) {
	serve := handleBatchHit(b)
	b.SetBytes(int64(len(chainBatchBody(b))))
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// BenchmarkHandleBatchMiss is the cache-missing chain-batch shape
// (handleBatchMiss): the handler layer over the engine's miss path.
func BenchmarkHandleBatchMiss(b *testing.B) {
	serve := handleBatchMiss(b)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestHandleBatchAllocGate holds the allocations per 64-slot body of
// BenchmarkHandleBatch (hit) and BenchmarkHandleBatchMiss (miss) to their
// counts plus one. Two things outside the code under test move those
// counts, so both are pinned while counting: the solver's pool starts one
// goroutine per worker, and its size follows GOMAXPROCS (pinned to 2);
// and with the collector running the counts drift by up to 10 per body
// with collection timing (most likely sync.Pool shedding the pooled
// decoders, buffers and evaluator sessions), so the collector is off for
// the 100 counted bodies (at most about 40 MB). Under the race detector sync.Pool also
// drops items at random, so there only the loose bounds apply: the counts
// before the schedule checker, the order copies and the result clones
// stopped allocating per slot.
func TestHandleBatchAllocGate(t *testing.T) {
	for _, c := range []struct {
		name         string
		serve        func(testing.TB) func()
		bound, loose float64
	}{
		{"hit", handleBatchHit, 696, 1223},
		{"miss", handleBatchMiss, 1312, 3165},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			serve := c.serve(t)
			if !raceEnabled {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
			}
			n := testing.AllocsPerRun(100, serve)
			t.Logf("%s: %.0f allocs per 64-slot body", c.name, n)
			if n > c.loose || !raceEnabled && n > c.bound {
				t.Fatalf("%s: %.0f allocs per 64-slot body, bound %.0f (loose %.0f)", c.name, n, c.bound, c.loose)
			}
		})
	}
}
