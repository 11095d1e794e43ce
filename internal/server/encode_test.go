package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/dls"
)

// TestResponseGoldenBytes pins the bytes of every response type, taken
// from json.NewEncoder(w).Encode: the response format is a contract with
// every client. Both encoding/json and the server's encoder must write
// them. The strings exercise HTML and control-byte escaping, U+2028 and
// U+2029 and invalid UTF-8; the floats the exponent-form switches.
func TestResponseGoldenBytes(t *testing.T) {
	solve := &SolveResponse{
		Strategy: "fifo-exhaustive", Model: "one-port", Arith: "float64", Eval: "auto",
		Throughput: 0.1234567890123, Makespan: 1e21, Cached: true,
		Send: []int{2, 0, 1}, Return: []int{1, 0, 2}, Alpha: []float64{1e-7, 0.5, 123456789.125, 5e-324},
		Degraded: true, DegradedTo: "inc-c",
	}
	bare := &SolveResponse{Strategy: "lifo", Model: "two-port", Arith: "exact", Eval: "closed-form", Throughput: 2}
	for i, tc := range []struct {
		value response
		want  string
	}{
		{solve, "{\"strategy\":\"fifo-exhaustive\",\"model\":\"one-port\",\"arith\":\"float64\",\"eval\":\"auto\",\"throughput\":0.1234567890123,\"makespan\":1e+21,\"cached\":true,\"send\":[2,0,1],\"return\":[1,0,2],\"alpha\":[1e-7,0.5,123456789.125,5e-324],\"degraded\":true,\"degraded_to\":\"inc-c\"}\n"},
		{bare, "{\"strategy\":\"lifo\",\"model\":\"two-port\",\"arith\":\"exact\",\"eval\":\"closed-form\",\"throughput\":2}\n"},
		{&BatchResponse{Results: []*SolveResponse{bare, nil}, Errors: []string{"", "dls: unknown strategy \"<x>&\u2028\xff\""}},
			"{\"results\":[{\"strategy\":\"lifo\",\"model\":\"two-port\",\"arith\":\"exact\",\"eval\":\"closed-form\",\"throughput\":2},null],\"errors\":[\"\",\"dls: unknown strategy \\\"\\u003cx\\u003e\\u0026\\u2028\\ufffd\\\"\"]}\n"},
		{&BatchResponse{Results: []*SolveResponse{}}, "{\"results\":[]}\n"},
		{&BatchResponse{}, "{\"results\":null}\n"},
		{&ErrorResponse{Error: "decoding request: invalid character '\\x01' \"q\" <b>\t\u2029"},
			"{\"error\":\"decoding request: invalid character '\\\\x01' \\\"q\\\" \\u003cb\\u003e\\t\\u2029\"}\n"},
		{&StrategiesResponse{Strategies: []string{"fifo", "lifo"}}, "{\"strategies\":[\"fifo\",\"lifo\"]}\n"},
		{&StrategiesResponse{}, "{\"strategies\":null}\n"},
	} {
		var std bytes.Buffer
		if err := json.NewEncoder(&std).Encode(tc.value); err != nil {
			t.Fatalf("case %d: encoding/json: %v", i, err)
		}
		got, err := tc.value.appendJSON(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if std.String() != tc.want {
			t.Errorf("case %d: encoding/json moved off the golden bytes:\n  got:  %s  want: %s", i, std.Bytes(), tc.want)
		}
		if string(got) != tc.want {
			t.Errorf("case %d:\n  got:  %s  want: %s", i, got, tc.want)
		}
	}
}

// TestWriteJSONEncodeFailure: a response that cannot be encoded (a NaN)
// answers 500 with an ErrorResponse, not the intended status with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &SolveResponse{Strategy: "fifo", Throughput: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %q", rec.Code, rec.Body)
	}
	var out ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Fatalf("body %q is no ErrorResponse (%v)", rec.Body, err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}

// FuzzEncodeAgreement: on random responses, the server's encoder writes
// exactly the bytes json.NewEncoder(w).Encode writes, and fails exactly
// where encoding/json fails. The strings are arbitrary bytes (the seeds
// carry <>&, control bytes, U+2028 and invalid UTF-8); the floats are
// arbitrary bit patterns (the seeds sit on both sides of the 1e-6 and
// 1e21 format switches, plus -0, a subnormal, NaN and infinity).
func FuzzEncodeAgreement(f *testing.F) {
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21,
		math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		math.NaN(), math.Inf(-1), 0.1, 123456789.125, 1e-7,
	}
	strings := []string{"inc-c", "<b>&\"\u2028\u2029\\", "\x00\x1f\x7f\xff\xfe", "é😀\xed\xa0\x80", ""}
	for i, x := range floats {
		f.Add(strings[i%len(strings)], strings[(i+1)%len(strings)],
			math.Float64bits(x), math.Float64bits(floats[(i+3)%len(floats)]), int64(i)-7, uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, bits1, bits2 uint64, n int64, shape uint8) {
		x, y := math.Float64frombits(bits1), math.Float64frombits(bits2)
		solve := &SolveResponse{Strategy: s1, Model: s2, Arith: s1 + s2, Eval: s2, Throughput: x}
		if shape&1 != 0 {
			solve.Makespan = y
		}
		solve.Cached = shape&2 != 0
		if shape&4 != 0 {
			solve.Send, solve.Return = []int{int(n), 0}, []int{-int(n)}
		}
		if shape&8 != 0 {
			solve.Alpha = []float64{y, x, -y, y / 3}
		}
		solve.Degraded = shape&16 != 0
		if shape&32 != 0 {
			solve.DegradedTo = s1
		}
		batch := &BatchResponse{Results: []*SolveResponse{solve, nil, solve}}
		if shape&64 != 0 {
			batch.Errors = []string{"", s2, s1}
		}
		for _, v := range []response{
			solve, batch, &BatchResponse{Results: []*SolveResponse{}}, &ErrorResponse{Error: s1},
			&StrategiesResponse{Strategies: []string{s1, s2}}, &StrategiesResponse{},
		} {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(v)
			got, gotErr := v.appendJSON(nil)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("encoder error %v, encoding/json error %v on %+v", gotErr, wantErr, v)
			}
			if gotErr == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("bytes differ on %+v:\n  encoder:       %q\n  encoding/json: %q", v, got, want.Bytes())
			}
		}
	})
}

// chainBatchResponse answers a 64-slot chain-batch body the way
// handleBatch does, every slot solved.
func chainBatchResponse(tb testing.TB) *BatchResponse {
	solver, err := dls.NewSolver()
	if err != nil {
		tb.Fatal(err)
	}
	reqs := chainBatchRequests(rand.New(rand.NewSource(4254)), batchSlots)
	results, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		tb.Fatal(err)
	}
	block := make([]SolveResponse, len(results))
	resp := &BatchResponse{Results: make([]*SolveResponse, len(results))}
	for i, res := range results {
		block[i] = resultResponse(res)
		resp.Results[i] = &block[i]
	}
	return resp
}

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkEncodeBatch writes the answer to a 64-slot chain-batch body
// through writeJSON, the handler's encode step on its own. It reports
// the slot count, as BenchmarkDecodeBatch does.
func BenchmarkEncodeBatch(b *testing.B) {
	resp := chainBatchResponse(b)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		writeJSON(w, http.StatusOK, resp)
	}
	b.ReportMetric(batchSlots, "slots")
}

// TestEncodeBatchAllocGate: writing a 64-slot answer allocates once per
// body, whatever the slot count: the Content-Type header's value. The
// bound is that count plus one. Under the race detector sync.Pool drops
// a random share of the recycled buffers, so the gate does not apply.
func TestEncodeBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	res := testing.Benchmark(BenchmarkEncodeBatch)
	if res.N == 0 {
		t.Fatal("BenchmarkEncodeBatch failed")
	}
	t.Logf("EncodeBatch: %d allocs per body", res.AllocsPerOp())
	if res.AllocsPerOp() > 2 {
		t.Fatal("response encoding exceeded 2 allocations per 64-slot body")
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
