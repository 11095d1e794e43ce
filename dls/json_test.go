package dls_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/dls"
)

// randomRequest draws a request with every field exercised: random
// platform, any strategy name, random enums, optional orders, affine
// payloads and load. Requests need not be solvable — the wire format
// round-trips anything representable.
func randomRequest(rng *rand.Rand) dls.Request {
	p := dls.RandomSpeeds(rng, 2+rng.Intn(5), dls.Family(rng.Intn(3))).Platform(dls.DefaultApp(100))
	req := dls.Request{
		Platform: p,
		Strategy: dls.Strategies()[rng.Intn(len(dls.Strategies()))],
		Model:    dls.Model(rng.Intn(2)),
		Arith:    dls.Arith(rng.Intn(2)),
		Eval:     []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex, dls.EvalExact}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		req.Send = p.ByC()
		req.Return = p.ByC().Reverse()
	}
	if rng.Intn(3) == 0 {
		aff := dls.ZeroAffine(p.P())
		for i := 0; i < p.P(); i++ {
			aff.In[i] = rng.Float64()
			aff.Out[i] = rng.Float64()
			aff.Comp[i] = rng.Float64()
		}
		req.Affine = &aff
	}
	if rng.Intn(2) == 0 {
		req.Load = 1 + rng.Float64()*1000
	}
	return req
}

// TestRequestJSONRoundTrip: marshal → unmarshal reproduces the request
// exactly (platforms compare by value including names, enums by identity).
func TestRequestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for i := 0; i < 200; i++ {
		req := randomRequest(rng)
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("request %d: marshal: %v", i, err)
		}
		var back dls.Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("request %d: unmarshal %s: %v", i, data, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("request %d: round trip drifted:\n  in:  %+v\n  out: %+v\n  wire: %s", i, req, back, data)
		}
	}
}

// TestRequestJSONDefaults: zero-valued knobs are omitted on the wire and
// absent fields decode to the zero values, so the two spellings agree.
func TestRequestJSONDefaults(t *testing.T) {
	req := dls.Request{Strategy: dls.StrategyFIFO}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"strategy":"fifo"}` {
		t.Errorf("defaults not omitted: %s", data)
	}
	var back dls.Request
	if err := json.Unmarshal([]byte(`{"strategy":"fifo"}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.Model != dls.OnePort || back.Arith != dls.Float64 || back.Eval != dls.EvalAuto {
		t.Errorf("absent enums decoded non-zero: %+v", back)
	}
}

// TestRequestJSONExplicitNames: every enum spelling decodes to its value.
func TestRequestJSONExplicitNames(t *testing.T) {
	wire := `{
		"platform": {"workers": [{"c": 0.1, "w": 0.5, "d": 0.05}]},
		"strategy": "scenario",
		"model": "two-port",
		"arith": "exact",
		"eval": "exact",
		"send": [0],
		"return": [0],
		"load": 250
	}`
	var req dls.Request
	if err := json.Unmarshal([]byte(wire), &req); err != nil {
		t.Fatal(err)
	}
	if req.Model != dls.TwoPort || req.Arith != dls.Exact || req.Eval != dls.EvalExact {
		t.Errorf("enums decoded wrong: %+v", req)
	}
	if req.Platform.P() != 1 || req.Load != 250 {
		t.Errorf("payload decoded wrong: %+v", req)
	}
}

// TestRequestJSONRejects: unknown enum names and invalid platforms fail
// loudly rather than defaulting.
func TestRequestJSONRejects(t *testing.T) {
	for name, wire := range map[string]string{
		"unknown model":    `{"strategy":"fifo","model":"three-port"}`,
		"unknown arith":    `{"strategy":"fifo","arith":"decimal"}`,
		"unknown eval":     `{"strategy":"fifo","eval":"magic"}`,
		"invalid platform": `{"strategy":"fifo","platform":{"workers":[{"c":-1,"w":1,"d":1}]}}`,
		"malformed":        `{"strategy":`,
	} {
		var req dls.Request
		if err := json.Unmarshal([]byte(wire), &req); err == nil {
			t.Errorf("%s accepted: %s", name, wire)
		}
	}
}

// FuzzRequestJSON feeds arbitrary bytes through the request decoder. It
// must agree with the reference, encoding/json into dls.WireRequest
// followed by WireRequest.Request: the same bodies accepted, the same
// WireRequest and Request decoded, directly (DecodeWireRequest) and
// through Request.UnmarshalJSON. Everything that decodes must re-encode
// and decode back to the same request (the wire format has one canonical
// form per value).
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte(`{"strategy":"fifo"}`))
	f.Add([]byte(`{"strategy":"scenario","model":"two-port","send":[1,0],"return":[0,1]}`))
	f.Add([]byte(`{"platform":{"workers":[{"c":0.1,"w":0.5,"d":0.05}]},"strategy":"lifo","arith":"exact","load":10}`))
	f.Add([]byte(`{"strategy":"fifo-affine","affine":{"in":[0.1],"out":[0.2],"comp":[0.3]}}`))
	rng := rand.New(rand.NewSource(5151))
	for i := 0; i < 8; i++ {
		data, err := json.Marshal(randomRequest(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wantWire dls.WireRequest
		wantErr := json.Unmarshal(data, &wantWire)
		gotWire, gotErr := dls.DecodeWireRequest(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeWireRequest error %v, encoding/json error %v on %q", gotErr, wantErr, data)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(gotWire, wantWire) {
			t.Fatalf("wire decodes differ on %q:\n  codec:         %+v\n  encoding/json: %+v", data, gotWire, wantWire)
		}
		want, wantErr := wantWire.Request()
		var req dls.Request
		gotErr = json.Unmarshal(data, &req)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Request.UnmarshalJSON error %v, reference error %v on %q", gotErr, wantErr, data)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("requests differ on %q:\n  UnmarshalJSON: %+v\n  reference:     %+v", data, req, want)
		}
		re, err := json.Marshal(req)
		if err != nil {
			// Only non-finite floats are unmarshallable, and the decoder
			// cannot produce them from JSON.
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var back dls.Request
		if err := json.Unmarshal(re, &back); err != nil {
			t.Fatalf("re-encoded request does not decode: %s: %v", re, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip drifted:\n  first:  %+v\n  second: %+v", req, back)
		}
	})
}
