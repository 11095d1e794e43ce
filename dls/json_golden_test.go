package dls_test

import (
	"encoding/json"
	"testing"

	"repro/dls"
)

// TestJSONGoldenBytes pins the marshalled bytes of requests and platforms:
// the wire format is a contract with every client, so encoding through
// the one wire shape must keep them byte for byte. The names exercise
// HTML escaping, the floats the shortest round-trip formatting.
func TestJSONGoldenBytes(t *testing.T) {
	named := &dls.Platform{Workers: []dls.Worker{
		{Name: "<b>&\"é\u2028", C: 0.1, W: 1e21, D: 5e-324},
		{Name: "P2", C: 123456789.125, W: 1e-7, D: 2.5},
	}}
	bare := &dls.Platform{Workers: []dls.Worker{{C: 1, W: 2, D: 3}}}
	full := dls.Request{
		Platform: named, Strategy: "scenario-affine", Model: dls.TwoPort, Arith: dls.Exact, Eval: dls.EvalSimplex,
		Send: dls.Order{1, 0}, Return: dls.Order{0, 1},
		Affine: &dls.Affine{In: []float64{0, 1e-9}, Out: []float64{3, 4}, Comp: []float64{1e300, 0.5}},
		Load:   1e-7,
	}
	const (
		namedWire = `{"workers":[{"name":"\u003cb\u003e\u0026\"é\u2028","c":0.1,"w":1e+21,"d":5e-324},{"name":"P2","c":123456789.125,"w":1e-7,"d":2.5}]}`
		fullWire  = `{"platform":` + namedWire + `,"strategy":"scenario-affine","model":"two-port","arith":"exact","eval":"simplex","send":[1,0],"return":[0,1],"affine":{"in":[0,1e-9],"out":[3,4],"comp":[1e+300,0.5]},"load":1e-7}`
	)
	for i, tc := range []struct {
		value any
		want  string
	}{
		{full, fullWire},
		{&full, fullWire},
		{dls.Request{Strategy: "fifo"}, `{"strategy":"fifo"}`},
		{dls.Request{Platform: bare, Strategy: "inc-c", Eval: dls.EvalSimplex, Send: dls.Order{}, Affine: &dls.Affine{}, Load: 1000},
			`{"platform":{"workers":[{"c":1,"w":2,"d":3}]},"strategy":"inc-c","eval":"simplex","affine":{"in":null,"out":null,"comp":null},"load":1000}`},
		{[]dls.Request{{Strategy: "lifo", Model: dls.OnePort, Eval: dls.EvalExact}, {Platform: bare}},
			`[{"strategy":"lifo","eval":"exact"},{"platform":{"workers":[{"c":1,"w":2,"d":3}]},"strategy":""}]`},
		{named, namedWire},
		{*named, namedWire},
		{bare, `{"workers":[{"c":1,"w":2,"d":3}]}`},
		{&dls.Platform{}, `{"workers":null}`},
		{map[string]*dls.Platform{"p": bare, "nil": nil}, `{"nil":null,"p":{"workers":[{"c":1,"w":2,"d":3}]}}`},
	} {
		got, err := json.Marshal(tc.value)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if string(got) != tc.want {
			t.Errorf("case %d:\n  got:  %s\n  want: %s", i, got, tc.want)
		}
	}
}
