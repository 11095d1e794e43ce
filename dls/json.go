package dls

import (
	"encoding/json"
	"fmt"
)

// This file makes Request round-trippable through JSON, the wire format of
// the dlsd serving layer: enums travel as their canonical names ("one-port",
// "exact", "simplex", ...), zero-valued knobs are omitted so a request
// written by hand stays as small as the Go literal, and unmarshalling
// rejects unknown names instead of smuggling them through as integers.

// ModelName returns the wire name of a communication model ("one-port",
// "two-port").
func ModelName(m Model) string { return m.String() }

// ParseModel parses a communication-model name.
func ParseModel(s string) (Model, error) {
	switch s {
	case "", ModelName(OnePort):
		return OnePort, nil
	case ModelName(TwoPort):
		return TwoPort, nil
	}
	return 0, fmt.Errorf("dls: unknown model %q (%s | %s)", s, ModelName(OnePort), ModelName(TwoPort))
}

// ArithName returns the wire name of an arithmetic mode ("float64",
// "exact").
func ArithName(a Arith) string { return a.String() }

// ParseArith parses an arithmetic-mode name.
func ParseArith(s string) (Arith, error) {
	switch s {
	case "", ArithName(Float64):
		return Float64, nil
	case ArithName(Exact):
		return Exact, nil
	}
	return 0, fmt.Errorf("dls: unknown arithmetic %q (%s | %s)", s, ArithName(Float64), ArithName(Exact))
}

// WireRequest is the one JSON shape of a Request, for both directions:
// Request.MarshalJSON encodes through it, Request.UnmarshalJSON decodes
// into it, and a server decodes request bodies straight into it. Enum
// fields are strings; empty strings mean the zero value, so marshalling
// omits defaults and both spellings unmarshal identically. DecodeWireRequest
// is the decoder of the shape; the type has no JSON methods, so
// encoding/json into it is the reference that decoder is tested against.
type WireRequest struct {
	Platform *WirePlatform `json:"platform,omitempty"`
	Strategy string        `json:"strategy"`
	Model    string        `json:"model,omitempty"`
	Arith    string        `json:"arith,omitempty"`
	Eval     string        `json:"eval,omitempty"`
	Send     []int         `json:"send,omitempty"`
	Return   []int         `json:"return,omitempty"`
	Affine   *WireAffine   `json:"affine,omitempty"`
	Load     float64       `json:"load,omitempty"`
}

// WirePlatform is a Platform without its JSON methods: the worker list
// decodes inline, and WireRequest.Request normalizes it afterwards.
type WirePlatform Platform

// WireAffine is the JSON shape of an Affine extension.
type WireAffine struct {
	In   []float64 `json:"in"`
	Out  []float64 `json:"out"`
	Comp []float64 `json:"comp"`
}

// Request converts the wire shape to a Request. It parses the enum
// names, rejecting unknown ones, and normalizes the platform: unnamed
// workers get their default names and the costs are validated. The
// request takes over the wire's slices without copying. Full request
// validation (strategy lookup, order shapes) stays with Solver.prepare.
func (w *WireRequest) Request() (Request, error) {
	model, err := ParseModel(w.Model)
	if err != nil {
		return Request{}, err
	}
	arith, err := ParseArith(w.Arith)
	if err != nil {
		return Request{}, err
	}
	evalMode := EvalAuto
	if w.Eval != "" {
		if evalMode, err = ParseEvalMode(w.Eval); err != nil {
			return Request{}, err
		}
	}
	plat := (*Platform)(w.Platform)
	if plat != nil {
		if err := plat.Normalize(); err != nil {
			return Request{}, err
		}
	}
	req := Request{
		Platform: plat,
		Strategy: w.Strategy,
		Model:    model,
		Arith:    arith,
		Eval:     evalMode,
		Send:     w.Send,
		Return:   w.Return,
		Affine:   (*Affine)(w.Affine),
		Load:     w.Load,
	}
	// An empty order is no order. Marshalling omits both, so both decode
	// to nil and every request has one canonical wire form.
	if len(req.Send) == 0 {
		req.Send = nil
	}
	if len(req.Return) == 0 {
		req.Return = nil
	}
	return req, nil
}

// MarshalJSON encodes the request in the wire format. Zero-valued knobs
// (one-port model, float64 arithmetic, auto eval, no load) are omitted.
func (req Request) MarshalJSON() ([]byte, error) {
	w := WireRequest{
		Platform: (*WirePlatform)(req.Platform),
		Strategy: req.Strategy,
		Send:     req.Send,
		Return:   req.Return,
		Affine:   (*WireAffine)(req.Affine),
		Load:     req.Load,
	}
	if req.Model != OnePort {
		w.Model = ModelName(req.Model)
	}
	if req.Arith != Float64 {
		w.Arith = ArithName(req.Arith)
	}
	if req.Eval != EvalAuto {
		w.Eval = req.Eval.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire format: one pass into WireRequest
// (DecodeWireRequest), then WireRequest.Request.
func (req *Request) UnmarshalJSON(data []byte) error {
	w, err := DecodeWireRequest(data)
	if err != nil {
		return err
	}
	r, err := w.Request()
	if err != nil {
		return err
	}
	*req = r
	return nil
}
