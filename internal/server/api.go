// Package server is the dlsd serving subsystem: an HTTP/JSON surface over
// one shared dls.Solver whose core is an admission-window micro-batcher —
// concurrent solve requests queue into a bounded window and are flushed as
// a single SolveBatch call, so chain-shaped traffic collapses into the
// engine's structure-of-arrays prepass and duplicate requests dedupe
// against each other instead of solving one by one.
//
// Endpoints:
//
//	POST /v1/solve        one request (the wire form of dls.Request)
//	POST /v1/solve/batch  {"requests": [...]} solved as one admission group
//	GET  /v1/strategies   the strategy registry
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus text format
//
// Per-request deadlines propagate from the X-Timeout header (a Go
// duration, e.g. "250ms") into the request context and through the
// batcher into the batch solve. When the admission queue is full the
// server sheds load with 429 and a Retry-After header instead of queueing
// unboundedly.
package server

import (
	"fmt"

	"repro/dls"
)

// BatchRequest is the body of POST /v1/solve/batch.
type BatchRequest struct {
	Requests []dls.Request `json:"requests"`
}

// decodeSolve decodes a POST /v1/solve body. The body must be exactly one
// JSON value: anything after it other than whitespace is an error.
func decodeSolve(data []byte) (dls.Request, error) {
	wire, err := dls.DecodeWireRequest(data)
	if err != nil {
		return dls.Request{}, err
	}
	return wire.Request()
}

// decodeBatch decodes a POST /v1/solve/batch body, under the same rules
// as decodeSolve. A slot that fails to convert fails the whole body.
func decodeBatch(data []byte) ([]dls.Request, error) {
	wires, err := dls.DecodeWireBatch(data)
	if err != nil {
		return nil, err
	}
	reqs := make([]dls.Request, len(wires))
	for i := range wires {
		if reqs[i], err = wires[i].Request(); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return reqs, nil
}

// SolveResponse is the wire form of one solved request.
type SolveResponse struct {
	Strategy   string    `json:"strategy"`
	Model      string    `json:"model"`
	Arith      string    `json:"arith"`
	Eval       string    `json:"eval"`
	Throughput float64   `json:"throughput"`
	Makespan   float64   `json:"makespan,omitempty"`
	Cached     bool      `json:"cached,omitempty"`
	Send       []int     `json:"send,omitempty"`
	Return     []int     `json:"return,omitempty"`
	Alpha      []float64 `json:"alpha,omitempty"`
	// Degraded marks a deadline-driven downgrade: the solver answered
	// with the closed-form DegradedTo strategy instead of running the
	// requested exhaustive search (see dls.WithDegradation).
	Degraded   bool   `json:"degraded,omitempty"`
	DegradedTo string `json:"degraded_to,omitempty"`
}

// BatchResponse answers POST /v1/solve/batch: Results[i] answers
// Requests[i], with Errors[i] holding its failure message when the slot is
// null. Errors is omitted when every request succeeded.
type BatchResponse struct {
	Results []*SolveResponse `json:"results"`
	Errors  []string         `json:"errors,omitempty"`
}

// StrategiesResponse answers GET /v1/strategies.
type StrategiesResponse struct {
	Strategies []string `json:"strategies"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// resultResponse converts an engine result to the wire form. Floats are
// written in their shortest round-trip form (encoder.float), so a client
// decoding the response recovers bit-identical values.
func resultResponse(res *dls.Result) SolveResponse {
	out := SolveResponse{
		Strategy:   res.Strategy,
		Model:      dls.ModelName(res.Model),
		Arith:      dls.ArithName(res.Arith),
		Eval:       res.Eval.String(),
		Throughput: res.Throughput,
		Makespan:   res.Makespan,
		Cached:     res.Cached,
		Send:       res.Send,
		Return:     res.Return,
		Degraded:   res.Degraded,
		DegradedTo: res.DegradedTo,
	}
	switch {
	case res.Schedule != nil:
		out.Alpha = res.Schedule.Alpha
	case res.Affine != nil:
		out.Alpha = res.Affine.Alpha
	}
	return out
}
