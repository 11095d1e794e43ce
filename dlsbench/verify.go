package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/server"
)

// Answer verification runs after the timed phase. Every 2xx answer is
// rebuilt into a schedule and checked by the independent checker of
// internal/schedule (affine answers, which have no linear-model timeline,
// by checkAffine); a seeded sample is re-solved in-process through an
// independent path and must agree to relTol.

// relTol is the relative agreement required between an answer's Σα, its
// reported throughput and an independent re-solve.
const relTol = 1e-9

// answer is one verified solve request: a single solve or one batch slot.
type answer struct {
	req  dls.Request
	resp *server.SolveResponse
}

// tally counts a phase's requests: attempted solve requests (a batch slot
// counts one) and failed ones, with the first few failure reasons.
type tally struct {
	attempted, failed int
	answered          int // requests answered 2xx, before verification
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// verify decodes and checks every sample on one goroutine per CPU and
// returns a seeded random sample of up to keep verified answers per
// goroutine, for the independent re-solve.
func verify(calls []call, samples []sample, seed int64, keep int, t *tally) []answer {
	parts := runtime.NumCPU()
	tallies := make([]tally, parts)
	kept := make([][]answer, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			seen := 0
			lo, hi := p*len(samples)/parts, (p+1)*len(samples)/parts
			decode(calls, samples[lo:hi], &tallies[p], func(a answer) {
				// Reservoir sampling: every verified answer is equally likely kept.
				seen++
				if len(kept[p]) < keep {
					kept[p] = append(kept[p], a)
				} else if j := rng.Intn(seen); j < keep {
					kept[p][j] = a
				}
			})
		}(p)
	}
	wg.Wait()
	var out []answer
	for p := range tallies {
		t.attempted += tallies[p].attempted
		t.answered += tallies[p].answered
		t.failed += tallies[p].failed
		for _, r := range tallies[p].reasons {
			if len(t.reasons) < 5 {
				t.reasons = append(t.reasons, r)
			}
		}
		out = append(out, kept[p]...)
	}
	return out
}

// decode checks a phase's samples, failing transport errors, non-2xx
// statuses, failed batch slots and answers whose own check fails, and
// hands every verified answer to keep. It drops each body once decoded.
func decode(calls []call, samples []sample, t *tally, keep func(answer)) {
	for k := range samples {
		s := &samples[k]
		body := s.body
		s.body = nil
		c := calls[s.idx]
		t.attempted += len(c.reqs)
		switch {
		case s.err != nil:
			for range c.reqs {
				t.fail("call %d: %v", s.idx, s.err)
			}
			continue
		case !isOK(s.status):
			for range c.reqs {
				t.fail("call %d: status %d: %.200s", s.idx, s.status, body)
			}
			continue
		}
		var resps []*server.SolveResponse
		var slotErrs []string
		if c.path == "/v1/solve/batch" {
			var br server.BatchResponse
			if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != len(c.reqs) {
				for range c.reqs {
					t.fail("call %d: undecodable batch answer (%v)", s.idx, err)
				}
				continue
			}
			resps, slotErrs = br.Results, br.Errors
		} else {
			var r server.SolveResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.fail("call %d: undecodable answer: %v", s.idx, err)
				continue
			}
			resps = []*server.SolveResponse{&r}
		}
		for i, r := range resps {
			if r == nil {
				msg := "null slot"
				if i < len(slotErrs) {
					msg = slotErrs[i]
				}
				t.fail("call %d slot %d: %s", s.idx, i, msg)
				continue
			}
			t.answered++
			if err := checkAnswer(c.reqs[i], r); err != nil {
				t.fail("call %d slot %d (%s): %v", s.idx, i, kindOf(c.reqs[i]), err)
				continue
			}
			keep(answer{req: c.reqs[i], resp: r})
		}
	}
}

// checkAnswer validates one answer on its own: not degraded, echoing the
// request, a feasible schedule whose Σα is the reported throughput.
func checkAnswer(req dls.Request, r *server.SolveResponse) error {
	if r.Degraded {
		return fmt.Errorf("degraded to %s", r.DegradedTo)
	}
	if r.Strategy != req.Strategy || r.Model != dls.ModelName(req.Model) {
		return fmt.Errorf("answer echoes %s/%s for a %s/%s request", r.Strategy, r.Model, req.Strategy, dls.ModelName(req.Model))
	}
	if !(r.Throughput > 0) || math.IsInf(r.Throughput, 0) {
		return fmt.Errorf("throughput %g", r.Throughput)
	}
	sum := 0.0
	for _, a := range r.Alpha {
		sum += a
	}
	if !agree(sum, r.Throughput) {
		return fmt.Errorf("Σα = %.17g but throughput = %.17g", sum, r.Throughput)
	}
	if req.Affine != nil {
		return checkAffine(req.Platform, *req.Affine, r.Send, r.Return, r.Alpha, req.Model)
	}
	s := &schedule.Schedule{SendOrder: r.Send, ReturnOrder: r.Return, Alpha: r.Alpha, T: 1}
	if err := s.Check(req.Platform, req.Model); err != nil {
		return err
	}
	if req.Load > 0 && !agree(r.Makespan, req.Load/r.Throughput) {
		return fmt.Errorf("makespan %.17g for load %g at throughput %.17g", r.Makespan, req.Load, r.Throughput)
	}
	return nil
}

// checkAffine checks loads under the affine model on the enrolled orders:
// initial messages go out back to back from t=0 in send order, results
// come back back to back ending at t=1 in return order, each worker
// finishes computing before its result leaves, and under the one-port
// model the last send ends before the first return starts. Every enrolled
// worker pays its fixed costs, loaded or not.
func checkAffine(p *dls.Platform, aff dls.Affine, send, ret dls.Order, alpha []float64, model dls.Model) error {
	n := p.P()
	if len(alpha) != n {
		return fmt.Errorf("alpha has %d entries for %d workers", len(alpha), n)
	}
	if len(send) != len(ret) {
		return fmt.Errorf("send order enrolls %d workers, return order %d", len(send), len(ret))
	}
	enrolled := make([]bool, n)
	for _, i := range send {
		if i < 0 || i >= n || enrolled[i] {
			return fmt.Errorf("invalid send order %v", send)
		}
		enrolled[i] = true
	}
	for i, a := range alpha {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) || (a > 0 && !enrolled[i]) {
			return fmt.Errorf("alpha[%d] = %g invalid for send order %v", i, a, send)
		}
	}
	const tol = 1e-9
	computeEnd := make([]float64, n)
	t := 0.0
	for _, i := range send {
		w := p.Workers[i]
		t += aff.In[i] + alpha[i]*w.C
		computeEnd[i] = t + aff.Comp[i] + alpha[i]*w.W
	}
	lastSend := t
	t = 1
	for k := len(ret) - 1; k >= 0; k-- {
		i := ret[k]
		if i < 0 || i >= n || !enrolled[i] {
			return fmt.Errorf("invalid return order %v", ret)
		}
		t -= aff.Out[i] + alpha[i]*p.Workers[i].D
		if computeEnd[i] > t+tol {
			return fmt.Errorf("worker %d computes until %.12g but must return from %.12g", i, computeEnd[i], t)
		}
	}
	if model == dls.OnePort && lastSend > t+tol {
		return fmt.Errorf("sends end at %.12g after returns start at %.12g", lastSend, t)
	}
	return nil
}

// agree reports whether a and b agree to relTol.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// resolve re-solves one request in-process through a path independent of
// the one that answered it: chain requests with the simplex backend;
// order searches by solving the answer's winning scenario with the
// simplex; the affine search with the flat subset loop instead of the
// lattice branch-and-bound. The flat pair search is too slow at p=6 (about
// 2 s a request) to fit a run, so pair answers get the scenario re-solve.
func resolve(ctx context.Context, solver *dls.Solver, req dls.Request, r *server.SolveResponse) (float64, error) {
	switch req.Strategy {
	case dls.StrategyFIFOAffine:
		res, err := core.BestFIFOAffineAlgo(ctx, req.Platform, *req.Affine, core.Float64, core.AffineFlat)
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	case dls.StrategyFIFOExhaustive, dls.StrategyLIFOExhaustive, dls.StrategyPairExhaustive:
		req = dls.Request{Platform: req.Platform, Strategy: dls.StrategyScenario, Model: req.Model, Send: r.Send, Return: r.Return}
	}
	req.Eval = dls.EvalSimplex
	res, err := solver.Solve(ctx, req)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// resolveSample re-solves n answers drawn with a seeded generator and
// fails every answer that disagrees with its re-solve.
func resolveSample(ctx context.Context, answers []answer, n int, seed int64, t *tally) error {
	solver, err := dls.NewSolver()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	if n > len(answers) {
		n = len(answers)
	}
	for _, i := range rng.Perm(len(answers))[:n] {
		a := answers[i]
		rho, err := resolve(ctx, solver, a.req, a.resp)
		if err != nil {
			t.fail("re-solve of %s: %v", kindOf(a.req), err)
			continue
		}
		if !agree(rho, a.resp.Throughput) {
			t.fail("%s: served throughput %.17g, independent re-solve %.17g", kindOf(a.req), a.resp.Throughput, rho)
		}
	}
	return nil
}

// isOK reports whether an HTTP status is 2xx.
func isOK(status int) bool { return status >= http.StatusOK && status < http.StatusMultipleChoices }
