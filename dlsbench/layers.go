package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/eval/kern"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/server"
)

// The in-process half of the per-layer breakdown: timed calls into each
// layer's public functions, from the outside, on the inputs of the
// workload each layer's row names in README.md (generated from the run's
// seed). The kernel runs at the current workload's largest chain size.
// Every group of calls sits in a span of the run's span log.

// layerValues are the in-process per-layer measurements, by metric name.
type layerValues map[string]float64

// kernQ is the scenario size each workload's kernel chunk is timed at: the
// largest chain size the workload sends (search: the p=8 FIFO searches,
// whose pair-search seeding also runs the kernels).
var kernQ = map[string]int{"chain-solo": 11, "chain-batch": 12, "search": 8}

// layerSample sizes: enough calls to average over platforms, few enough
// that the in-process half stays within a few seconds.
const (
	coreReplays   = 12 // per search kind
	sweepPlats    = 2  // per FIFO/LIFO sweep, 40 320 permutations each
	batchBodies   = 48 // chain-batch bodies for the eval batch and engine rows
	submitRepeats = 100
)

// measureLayers runs every in-process layer measurement of a traced run of
// workload, each group of calls in a span under parent.
func measureLayers(ctx context.Context, workload string, seed int64, spans *spanLog, parent int) (layerValues, error) {
	solo, err := chainSolo(seed, 1)
	if err != nil {
		return nil, err
	}
	batch, err := chainBatch(seed)
	if err != nil {
		return nil, err
	}
	srch, err := search(seed, 2)
	if err != nil {
		return nil, err
	}
	hot := solo.warm[:chainSoloHot]
	bodies := batch.timed[:batchBodies]
	v := layerValues{}
	root := spans.start("layers", parent)
	defer spans.end(root)

	id := spans.start("kern", root)
	v.kern(seed, kernQ[workload])
	spans.end(id)

	id = spans.start("eval", root)
	v.evalBatch(bodies, spans, id)
	v.evalScenarios(srch.timed, seed, spans, id)
	if err := v.evalSweep(srch.timed, spans, id); err != nil {
		return nil, err
	}
	spans.end(id)

	id = spans.start("core", root)
	if err := v.coreReplays(ctx, srch.timed, spans, id); err != nil {
		return nil, err
	}
	spans.end(id)

	id = spans.start("engine", root)
	if err := v.engine(ctx, hot, bodies, spans, id); err != nil {
		return nil, err
	}
	spans.end(id)

	id = spans.start("batcher", root)
	if err := v.batcher(ctx, hot[0].reqs[0], spans, id); err != nil {
		return nil, err
	}
	spans.end(id)

	id = spans.start("server", root)
	if err := v.server(hot, bodies[:16], spans, id); err != nil {
		return nil, err
	}
	spans.end(id)
	return v, nil
}

// kern times one FIFOChain + FIFODual + FIFOLambdaOK pass over an 8-lane
// chunk of q-position scenarios (columns from seeded chain platforms in
// INC_C order), and records the pass's flops and bytes as computed from
// the loop bodies, not measured.
func (v layerValues) kern(seed int64, q int) {
	const W = kern.Width
	rng := rand.New(rand.NewSource(seed))
	col := func() []float64 { return make([]float64, q*W) }
	c, d, wd, invCW, dc, invWD, p, u, uv := col(), col(), col(), col(), col(), col(), col(), col(), col()
	lane := func() []float64 { return make([]float64, W) }
	sp, sc, sd, pu, pv, t := lane(), lane(), lane(), lane(), lane(), lane()
	for l := 0; l < W; l++ {
		plat := chainPlatform(rng, q, chainMatrix)
		for pos, i := range plat.ByC() {
			wk := plat.Workers[i]
			at := pos*W + l
			c[at], d[at], wd[at], invCW[at] = wk.C, wk.D, wk.W+wk.D, 1/(wk.C+wk.W)
			dc[at], invWD[at] = wk.D-wk.C, 1/(wk.W+wk.D)
		}
		t[l] = 0.5
	}
	pass := func() {
		kern.FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
		kern.FIFODual(q, c, dc, invWD, u, uv, pu, pv)
		kern.FIFOLambdaOK(q, u, uv, t, 1e-10)
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 40*time.Millisecond {
			for i := 0; i < 1000; i++ {
				pass()
			}
			n += 1000
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	slices.Sort(per)
	v["kern.chunk_ns"] = per[len(per)/2]
	// Per lane: the load chain does 7 flops on each of q-1 rows, the dual
	// chain 8 on each of q rows, the λ scan 2 on each of q rows. Bytes: 12
	// q-row columns of W float64 (five in the load chain, five in the dual
	// chain, two in the scan) plus six lane vectors.
	v["kern.chunk_flops"] = float64(W * (7*(q-1) + 8*q + 2*q))
	v["kern.chunk_bytes"] = float64(12*q*W*8 + 6*W*8)
}

// chainScenarioOf mirrors the engine's chain-prepass mapping for the
// workloads' chain strategies: the send order and whether the scenario is
// LIFO.
func chainScenarioOf(req dls.Request) (dls.Order, bool) {
	switch req.Strategy {
	case dls.StrategyIncC:
		return req.Platform.ByC(), false
	case dls.StrategyIncW:
		return req.Platform.ByW(), false
	case dls.StrategyDecC:
		return req.Platform.ByCDesc(), false
	case dls.StrategyLIFO:
		return req.Platform.ByC(), true
	}
	return req.Send, false
}

// evalBatch runs each chain-batch body's distinct problems through
// eval.Batch grouped as the engine's prepass groups them — by scenario
// size and shape — and times NewBatch/Add/Run/Schedule per lane.
func (v layerValues) evalBatch(bodies []call, spans *spanLog, parent int) {
	type key struct {
		q    int
		lifo bool
	}
	type lane struct {
		p    *platform.Platform
		send platform.Order
	}
	type group struct {
		key
		lanes []lane
	}
	var groups []*group
	lanes := 0
	for _, b := range bodies {
		byKey := map[key]*group{}
		seen := map[*platform.Platform]bool{}
		for _, req := range b.reqs {
			if seen[req.Platform] {
				continue // a repeated slot: the engine dedups it before the prepass
			}
			seen[req.Platform] = true
			send, lifo := chainScenarioOf(req)
			k := key{len(send), lifo}
			g := byKey[k]
			if g == nil {
				g = &group{key: k}
				byKey[k] = g
				groups = append(groups, g)
			}
			g.lanes = append(g.lanes, lane{req.Platform, send})
			lanes++
		}
	}
	certified := 0
	var per []float64
	for rep := 0; rep < 3; rep++ {
		certified = 0
		d := spans.timed("eval.batch", parent, func() {
			for _, g := range groups {
				b, err := eval.NewBatch(schedule.OnePort, g.lifo, g.q)
				if err != nil {
					continue
				}
				for _, ln := range g.lanes {
					_ = b.Add(ln.p, ln.send) // generated orders are valid permutations
				}
				b.Run()
				for i := range g.lanes {
					if _, err := b.Schedule(i); err == nil {
						certified++
					}
				}
			}
		})
		per = append(per, float64(d.Nanoseconds())/float64(lanes))
	}
	slices.Sort(per)
	v["eval.batch_lane_ns"] = per[1]
	v["eval.batch_certified_ratio"] = float64(certified) / float64(lanes)
}

// evalScenarios evaluates FIFO, LIFO and general-pair scenarios with
// random orders on the search platforms, through Session.Evaluate (auto
// mode) and through the simplex alone (Problem.Solve on eval.ScenarioLP).
func (v layerValues) evalScenarios(calls []call, seed int64, spans *spanLog, parent int) {
	rng := rand.New(rand.NewSource(seed))
	var scs []eval.Scenario
	for _, c := range calls {
		req := c.reqs[0]
		n := req.Platform.P()
		send := platform.Order(rng.Perm(n))
		scs = append(scs,
			eval.Scenario{Platform: req.Platform, Send: send, Return: send, Model: req.Model},
			eval.Scenario{Platform: req.Platform, Send: send, Return: send.Reverse(), Model: req.Model},
			eval.Scenario{Platform: req.Platform, Send: send, Return: platform.Order(rng.Perm(n)), Model: req.Model})
	}
	sess := eval.NewSession()
	fallbacks := 0
	d := spans.timed("eval.scenario", parent, func() {
		for _, sc := range scs {
			_, _ = sess.Evaluate(sc, eval.Auto) // generated scenarios are valid
			if _, fb := sess.Backend(); fb {
				fallbacks++
			}
		}
	})
	v["eval.scenario_us"] = float64(d.Microseconds()) / float64(len(scs))
	v["eval.simplex_fallback_ratio"] = float64(fallbacks) / float64(len(scs))
	var lpTime time.Duration
	spans.timed("lp.simplex", parent, func() {
		for _, sc := range scs {
			prob, err := eval.ScenarioLP(sc)
			if err != nil {
				continue
			}
			t0 := time.Now()
			_, _ = prob.Solve() // a scenario LP is feasible and bounded
			lpTime += time.Since(t0)
		}
	})
	v["lp.simplex_us"] = float64(lpTime.Nanoseconds()) / 1e3 / float64(len(scs))
}

// evalSweep walks every send order of the first FIFO and LIFO search
// platforms by adjacent transpositions through one eval.Sweep each, as the
// order searches do, and times NewSweep/Delta/Throughput per permutation.
func (v layerValues) evalSweep(calls []call, spans *spanLog, parent int) error {
	perms, fallbacks := 0, uint64(0)
	var total time.Duration
	used := map[string]int{}
	for _, c := range calls {
		req := c.reqs[0]
		lifo := req.Strategy == dls.StrategyLIFOExhaustive
		if (req.Strategy != dls.StrategyFIFOExhaustive && !lifo) || used[req.Strategy] == sweepPlats {
			continue
		}
		used[req.Strategy]++
		var err error
		total += spans.timed("eval.sweep", parent, func() {
			var sw *eval.Sweep
			if sw, err = eval.NewSweep(req.Platform, platform.Identity(req.Platform.P()), req.Model, lifo); err != nil {
				return
			}
			sw.Throughput()
			perms++
			sjt(req.Platform.P(), func(i int) {
				sw.Delta(i)
				sw.Throughput()
				perms++
			})
			fallbacks += sw.Stats().Fallbacks
		})
		if err != nil {
			return fmt.Errorf("eval sweep: %w", err)
		}
	}
	v["eval.sweep_perm_ns"] = float64(total.Nanoseconds()) / float64(perms)
	v["eval.sweep_fallback_ratio"] = float64(fallbacks) / float64(perms)
	return nil
}

// sjt calls swap(i) for each adjacent transposition (i, i+1) of the
// Steinhaus–Johnson–Trotter order, which visits all n! permutations.
func sjt(n int, swap func(i int)) {
	perm, pos, dir := make([]int, n), make([]int, n), make([]int, n)
	for i := range perm {
		perm[i], pos[i], dir[i] = i, i, -1
	}
	for {
		m := -1
		for x := n - 1; x >= 0; x-- {
			if to := pos[x] + dir[x]; to >= 0 && to < n && perm[to] < x {
				m = x
				break
			}
		}
		if m < 0 {
			return
		}
		from, to := pos[m], pos[m]+dir[m]
		other := perm[to]
		perm[from], perm[to] = other, m
		pos[other], pos[m] = from, to
		swap(min(from, to))
		for x := m + 1; x < n; x++ {
			dir[x] = -dir[x]
		}
	}
}

// coreSearch runs the internal/core search a search request names.
func coreSearch(ctx context.Context, req dls.Request) error {
	var err error
	switch req.Strategy {
	case dls.StrategyFIFOExhaustive:
		_, _, err = core.BestFIFOExhaustiveContext(ctx, req.Platform, req.Model, core.Float64)
	case dls.StrategyLIFOExhaustive:
		_, _, err = core.BestLIFOExhaustiveContext(ctx, req.Platform, req.Model, core.Float64)
	case dls.StrategyPairExhaustive:
		_, err = core.BestPairExhaustiveContext(ctx, req.Platform, req.Model, core.Float64)
	case dls.StrategyFIFOAffine:
		_, err = core.BestFIFOAffineContext(ctx, req.Platform, *req.Affine, core.Float64)
	default:
		err = fmt.Errorf("no core search for strategy %q", req.Strategy)
	}
	return err
}

// coreReplays replays the first coreReplays requests of each search kind
// in sequence order, serially (search parallelism 1, so the process-global
// pair and affine counters count these searches alone), then again with
// one search worker per CPU.
func (v layerValues) coreReplays(ctx context.Context, calls []call, spans *spanLog, parent int) error {
	var reqs []dls.Request
	count := map[string]int{}
	for _, c := range calls {
		k := kindOf(c.reqs[0])
		if count[k] < coreReplays {
			count[k]++
			reqs = append(reqs, c.reqs[0])
		}
	}
	serial := core.ContextWithSearchParallelism(ctx, 1)
	pair0, aff0 := core.PairStatsSnapshot(), core.AffineStatsSnapshot()
	byStrategy := map[string]time.Duration{}
	n := map[string]int{}
	var serialTotal time.Duration
	for _, req := range reqs {
		var err error
		d := spans.timed("core."+req.Strategy, parent, func() { err = coreSearch(serial, req) })
		if err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
		byStrategy[req.Strategy] += d
		n[req.Strategy]++
		serialTotal += d
	}
	pair1, aff1 := core.PairStatsSnapshot(), core.AffineStatsSnapshot()
	parallel := core.ContextWithSearchParallelism(ctx, 0)
	var parTotal time.Duration
	for _, req := range reqs {
		var err error
		parTotal += spans.timed("core."+req.Strategy+".parallel", parent, func() { err = coreSearch(parallel, req) })
		if err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
	}
	ms := func(s string) float64 {
		return float64(byStrategy[s].Nanoseconds()) / 1e6 / float64(n[s])
	}
	v["core.fifo_search_ms"] = ms(dls.StrategyFIFOExhaustive)
	v["core.lifo_search_ms"] = ms(dls.StrategyLIFOExhaustive)
	v["core.pair_search_ms"] = ms(dls.StrategyPairExhaustive)
	v["core.affine_search_ms"] = ms(dls.StrategyFIFOAffine)
	v["core.search_mix_ms"] = float64(serialTotal.Nanoseconds()) / 1e6 / float64(len(reqs))
	pruned := float64(pair1.SubtreesPruned - pair0.SubtreesPruned)
	leaves := float64(pair1.LeavesEvaluated - pair0.LeavesEvaluated)
	v["core.pair_pruned_frac"] = pruned / (pruned + leaves)
	v["core.pair_leaves"] = leaves / float64(n[dls.StrategyPairExhaustive])
	apruned := float64(aff1.SubtreesPruned - aff0.SubtreesPruned)
	aleaves := float64(aff1.LeavesEvaluated - aff0.LeavesEvaluated)
	v["core.affine_pruned_frac"] = apruned / (apruned + aleaves)
	v["core.search_parallel_speedup"] = float64(serialTotal) / float64(parTotal)
	return nil
}

// engine times Solver.Solve on chain-solo's hot set, cold then cached, and
// SolveBatch on chain-batch bodies, with the allocation counters of the
// runtime around the batch calls.
func (v layerValues) engine(ctx context.Context, hot, bodies []call, spans *spanLog, parent int) error {
	solver, err := dls.NewSolver(dls.WithCache(4096))
	if err != nil {
		return err
	}
	var miss, hit time.Duration
	var solveErr error
	spans.timed("engine.solve", parent, func() {
		for _, c := range hot {
			t0 := time.Now()
			if _, err := solver.Solve(ctx, c.reqs[0]); err != nil {
				solveErr = err
				return
			}
			t1 := time.Now()
			if _, err := solver.Solve(ctx, c.reqs[0]); err != nil {
				solveErr = err
				return
			}
			miss += t1.Sub(t0)
			hit += time.Since(t1)
		}
	})
	if solveErr != nil {
		return fmt.Errorf("engine solve: %w", solveErr)
	}
	v["engine.solve_miss_us"] = float64(miss.Nanoseconds()) / 1e3 / float64(len(hot))
	v["engine.solve_hit_us"] = float64(hit.Nanoseconds()) / 1e3 / float64(len(hot))

	if solver, err = dls.NewSolver(dls.WithCache(4096)); err != nil {
		return err
	}
	reqs := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := spans.timed("engine.solve_batch", parent, func() {
		for _, b := range bodies {
			if _, err := solver.SolveBatch(ctx, b.reqs); err != nil {
				solveErr = err
				return
			}
			reqs += len(b.reqs)
		}
	})
	runtime.ReadMemStats(&m1)
	if solveErr != nil {
		return fmt.Errorf("engine batch: %w", solveErr)
	}
	v["engine.batch_req_us"] = float64(d.Nanoseconds()) / 1e3 / float64(reqs)
	v["engine.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(reqs)
	v["engine.bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reqs)
	return nil
}

// batcher times Batcher.Submit of one cached request, one caller at a
// time, under dlsd's default admission settings, against Solver.Solve of
// the same request: the difference is what admission adds to a lone
// request, window wait included.
func (v layerValues) batcher(ctx context.Context, req dls.Request, spans *spanLog, parent int) error {
	solver, err := dls.NewSolver(dls.WithCache(4096))
	if err != nil {
		return err
	}
	if _, err := solver.Solve(ctx, req); err != nil {
		return err
	}
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 2 * time.Millisecond, MaxSize: 64, QueueCap: 1024, Workers: 2})
	defer b.Close()
	var submitErr error
	sub := spans.timed("batcher.submit", parent, func() {
		for i := 0; i < submitRepeats; i++ {
			if _, err := b.Submit(ctx, req); err != nil {
				submitErr = err
				return
			}
		}
	})
	if submitErr != nil {
		return fmt.Errorf("batcher submit: %w", submitErr)
	}
	solve := spans.timed("engine.solve_hit", parent, func() {
		for i := 0; i < submitRepeats; i++ {
			_, _ = solver.Solve(ctx, req) // cached above
		}
	})
	v["batcher.submit_overhead_us"] = float64((sub - solve).Nanoseconds()) / 1e3 / submitRepeats
	return nil
}

// server times the HTTP handler in-process, with micro-batching off, on
// cached chain-solo bodies and chain-batch bodies, and the JSON decode of
// a request and encode of an answer on their own.
func (v layerValues) server(hot, bodies []call, spans *spanLog, parent int) error {
	solver, err := dls.NewSolver(dls.WithCache(4096))
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Solver: solver, NoBatchWindow: true})
	if err != nil {
		return err
	}
	defer srv.Close()
	serve := func(c call) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d: %s", c.path, rec.Code, rec.Body)
		}
		return rec, nil
	}
	all := append(append([]call(nil), hot...), bodies...)
	for _, c := range all { // warm the cache: the timed passes serve cached answers
		if _, err := serve(c); err != nil {
			return err
		}
	}
	answers := make([]*httptest.ResponseRecorder, 0, len(hot))
	var serveErr error
	d := spans.timed("server.handler", parent, func() {
		for _, c := range hot {
			rec, err := serve(c)
			if err != nil {
				serveErr = err
				return
			}
			answers = append(answers, rec)
		}
	})
	if serveErr != nil {
		return serveErr
	}
	v["server.handler_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(hot))
	resps := make([]server.SolveResponse, len(answers))
	for i, rec := range answers {
		if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); err != nil {
			return fmt.Errorf("in-process answer: %w", err)
		}
	}

	slots := 0
	d = spans.timed("server.batch_handler", parent, func() {
		for _, c := range bodies {
			if _, err := serve(c); err != nil {
				serveErr = err
				return
			}
			slots += len(c.reqs)
		}
	})
	if serveErr != nil {
		return serveErr
	}
	v["server.batch_handler_us_per_slot"] = float64(d.Nanoseconds()) / 1e3 / float64(slots)

	d = spans.timed("server.decode", parent, func() {
		for _, c := range hot {
			var req dls.Request
			_ = json.Unmarshal(c.body, &req) // bodies were marshalled from valid requests
		}
	})
	v["server.decode_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(hot))
	d = spans.timed("server.encode", parent, func() {
		for i := range resps {
			_, _ = json.Marshal(&resps[i]) // plain structs always marshal
		}
	})
	v["server.encode_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(resps))
	return nil
}
