package dls

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// prepassRequests builds a mixed workload of chain-shaped requests (the
// SoA prepass collapses them) and non-chain requests (pool path).
func prepassRequests(rng *rand.Rand, platforms int) []Request {
	var reqs []Request
	for i := 0; i < platforms; i++ {
		p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
		reqs = append(reqs,
			Request{Platform: p, Strategy: StrategyIncC, Load: 500},
			Request{Platform: p, Strategy: StrategyIncW},
			Request{Platform: p, Strategy: StrategyDecC},
			Request{Platform: p, Strategy: StrategyLIFO},
			Request{Platform: p, Strategy: StrategyFIFOOrder, Send: p.ByW()},
			Request{Platform: p, Strategy: StrategyScenario, Send: p.ByC(), Return: p.ByC().Reverse()},
			// Not chain-shaped: exercises the pool path next to the prepass.
			Request{Platform: p, Strategy: StrategyFIFOExhaustive},
		)
	}
	return reqs
}

// TestSolveBatchChainPrepassMatchesSolve: every answer of a batch, the
// ones the SoA chain prepass certifies included, must be bitwise identical
// to a solo Solve of the same request (which runs the strategy): the same
// throughput bits, loads and orders, under both port models. A dlsd answer,
// and what the cache keeps, must not depend on whether the request shared
// an admission window.
func TestSolveBatchChainPrepassMatchesSolve(t *testing.T) {
	single, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{OnePort, TwoPort} {
		for seed := int64(1); seed <= 40; seed++ {
			reqs := prepassRequests(rand.New(rand.NewSource(seed)), 6)
			for i := range reqs {
				reqs[i].Model = model
			}
			solver, err := NewSolver(WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}
			results, err := solver.SolveBatch(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			if solver.Stats().PrepassGroups == 0 {
				t.Fatalf("%v seed %d: the prepass answered nothing", model, seed)
			}
			for i, req := range reqs {
				want, err := single.Solve(context.Background(), req)
				if err != nil {
					t.Fatalf("%v seed %d request %d: %v", model, seed, i, err)
				}
				if diff := answerDiff(results[i], want); diff != "" {
					t.Errorf("%v seed %d request %d (%s): batch %s", model, seed, i, req.Strategy, diff)
				}
			}
		}
	}
}

// TestSolveBatchPrepassAnswersTwoPortLIFO: under TwoPort the lifo strategy
// is the chain (ByC, ByC reversed) like any other fixed-scenario strategy,
// so the prepass answers it.
func TestSolveBatchPrepassAnswersTwoPortLIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(8084))
	var reqs []Request
	for i := 0; i < 4; i++ {
		p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
		reqs = append(reqs, Request{Platform: p, Strategy: StrategyLIFO, Model: TwoPort})
	}
	solver, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.SolveBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if st := solver.Stats(); st.PrepassGroups != uint64(len(reqs)) {
		t.Fatalf("PrepassGroups = %d, want %d", st.PrepassGroups, len(reqs))
	}
}

// answerDiff describes how got differs from want in the bits that make up
// an answer (throughput, makespan, loads, orders), or returns "".
func answerDiff(got, want *Result) string {
	switch {
	case got == nil || got.Schedule == nil || want.Schedule == nil:
		return "answer or schedule missing"
	case math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput):
		return fmt.Sprintf("throughput %.17g != solve %.17g", got.Throughput, want.Throughput)
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		return fmt.Sprintf("makespan %.17g != solve %.17g", got.Makespan, want.Makespan)
	case !slices.Equal(got.Send, want.Send) || !slices.Equal(got.Return, want.Return):
		return fmt.Sprintf("orders %v/%v != solve %v/%v", got.Send, got.Return, want.Send, want.Return)
	case len(got.Schedule.Alpha) != len(want.Schedule.Alpha):
		return "load vectors differ in length"
	}
	for w, a := range want.Schedule.Alpha {
		if math.Float64bits(got.Schedule.Alpha[w]) != math.Float64bits(a) {
			return fmt.Sprintf("load of worker %d %.17g != solve %.17g", w, got.Schedule.Alpha[w], a)
		}
	}
	return ""
}

// TestSolveBatchChainPrepassStats: prepass-answered groups still count as
// solves/misses, duplicates are marked Cached, and a warm cache serves
// repeat batches without re-solving.
func TestSolveBatchChainPrepassStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8081))
	p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
	reqs := []Request{
		{Platform: p, Strategy: StrategyIncC},
		{Platform: p, Strategy: StrategyIncW},
		{Platform: p, Strategy: StrategyIncC}, // duplicate of #0
	}
	solver, err := NewSolver(WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	results, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Cached != true {
		t.Error("duplicate request not marked Cached")
	}
	if results[0].Cached {
		t.Error("leader request marked Cached on a cold cache")
	}
	st := solver.Stats()
	if st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (one per distinct problem)", st.Solves)
	}
	// Second, warm batch: both distinct problems served from the cache.
	results2, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results2 {
		if !r.Cached {
			t.Errorf("warm batch request %d not served from cache", i)
		}
	}
	if st2 := solver.Stats(); st2.Solves != 2 {
		t.Errorf("warm batch re-solved: Solves = %d, want 2", st2.Solves)
	}
}

// TestSolveBatchPrepassDeterminism: output is byte-identical across
// parallelism settings with the prepass active.
func TestSolveBatchPrepassDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8082))
	reqs := prepassRequests(rng, 3)
	var ref []*Result
	for _, par := range []int{1, 4, 8} {
		solver, err := NewSolver(WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		results, err := solver.SolveBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = results
			continue
		}
		for i := range results {
			if results[i].Throughput != ref[i].Throughput {
				t.Fatalf("parallelism %d: request %d throughput %.17g != %.17g", par, i, results[i].Throughput, ref[i].Throughput)
			}
			for w := range results[i].Schedule.Alpha {
				if results[i].Schedule.Alpha[w] != ref[i].Schedule.Alpha[w] {
					t.Fatalf("parallelism %d: request %d load %d differs", par, i, w)
				}
			}
		}
	}
}

// TestSolveBatchPrepassHonoursCancellation: a done context must fail every
// request with ctx.Err(), including the chain-shaped ones the prepass
// would otherwise answer before the pool runs.
func TestSolveBatchPrepassHonoursCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(8083))
	p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
	reqs := []Request{
		{Platform: p, Strategy: StrategyIncC},
		{Platform: p, Strategy: StrategyIncW},
	}
	solver, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := solver.SolveBatch(ctx, reqs)
	if err == nil {
		t.Fatal("cancelled SolveBatch returned no error")
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("request %d produced a result under a cancelled context", i)
		}
	}
}

// FuzzPrepassMatchesSolve: a batch of 2–8 requests enrolling the same
// number of workers (1–12), each drawn from the order-rule strategies
// under either model, on platforms whose costs span ratios up to 1e±6,
// with random Send/Return orders where the strategy reads them, must get
// from SolveBatch exactly what per-request Solve gives: the same failure,
// or the same bits. A spread with its high bit set draws the large-z
// family instead: every return cost is z·c with z = 1e5 or 1e6, where
// loads and multipliers sum to ρ ≈ 1/z and certificates are judged in
// that scale.
func FuzzPrepassMatchesSolve(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint8(0))
	f.Add(int64(2), uint8(6), uint8(11), uint8(6))
	f.Add(int64(3), uint8(3), uint8(0), uint8(3))
	names := slices.Sorted(maps.Keys(orderRules))
	single, err := NewSolver()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, lanes, workers, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + int(workers%12)
		half := float64(spread%7) / 2 // costs in [10^-half, 10^half]
		cost := func() float64 { return math.Pow(10, half*(2*rng.Float64()-1)) }
		z := 0.0
		if spread >= 128 {
			z = []float64{1e5, 1e6}[spread%2]
		}
		reqs := make([]Request, 2+int(lanes%7))
		for i := range reqs {
			ws := make([]Worker, p)
			for k := range ws {
				ws[k] = Worker{C: cost(), W: cost(), D: cost()}
				if z > 0 {
					ws[k].D = z * ws[k].C
				}
			}
			req := Request{
				Platform: NewPlatform(ws...),
				Strategy: names[rng.Intn(len(names))],
				Model:    []Model{OnePort, TwoPort}[rng.Intn(2)],
			}
			send := Order(rng.Perm(p))
			switch req.Strategy {
			case StrategyFIFOOrder, StrategyLIFOOrder:
				req.Send = send
			case StrategyScenario:
				req.Send = send
				req.Return = []Order{send, send.Reverse(), Order(rng.Perm(p))}[rng.Intn(3)]
			}
			reqs[i] = req
		}
		solver, err := NewSolver(WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		results, _ := solver.SolveBatch(context.Background(), reqs)
		for i, req := range reqs {
			want, err := single.Solve(context.Background(), req)
			switch {
			case err != nil && results[i] != nil:
				t.Errorf("request %d (%s, %v): Solve failed (%v), the batch answered", i, req.Strategy, req.Model, err)
			case err == nil && results[i] == nil:
				t.Errorf("request %d (%s, %v): the batch failed, Solve answered", i, req.Strategy, req.Model)
			case err == nil:
				if diff := answerDiff(results[i], want); diff != "" {
					t.Errorf("request %d (%s, %v): batch %s", i, req.Strategy, req.Model, diff)
				}
			}
		}
	})
}
