package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// scheduleBits flattens a schedule into its float64 bit patterns so two
// schedules can be compared for BYTE identity, not mere numerical
// closeness — the contract of the parallel searches is that worker count
// and steal interleaving change wall-clock time and nothing else.
func scheduleBits(s *schedule.Schedule) []uint64 {
	out := []uint64{math.Float64bits(s.T)}
	for _, a := range s.Alpha {
		out = append(out, math.Float64bits(a))
	}
	return out
}

func bitsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ordersEqual(a, b platform.Order) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelSearchMatchesSerialByteIdentical is the agreement suite the
// issue pins: across 240 random platforms, the pair branch-and-bound and
// the FIFO/LIFO sweeps must return byte-identical results — the same
// orders, the same load vector bit patterns, the same horizon bits — at
// 2, 4 and 8 workers as the serial search does, on every platform. Even
// trials repeat the pair search and the FIFO sweep under the two-port
// model, whose scenarios take the evaluator's two-port paths.
func TestParallelSearchMatchesSerialByteIdentical(t *testing.T) {
	setSearchBudget(t, 8)
	rng := rand.New(rand.NewSource(7171))
	const trials = 240
	workerCounts := []int{2, 4, 8}
	for trial := 0; trial < trials; trial++ {
		models := []schedule.Model{schedule.OnePort}
		if trial%2 == 0 {
			models = append(models, schedule.TwoPort)
		}
		// Pair search: sizes 3-5 keep 240 trials fast while still giving
		// every worker count ranks to steal (5! = 120 send orders).
		n := 3 + trial%3
		p := randomPairPlatform(rng, n)
		for _, model := range models {
			serial, err := BestPairExhaustiveEval(context.Background(), p, model, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			sBits := scheduleBits(serial.Schedule)
			for _, w := range workerCounts {
				ctx := ContextWithSearchParallelism(context.Background(), w)
				got, err := BestPairExhaustiveEval(ctx, p, model, eval.Auto)
				if err != nil {
					t.Fatal(err)
				}
				if !ordersEqual(got.Send, serial.Send) || !ordersEqual(got.Return, serial.Return) {
					t.Fatalf("trial %d workers %d %v: pair search returned (σ1=%v σ2=%v), serial has (σ1=%v σ2=%v)\n%s",
						trial, w, model, got.Send, got.Return, serial.Send, serial.Return, p)
				}
				if !bitsEqual(scheduleBits(got.Schedule), sBits) {
					t.Fatalf("trial %d workers %d %v: pair schedule diverges bitwise from serial\nparallel: T=%x α=%v\nserial:   T=%x α=%v\n%s",
						trial, w, model, math.Float64bits(got.Schedule.T), got.Schedule.Alpha,
						math.Float64bits(serial.Schedule.T), serial.Schedule.Alpha, p)
				}
			}
		}

		// Order sweeps: sizes 3-6, FIFO on even trials, LIFO on odd.
		n = 3 + trial%4
		p = randomPairPlatform(rng, n)
		lifo := trial%2 == 1
		search := BestFIFOExhaustiveEval
		if lifo {
			search = BestLIFOExhaustiveEval
		}
		for _, model := range models {
			serialSched, serialOrder, err := search(context.Background(), p, model, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			sBits := scheduleBits(serialSched)
			for _, w := range workerCounts {
				ctx := ContextWithSearchParallelism(context.Background(), w)
				gotSched, gotOrder, err := search(ctx, p, model, eval.Auto)
				if err != nil {
					t.Fatal(err)
				}
				if !ordersEqual(gotOrder, serialOrder) {
					t.Fatalf("trial %d workers %d lifo=%v %v: sweep returned σ=%v, serial has σ=%v\n%s",
						trial, w, lifo, model, gotOrder, serialOrder, p)
				}
				if !bitsEqual(scheduleBits(gotSched), sBits) {
					t.Fatalf("trial %d workers %d lifo=%v %v: sweep schedule diverges bitwise from serial\nparallel: T=%x α=%v\nserial:   T=%x α=%v\n%s",
						trial, w, lifo, model, math.Float64bits(gotSched.T), gotSched.Alpha,
						math.Float64bits(serialSched.T), serialSched.Alpha, p)
				}
			}
		}
	}
}

// TestTiedTwoPortSweepMatchesSerial: two-port FIFO sweeps on 200
// tiedStar platforms per z, whose equal forward costs make exact ties
// between orders frequent, return the same winner and schedule, bit for
// bit, at 1, 2 and 4 search workers. A tie is resolved by rank only if
// every order's value is a function of the order alone, not of the
// transpositions that reached it. The one-port warm path does not have
// that property yet (ROADMAP item 7), so one-port ties are left out.
func TestTiedTwoPortSweepMatchesSerial(t *testing.T) {
	setSearchBudget(t, 4)
	for _, z := range []float64{0.5, 1, 2, 10, 100, 1e4} {
		rng := rand.New(rand.NewSource(int64(z * 10)))
		for i := 0; i < 200; i++ {
			p := tiedStar(rng, 4+rng.Intn(3), 10, z)
			var serial []uint64
			var serialOrder platform.Order
			for _, workers := range []int{1, 2, 4} {
				ctx := ContextWithSearchParallelism(context.Background(), workers)
				got, gotOrder, err := BestFIFOExhaustiveEval(ctx, p, schedule.TwoPort, eval.Auto)
				if err != nil {
					t.Fatalf("z=%g #%d, %d workers: %v\n%s", z, i, workers, err, p)
				}
				if workers == 1 {
					serial, serialOrder = scheduleBits(got), gotOrder
					continue
				}
				if !ordersEqual(gotOrder, serialOrder) || !bitsEqual(scheduleBits(got), serial) {
					t.Fatalf("z=%g #%d, %d workers: sweep answered %v %v, serial %v\n%s",
						z, i, workers, gotOrder, got.Alpha, serialOrder, p)
				}
			}
		}
	}
}

// setSearchBudget replaces GOMAXPROCS as the search worker budget for the
// rest of the test: tests that need more workers than CPUs raise it.
func setSearchBudget(t *testing.T, n int) {
	searchBudgetOverride = n
	t.Cleanup(func() { searchBudgetOverride = 0 })
}

// TestStealingPoolCoversEveryRankOnce is the steal-storm stress test: many
// workers over a small rank space with near-zero per-rank work, so the
// deques drain instantly and the run is dominated by concurrent
// steal-half traffic. Every rank must be delivered exactly once per run.
// The retire rounds hold every worker at its first rank until all of them
// have taken one; then every second worker overdraws the budget by one.
// Every deque still holds ranks when the overdraw lands, so helpers retire
// mid-run at their next rank boundary in every round, leaving their
// remainders to the thieves. The -race CI job runs this test and makes the
// steal/install/pop/retire locking discipline part of the checked surface.
func TestStealingPoolCoversEveryRankOnce(t *testing.T) {
	const (
		workers = 16
		total   = int64(1000)
		rounds  = 50
	)
	setSearchBudget(t, workers)
	if n := runningSearchWorkers.Load(); n != 0 {
		t.Fatalf("%d search workers counted before the pool starts: the barrier would wait for helpers that cannot start", n)
	}
	ctx := ContextWithSearchParallelism(context.Background(), workers)
	for _, retire := range []bool{false, true} {
		retired := 0
		for round := 0; round < rounds; round++ {
			var mu sync.Mutex
			seen := make(map[int64]int, total)
			var started, overdraw atomic.Int64
			allStarted := make(chan struct{})
			winner := newSearchCore(ctx)
			run, err := runStealingPool(ctx, winner, total, func(core *searchCore, next func() (int64, bool)) error {
				local := make([]int64, 0, 64)
				for {
					r, ok := next()
					if !ok {
						break
					}
					local = append(local, r)
					if retire && len(local) == 1 {
						n := started.Add(1)
						if n == workers {
							close(allStarted)
						}
						<-allStarted
						if n%2 == 0 {
							overdraw.Add(1)
							runningSearchWorkers.Add(1)
						}
					}
				}
				mu.Lock()
				for _, r := range local {
					seen[r]++
				}
				mu.Unlock()
				return nil
			})
			runningSearchWorkers.Add(-overdraw.Load())
			if err != nil {
				t.Fatal(err)
			}
			if run.workers != workers {
				t.Fatalf("round %d: %d workers ran, want %d", round, run.workers, workers)
			}
			retired += run.retired
			if int64(len(seen)) != total {
				t.Fatalf("retire=%v round %d: %d of %d ranks delivered", retire, round, len(seen), total)
			}
			for r, c := range seen {
				if c != 1 {
					t.Fatalf("retire=%v round %d: rank %d delivered %d times", retire, round, r, c)
				}
			}
		}
		if retire && retired < rounds {
			t.Fatalf("%d helpers retired in %d rounds: some round retired none", retired, rounds)
		}
		if !retire && retired != 0 {
			t.Fatalf("%d helpers retired under an idle budget", retired)
		}
	}
	if n := runningSearchWorkers.Load(); n != 0 {
		t.Fatalf("%d search workers still counted after every pool returned", n)
	}
}

// TestStealingPoolRetireLeavesOneRank pins the retire hand-off at its
// tightest: a helper retires with exactly one rank left in its deque, a
// rank no thief may take from a live owner. The primary must take it from
// the retired deque, so every rank is still delivered exactly once.
func TestStealingPoolRetireLeavesOneRank(t *testing.T) {
	setSearchBudget(t, 2)
	ctx := ContextWithSearchParallelism(context.Background(), 2)
	// Two workers over four ranks: the primary holds [0,2), the helper
	// [2,4), and each pops the front of its own interval first.
	const total = 4
	helperHolds, overdrawn := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	seen := map[int64]int{}
	run, err := runStealingPool(ctx, newSearchCore(ctx), total, func(core *searchCore, next func() (int64, bool)) error {
		for first := true; ; first = false {
			r, ok := next()
			if !ok {
				return nil
			}
			mu.Lock()
			seen[r]++
			mu.Unlock()
			switch {
			case first && r == 2: // the helper: rank 3 is left
				close(helperHolds)
				<-overdrawn
			case first && r == 0: // the primary
				<-helperHolds
				runningSearchWorkers.Add(1) // another search's primary
				close(overdrawn)
				for runningSearchWorkers.Load() > 2 {
					runtime.Gosched() // until the helper retired
				}
			}
		}
	})
	runningSearchWorkers.Add(-1)
	if err != nil {
		t.Fatal(err)
	}
	if run.workers != 2 || run.retired != 1 {
		t.Fatalf("pool ran %d workers with %d retired, want 2 and 1", run.workers, run.retired)
	}
	for r := int64(0); r < total; r++ {
		if seen[r] != 1 {
			t.Fatalf("rank %d delivered %d times (all: %v)", r, seen[r], seen)
		}
	}
}

// TestParallelPairSearchCancellation pins the parallel cancellation
// satellite: with 4 workers on a p = 7 search far larger than its 500µs
// deadline, the first worker to observe the expired context must stop the
// whole pool through the shared flag, and the pool must surface
// context.DeadlineExceeded — not the internal stop sentinel — promptly.
func TestParallelPairSearchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	p := randomPairPlatform(rng, 7)
	disablePairSeeding = true
	defer func() { disablePairSeeding = false }()
	setSearchBudget(t, 4)
	ctx, cancel := context.WithTimeout(ContextWithSearchParallelism(context.Background(), 4), 500*time.Microsecond)
	defer cancel()
	start := time.Now()
	_, err := BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v (after %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, the workers are not sharing the stop flag", elapsed)
	}
}

// TestRankDequeStealHalf pins the deque arithmetic: the thief takes the
// upper half (rounded down), the victim keeps the front, singleton
// intervals are not stealable.
func TestRankDequeStealHalf(t *testing.T) {
	d := &rankDeque{lo: 10, hi: 20}
	lo, hi, ok := d.stealHalf()
	if !ok || lo != 15 || hi != 20 {
		t.Fatalf("stealHalf of [10,20) = [%d,%d) ok=%v, want [15,20) true", lo, hi, ok)
	}
	if d.lo != 10 || d.hi != 15 {
		t.Fatalf("victim keeps [%d,%d), want [10,15)", d.lo, d.hi)
	}
	d.install(7, 8)
	if _, _, ok := d.stealHalf(); ok {
		t.Fatal("stole from a singleton interval")
	}
	if r, ok := d.pop(); !ok || r != 7 {
		t.Fatalf("pop = %d,%v want 7,true", r, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop from an empty deque succeeded")
	}
}

// searchSpanAttrs runs search under a fresh trace at search parallelism
// par and returns the attributes of its "search" span.
func searchSpanAttrs(t *testing.T, par int, search func(ctx context.Context) error) map[string]string {
	tr := obs.NewTrace("search", "test", time.Now)
	if err := search(obs.ContextWithTrace(ContextWithSearchParallelism(context.Background(), par), tr)); err != nil {
		t.Error(err)
		return nil
	}
	attrs := map[string]string{}
	for _, st := range tr.Snapshot().Stages {
		if st.Name == "search" {
			for _, a := range st.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	return attrs
}

// TestTracedSearchCountsArePerSearch pins the search spans' counters to
// their own search: two pair searches, then two affine searches, run
// concurrently, and each span must carry exactly the counts the same
// search annotates when run alone (at parallelism 1 the counts are
// deterministic). Counts taken as deltas of the process-global counters
// would include the other search's nodes.
func TestTracedSearchCountsArePerSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	pairSearch := func(p *platform.Platform) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
			return err
		}
	}
	affineSearch := func(p *platform.Platform, aff Affine) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := BestFIFOAffineContext(ctx, p, aff, Float64)
			return err
		}
	}
	for _, tc := range []struct {
		name     string
		searches [2]func(ctx context.Context) error
		keys     []string
	}{
		{"pair", [2]func(ctx context.Context) error{
			pairSearch(randomPairPlatform(rng, 5)), pairSearch(randomPairPlatform(rng, 5)),
		}, []string{"nodes", "pruned", "screened", "outer_pruned", "leaves"}},
		{"affine", [2]func(ctx context.Context) error{
			affineSearch(randomStar(rng, 12, 0.5), randomAffine(rng, 12, 0.08)),
			affineSearch(randomStar(rng, 12, 0.5), randomAffine(rng, 12, 0.08)),
		}, []string{"nodes", "pruned", "leaves", "bound_solves", "simplex_fallbacks"}},
	} {
		var solo [2]map[string]string
		for i, search := range tc.searches {
			solo[i] = searchSpanAttrs(t, 1, search)
		}
		var together [2]map[string]string
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, search := range tc.searches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				together[i] = searchSpanAttrs(t, 1, search)
			}()
		}
		close(start)
		wg.Wait()
		for i := range tc.searches {
			for _, k := range tc.keys {
				if solo[i][k] == "" || together[i][k] != solo[i][k] {
					t.Errorf("%s search %d: concurrent span %s=%q, alone %q", tc.name, i, k, together[i][k], solo[i][k])
				}
			}
		}
	}
}

// TestSearchBudget pins the process-wide budget from both ends. With the
// budget held full by other searches' workers, the pair and affine
// searches run their primary alone (the span reads workers=1), however
// high their cap, and answer byte-identically to the serial search. On an
// idle budget the same searches run min(cap, GOMAXPROCS) workers. Four
// searches racing for a budget of two get helpers denied or retired
// mid-search, and still answer like the serial search.
func TestSearchBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2727))
	pp := randomPairPlatform(rng, 5)
	ap, aff := randomStar(rng, 12, 0.5), randomAffine(rng, 12, 0.08)
	// Each search renders its answer's bits.
	for _, sr := range []struct {
		name   string
		search func(ctx context.Context) (string, error)
	}{
		{"pair", func(ctx context.Context) (string, error) {
			res, err := BestPairExhaustiveEval(ctx, pp, schedule.OnePort, eval.Auto)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(res.Send, res.Return, scheduleBits(res.Schedule)), nil
		}},
		{"affine", func(ctx context.Context) (string, error) {
			res, err := BestFIFOAffineContext(ctx, ap, aff, Float64)
			if err != nil {
				return "", err
			}
			alpha := make([]uint64, len(res.Alpha))
			for i, a := range res.Alpha {
				alpha[i] = math.Float64bits(a)
			}
			return fmt.Sprint(res.Send, res.Return, res.Feasible, math.Float64bits(res.Throughput), alpha), nil
		}},
	} {
		const capWorkers = 4
		traced := func(par int) (got string, attrs map[string]string) {
			attrs = searchSpanAttrs(t, par, func(ctx context.Context) (err error) {
				got, err = sr.search(ctx)
				return err
			})
			return got, attrs
		}
		serial, _ := traced(1)

		budget := searchBudget()
		runningSearchWorkers.Add(budget)
		got, attrs := traced(capWorkers)
		runningSearchWorkers.Add(-budget)
		if attrs["workers"] != "1" || attrs["helpers_retired"] != "0" {
			t.Errorf("%s search under a full budget: workers=%q helpers_retired=%q, want 1 and 0", sr.name, attrs["workers"], attrs["helpers_retired"])
		}
		if got != serial {
			t.Errorf("%s search under a full budget answered\n%s\nserial answered\n%s", sr.name, got, serial)
		}

		got, attrs = traced(capWorkers)
		if want := fmt.Sprint(min(capWorkers, runtime.GOMAXPROCS(0))); attrs["workers"] != want {
			t.Errorf("%s search on an idle budget: workers=%q, want %s", sr.name, attrs["workers"], want)
		}
		if got != serial {
			t.Errorf("%s search on an idle budget answered\n%s\nserial answered\n%s", sr.name, got, serial)
		}

		setSearchBudget(t, 2)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := ContextWithSearchParallelism(context.Background(), capWorkers)
				for range 5 {
					got, err := sr.search(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					if got != serial {
						t.Errorf("%s search racing for the budget answered\n%s\nserial answered\n%s", sr.name, got, serial)
					}
				}
			}()
		}
		wg.Wait()
		searchBudgetOverride = 0
	}
	if n := runningSearchWorkers.Load(); n != 0 {
		t.Fatalf("%d search workers still counted after every search returned", n)
	}
}
