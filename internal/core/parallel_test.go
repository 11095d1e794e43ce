package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
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

// TestStealingPoolCoversEveryRankOnce is the steal-storm stress test: many
// workers over a small rank space with near-zero per-rank work, so the
// deques drain instantly and the run is dominated by concurrent
// steal-half traffic. Every rank must be delivered exactly once per run.
// The -race CI job runs this test and makes the steal/install/pop locking
// discipline part of the checked surface.
func TestStealingPoolCoversEveryRankOnce(t *testing.T) {
	const (
		workers = 16
		total   = int64(1000)
		rounds  = 50
	)
	ctx := ContextWithSearchParallelism(context.Background(), workers)
	for round := 0; round < rounds; round++ {
		var mu sync.Mutex
		seen := make(map[int64]int, total)
		winner := newSearchCore(ctx)
		err := runStealingPool(ctx, winner, total, func(core *searchCore, next func() (int64, bool)) error {
			local := make([]int64, 0, 64)
			for {
				r, ok := next()
				if !ok {
					break
				}
				local = append(local, r)
			}
			mu.Lock()
			for _, r := range local {
				seen[r]++
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(seen)) != total {
			t.Fatalf("round %d: %d of %d ranks delivered", round, len(seen), total)
		}
		for r, c := range seen {
			if c != 1 {
				t.Fatalf("round %d: rank %d delivered %d times", round, r, c)
			}
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

// searchSpanAttrs runs search under a fresh trace at search parallelism 1
// and returns the attributes of its "search" span.
func searchSpanAttrs(t *testing.T, search func(ctx context.Context) error) map[string]string {
	tr := obs.NewTrace("search", "test", time.Now)
	if err := search(obs.ContextWithTrace(ContextWithSearchParallelism(context.Background(), 1), tr)); err != nil {
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
		}, []string{"nodes", "pruned", "leaves", "bound_solves"}},
	} {
		var solo [2]map[string]string
		for i, search := range tc.searches {
			solo[i] = searchSpanAttrs(t, search)
		}
		var together [2]map[string]string
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, search := range tc.searches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				together[i] = searchSpanAttrs(t, search)
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
