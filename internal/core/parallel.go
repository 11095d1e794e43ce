package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the work-stealing search pool behind the exhaustive order
// searches: the permutation space is addressed by SJT rank (see sjt.go),
// split into contiguous per-worker blocks, and — for the pair search,
// whose per-rank subtrees are wildly uneven — rebalanced by steal-half.
// Every worker shares one incumbent (atomic float64-bits CAS) and keeps a
// local (throughput, lex-min orders) best; the drivers merge the locals
// under the same rule, which together with the strictly-worse prune rule
// makes the result byte-identical to the serial search for every worker
// count and interleaving (see searchCore).
//
// The searches of concurrent requests share the CPUs through one
// process-wide budget of running search workers (GOMAXPROCS). A search's
// primary worker always runs and always counts; its helpers only borrow
// idle cores: they start while the count is below the budget and retire
// at a rank boundary once it is above (see stealPool).

// searchParallelismKey carries the worker count of the order-space
// searches through a context.
type searchParallelismKey struct{}

// ContextWithSearchParallelism returns a context that caps how many
// workers one exhaustive order-space search uses: n ≤ 0 means one worker
// per CPU (GOMAXPROCS), n == 1 the serial path. Searches under a context
// without the value run serially. The cap is an upper bound: beyond its
// first worker, a pair or affine search runs only the helpers the
// process-wide budget of GOMAXPROCS running search workers has room for,
// so concurrent searches do not oversubscribe the CPUs. The search result
// is byte-identical for every setting; only wall-clock time changes.
func ContextWithSearchParallelism(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, searchParallelismKey{}, n)
}

// searchParallelism resolves the worker cap for a search context.
func searchParallelism(ctx context.Context) int {
	n, ok := ctx.Value(searchParallelismKey{}).(int)
	if !ok {
		return 1
	}
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runningSearchWorkers counts the search workers running in the process:
// every search's primary, every helper that has not retired, every order
// sweep worker.
var runningSearchWorkers atomic.Int64

// searchBudgetOverride, when positive, replaces GOMAXPROCS as the search
// worker budget. Tests that need more workers than CPUs raise it.
var searchBudgetOverride int

// searchBudget is the most search workers the process runs at once.
func searchBudget() int64 {
	if searchBudgetOverride > 0 {
		return int64(searchBudgetOverride)
	}
	return int64(runtime.GOMAXPROCS(0))
}

// SearchHelperStats counts the helpers of the work-stealing searches (the
// pair and affine branch-and-bounds) against the process-wide budget.
type SearchHelperStats struct {
	// Started helpers found an idle core at their search's start.
	Started uint64
	// Denied helpers were wanted (the search's cap allowed them) but the
	// budget was full.
	Denied uint64
	// Retired helpers left their search early, at a rank boundary, because
	// the budget was overdrawn; their remaining ranks were stolen.
	Retired uint64
}

var helperStarted, helperDenied, helperRetired atomic.Uint64

// SearchHelperStatsSnapshot returns the cumulative helper counters.
func SearchHelperStatsSnapshot() SearchHelperStats {
	return SearchHelperStats{
		Started: helperStarted.Load(),
		Denied:  helperDenied.Load(),
		Retired: helperRetired.Load(),
	}
}

// poolRun is what a search pool reports for its search span: how many
// workers actually ran and how many of them retired early.
type poolRun struct {
	workers, retired int
}

// collectSearchErr reduces per-worker errors: the worker that actually hit
// a failure (a done context, an evaluation error) reports it, workers that
// merely observed the stop flag report errSearchStopped. Preferring the
// real error keeps ctx.Err() semantics identical to the serial search.
func collectSearchErr(ctx context.Context, errs []error) error {
	stopped := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err != errSearchStopped {
			return err
		}
		stopped = true
	}
	if stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		return errSearchStopped
	}
	return nil
}

// runRangePool partitions [0, total) ranks into one contiguous block per
// worker and runs fn on each block — the static split of the FIFO/LIFO
// sweeps, whose per-rank cost is uniform enough that stealing would only
// break the incremental sweep state. The split is fixed by the cap, not by
// the budget, because a one-port sweep's answer on tied costs still
// depends on it (see sweepRange); its workers still count toward the
// budget while they run. Worker bests merge into winner.
func runRangePool(ctx context.Context, winner *searchCore, total int64, fn func(core *searchCore, lo, hi int64) error) (poolRun, error) {
	workers := searchParallelism(ctx)
	if int64(workers) > total {
		workers = int(total)
	}
	if workers < 1 {
		workers = 1
	}
	runningSearchWorkers.Add(int64(workers))
	cores := make([]*searchCore, workers)
	errs := make([]error, workers)
	run := func(w int) {
		defer runningSearchWorkers.Add(-1)
		if err := fn(cores[w], total*int64(w)/int64(workers), total*int64(w+1)/int64(workers)); err != nil {
			winner.inc.stop.Store(true)
			errs[w] = err
		}
	}
	var wg sync.WaitGroup
	for w := range cores {
		cores[w] = newSearchWorker(ctx, winner.inc)
		if w > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
	}
	run(0)
	wg.Wait()
	if err := collectSearchErr(ctx, errs); err != nil {
		return poolRun{}, err
	}
	mergeWorkers(winner, cores)
	return poolRun{workers: workers}, nil
}

// rankDeque is one worker's share of the rank space: a contiguous interval
// the owner pops from the front and thieves halve from the back. A mutex
// is plenty — the owner locks once per send order (whose subtree costs
// orders of magnitude more than the lock) and thieves only show up when
// their own interval ran dry.
type rankDeque struct {
	mu      sync.Mutex
	lo, hi  int64
	retired bool // the owner left; thieves take the whole remainder
}

// pop takes the next rank from the front of the owner's interval.
func (d *rankDeque) pop() (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lo >= d.hi {
		return 0, false
	}
	r := d.lo
	d.lo++
	return r, true
}

// stealHalf removes and returns the upper half of the interval (victims
// keep the lower half, preserving their front-pop locality). Intervals of
// fewer than two ranks are not worth fighting the owner over. A retired
// owner fights nobody: its whole remainder goes, even a single rank.
func (d *rankDeque) stealHalf() (lo, hi int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.hi - d.lo
	switch {
	case d.retired && n >= 1:
		lo, hi, ok = d.lo, d.hi, true
		d.hi = d.lo
	case n >= 2:
		mid := d.hi - n/2
		lo, hi, ok = mid, d.hi, true
		d.hi = mid
	}
	return
}

// install refills the owner's (drained) interval with a stolen one.
func (d *rankDeque) install(lo, hi int64) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// stealPool is one search's rank space under work stealing. Worker 0 is
// the primary: it never retires, and its last steal scan closes the pool.
// Helpers retire only while the pool is open, under the same mutex, so a
// helper never leaves ranks behind after the primary's last look: either
// the retirement comes first and that scan steals the retired remainder,
// or the pool is closed and the helper finishes its own interval.
type stealPool struct {
	deques []rankDeque
	budget int64
	mu     sync.Mutex
	closed bool
}

// steal scans the victims round-robin from id's right neighbour, takes
// half of the first stealable interval, keeps its first rank and installs
// the rest in id's own deque.
func (pl *stealPool) steal(id int) (int64, bool) {
	n := len(pl.deques)
	for k := 1; k < n; k++ {
		if lo, hi, ok := pl.deques[(id+k)%n].stealHalf(); ok {
			if lo+1 < hi {
				pl.deques[id].install(lo+1, hi)
			}
			return lo, true
		}
	}
	return 0, false
}

// retire releases helper id's budget slot when the process runs more
// search workers than the budget, and leaves its interval to the thieves.
// The CAS retires exactly as many helpers as the budget is overdrawn by.
func (pl *stealPool) retire(id int) bool {
	if runningSearchWorkers.Load() <= pl.budget {
		return false
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return false
	}
	for {
		cur := runningSearchWorkers.Load()
		if cur <= pl.budget {
			return false
		}
		if runningSearchWorkers.CompareAndSwap(cur, cur-1) {
			break
		}
	}
	d := &pl.deques[id]
	d.mu.Lock()
	d.retired = true
	d.mu.Unlock()
	helperRetired.Add(1)
	return true
}

// next is worker id's rank source: its own deque first, then a steal. A
// helper checks the budget at every rank boundary; the primary's steal
// scans run under the pool mutex and the one that finds nothing closes
// the pool.
func (pl *stealPool) next(id int) func() (int64, bool) {
	return func() (int64, bool) {
		if id > 0 && pl.retire(id) {
			return 0, false
		}
		if r, ok := pl.deques[id].pop(); ok {
			return r, true
		}
		if id > 0 {
			return pl.steal(id)
		}
		pl.mu.Lock()
		defer pl.mu.Unlock()
		r, ok := pl.steal(id)
		pl.closed = !ok
		return r, ok
	}
}

// acquireHelper claims a budget slot for one helper if one is idle.
func acquireHelper(budget int64) bool {
	for {
		cur := runningSearchWorkers.Load()
		if cur >= budget {
			return false
		}
		if runningSearchWorkers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// runStealingPool deals [0, total) ranks to per-worker deques and runs fn
// per worker with a next() source that drains the worker's own deque and
// then steals from a victim. The primary worker runs on the calling
// goroutine and always counts toward the budget; up to cap−1 helpers
// start beside it, each only while the process runs fewer search workers
// than the budget, and the ranks are dealt over the workers that started.
// Every rank is delivered exactly once: a live owner drains its own deque,
// and a retired helper's remainder goes to a thief, at the latest to the
// primary's closing scan (see stealPool). Worker bests merge into winner.
func runStealingPool(ctx context.Context, winner *searchCore, total int64, fn func(core *searchCore, next func() (int64, bool)) error) (poolRun, error) {
	want := searchParallelism(ctx)
	if int64(want) > total {
		want = int(total)
	}
	if want < 1 {
		want = 1
	}
	pl := &stealPool{budget: searchBudget()}
	runningSearchWorkers.Add(1)
	defer runningSearchWorkers.Add(-1)
	workers := 1
	for workers < want && acquireHelper(pl.budget) {
		workers++
	}
	helperStarted.Add(uint64(workers - 1))
	helperDenied.Add(uint64(want - workers))
	pl.deques = make([]rankDeque, workers)
	for w := range pl.deques {
		pl.deques[w].lo = total * int64(w) / int64(workers)
		pl.deques[w].hi = total * int64(w+1) / int64(workers)
	}
	cores := make([]*searchCore, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range cores {
		cores[w] = newSearchWorker(ctx, winner.inc)
		if w == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(cores[w], pl.next(w)); err != nil {
				winner.inc.stop.Store(true)
				errs[w] = err
			}
			if !pl.deques[w].retired {
				runningSearchWorkers.Add(-1)
			}
		}()
	}
	if err := fn(cores[0], pl.next(0)); err != nil {
		winner.inc.stop.Store(true)
		errs[0] = err
	}
	wg.Wait()
	if err := collectSearchErr(ctx, errs); err != nil {
		return poolRun{}, err
	}
	mergeWorkers(winner, cores)
	run := poolRun{workers: workers}
	for w := range pl.deques {
		if pl.deques[w].retired {
			run.retired++
		}
	}
	return run, nil
}
