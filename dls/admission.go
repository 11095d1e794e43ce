package dls

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// SLOClass is a latency service class a submission can be admitted
// under: a completion deadline relative to admission and a priority used
// when classes compete for capacity (higher is more important).
// Deadline 0 means "no deadline" (best effort).
type SLOClass struct {
	Name     string        `json:"name"`
	Deadline time.Duration `json:"deadline"`
	Priority int           `json:"priority"`
}

// DefaultSLOClasses is the serving default: an interactive "tight"
// class, the bulk "standard" class and a best-effort "batch" class.
// Chosen so the tight deadline comfortably holds a chain solve plus one
// admission window, but not a queue of windows.
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "tight", Deadline: 25 * time.Millisecond, Priority: 2},
		{Name: "standard", Deadline: 250 * time.Millisecond, Priority: 1},
		{Name: "batch", Deadline: 0, Priority: 0},
	}
}

// ParseSLOClasses parses a "name=deadline:priority,..." spec (the dlsd
// -slo-classes flag), e.g. "tight=25ms:2,standard=250ms:1,batch=0:0".
// Priority defaults to 0 when omitted; deadline 0 means best effort.
func ParseSLOClasses(spec string) ([]SLOClass, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("dls: empty SLO class spec")
	}
	var out []SLOClass
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("dls: SLO class %q: want name=deadline[:priority]", part)
		}
		dspec, pspec, hasPrio := strings.Cut(rest, ":")
		var d time.Duration
		if dspec != "0" {
			var err error
			if d, err = time.ParseDuration(dspec); err != nil || d < 0 {
				return nil, fmt.Errorf("dls: SLO class %q: bad deadline %q", name, dspec)
			}
		}
		prio := 0
		if hasPrio {
			if _, err := fmt.Sscanf(pspec, "%d", &prio); err != nil {
				return nil, fmt.Errorf("dls: SLO class %q: bad priority %q", name, pspec)
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("dls: SLO class %q repeated", name)
		}
		seen[name] = true
		out = append(out, SLOClass{Name: name, Deadline: d, Priority: prio})
	}
	return out, nil
}

// Adaptive admission (BatcherConfig.Adaptive) is the SLO-aware adaptive
// admission window. The policy was designed and validated against the
// internal/sim discrete-event simulator (see cmd/dlssim and the sim-smoke
// CI gate), which also tuned its constants below.
//
// The policy has three levers, all driven by observed state rather than
// fixed constants:
//
//   - Window delay: a window that cannot flush at once to an idle drain
//     worker (see Batcher) waits longer the deeper the backlog, so
//     duplicates and chain-shaped company collapse into one SolveBatch.
//     delay = adaptiveGain × backlog × estimated-window-cost, clamped to
//     [adaptiveMinDelay, adaptiveMaxDelay] and to adaptiveSlackFraction of
//     the window-opening request's deadline slack.
//   - Window size: under backlog the early-flush threshold rises to
//     adaptiveMaxSize, maximizing dedup/prepass collapse exactly when
//     throughput is the constraint; when drained it falls back to the
//     configured base size so latency stays bounded by the timer.
//   - Deadline-aware shedding: a request whose estimated completion
//     (remaining window wait + queued windows ahead + its own solve)
//     already exceeds its SLO deadline is shed at admission — and again
//     at flush if the estimate soured while it queued — with
//     ErrOverloaded, freeing capacity for requests that can still make
//     their deadline instead of burning solves on certain violations.
//
// Cost estimates come from a per-group solve-cost histogram the batcher
// maintains (internal/stats.Histogram), so the policy calibrates itself
// to the traffic it actually sees.
const (
	// adaptiveMinDelay is the floor of the window delay.
	adaptiveMinDelay = 100 * time.Microsecond
	// adaptiveMaxDelay bounds the delay under backlog.
	adaptiveMaxDelay = 5 * time.Millisecond
	// adaptiveMaxSize bounds the early-flush threshold under backlog (the
	// batcher's configured MaxSize is the no-backlog base).
	adaptiveMaxSize = 512
	// adaptiveGain scales backlog pressure into window delay.
	adaptiveGain = 1.0
	// adaptiveSlackFraction caps the window delay at this fraction of the
	// opening request's remaining deadline slack.
	adaptiveSlackFraction = 0.25
	// adaptiveCostQuantile is the solve-cost histogram quantile used for
	// completion estimates. The estimate already stacks a full window cost
	// on top of the backlog term, so the median keeps the SLO shed
	// decision near-unbiased — a high quantile here sheds requests that
	// would have met their deadline.
	adaptiveCostQuantile = 0.5
)

// adaptive is the controller state of adaptive admission. The window
// decisions (delay, size) are made on the collector goroutine (or the
// synchronous driver); the observations arrive from drain workers and
// Stats readers, so everything shared is atomic.
type adaptive struct {
	clock Clock

	// groupCost observes per-dedup-group solve seconds.
	groupCost *stats.Histogram
	// groupsPerWindow is an EWMA of dedup groups per flushed window
	// (float64 bits).
	groupsPerWindow atomic.Uint64
	// inFlight is the owning Batcher's count of windows flushed but not
	// yet answered (the backlog signal).
	inFlight *atomic.Int64
	// delayNs and sizeNow expose the latest decisions for metrics.
	delayNs atomic.Int64
	sizeNow atomic.Int64
}

func newAdaptive(clock Clock, inFlight *atomic.Int64) *adaptive {
	return &adaptive{
		clock:     clock,
		inFlight:  inFlight,
		groupCost: stats.NewHistogram(stats.LatencyBounds()...),
	}
}

// observeSolve records one window solve: d seconds of wall (or virtual)
// clock over groups deduplicated problems.
func (a *adaptive) observeSolve(d time.Duration, groups int) {
	if groups <= 0 {
		groups = 1
	}
	a.groupCost.Observe(d.Seconds() / float64(groups))
	const alpha = 0.2
	for {
		old := a.groupsPerWindow.Load()
		cur := math.Float64frombits(old)
		next := cur + alpha*(float64(groups)-cur)
		if cur == 0 {
			next = float64(groups)
		}
		if a.groupsPerWindow.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estGroupCost is the per-group solve-cost estimate at the configured
// quantile; zero until the histogram has observations.
func (a *adaptive) estGroupCost() time.Duration {
	if a.groupCost.Count() == 0 {
		return 0
	}
	return time.Duration(a.groupCost.Quantile(adaptiveCostQuantile) * float64(time.Second))
}

// estWindowCost estimates one window's solve time from the EWMA group
// count and the per-group cost quantile.
func (a *adaptive) estWindowCost() time.Duration {
	g := math.Float64frombits(a.groupsPerWindow.Load())
	if g < 1 {
		g = 1
	}
	return time.Duration(g * float64(a.estGroupCost()))
}

// windowDelay decides the admission delay for a window opened now by a
// request with the given absolute deadline (zero = none).
func (a *adaptive) windowDelay(now time.Time, deadline time.Time) time.Duration {
	backlog := a.inFlight.Load()
	d := time.Duration(adaptiveGain * float64(backlog) * float64(a.estWindowCost()))
	if d < adaptiveMinDelay {
		d = adaptiveMinDelay
	}
	if d > adaptiveMaxDelay {
		d = adaptiveMaxDelay
	}
	if !deadline.IsZero() {
		slack := time.Duration(adaptiveSlackFraction * float64(deadline.Sub(now)))
		if slack < 0 {
			slack = 0
		}
		if d > slack {
			d = slack
		}
	}
	a.delayNs.Store(int64(d))
	return d
}

// windowSize decides the early-flush threshold given the batcher's base
// size: under backlog the window grows toward adaptiveMaxSize so the flush
// collapses as many duplicates as possible; drained, it stays at base.
func (a *adaptive) windowSize(base int) int {
	size := base
	if a.inFlight.Load() > 0 {
		size = adaptiveMaxSize
	}
	if size < base {
		size = base
	}
	a.sizeNow.Store(int64(size))
	return size
}

// estCompletion estimates when a request admitted now would complete:
// the remaining wait of the filling window (flushAt; zero means the
// window opens with this request), the backlog of flushed windows ahead
// spread over the drain workers, and one window's own solve.
func (a *adaptive) estCompletion(now, flushAt time.Time, workers int) time.Time {
	if workers < 1 {
		workers = 1
	}
	wc := a.estWindowCost()
	wait := time.Duration(0)
	if !flushAt.IsZero() && flushAt.After(now) {
		wait = flushAt.Sub(now)
	}
	// Windows ahead are on average half-served, so the backlog term
	// charges half a window cost each; charging the full cost
	// double-counts and sheds requests that would have made it.
	ahead := time.Duration(float64(a.inFlight.Load()) / float64(workers) * float64(wc) / 2)
	return now.Add(wait + ahead + wc)
}

// AdaptiveState is a point-in-time snapshot of the adaptive admission
// controller, for /metrics and reports.
type AdaptiveState struct {
	// WindowDelay and WindowSize are the most recent decisions.
	WindowDelay time.Duration
	WindowSize  int
	// BacklogWindows is the number of flushed-but-uncompleted windows.
	BacklogWindows int
	// GroupsPerWindow is the EWMA of dedup groups per window.
	GroupsPerWindow float64
	// GroupCostP50 and GroupCostP90 are per-group solve-cost estimates.
	GroupCostP50, GroupCostP90 time.Duration
}

// state snapshots the controller.
func (a *adaptive) state() AdaptiveState {
	return AdaptiveState{
		WindowDelay:     time.Duration(a.delayNs.Load()),
		WindowSize:      int(a.sizeNow.Load()),
		BacklogWindows:  int(a.inFlight.Load()),
		GroupsPerWindow: math.Float64frombits(a.groupsPerWindow.Load()),
		GroupCostP50:    time.Duration(a.groupCost.Quantile(0.5) * float64(time.Second)),
		GroupCostP90:    time.Duration(a.groupCost.Quantile(0.9) * float64(time.Second)),
	}
}

// sortClassNames returns the class-counter keys in stable order (shared
// by Stats consumers and metrics emission).
func sortClassNames(m map[string]uint64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
