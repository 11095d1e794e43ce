package dls

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdaptiveConfigDefaults(t *testing.T) {
	if adaptiveMinDelay != 100*time.Microsecond {
		t.Errorf("adaptiveMinDelay = %v, want 100µs", adaptiveMinDelay)
	}
	if adaptiveMaxDelay != 5*time.Millisecond {
		t.Errorf("adaptiveMaxDelay = %v, want 5ms", adaptiveMaxDelay)
	}
	if adaptiveMaxSize != 512 {
		t.Errorf("adaptiveMaxSize = %d, want 512", adaptiveMaxSize)
	}
	if adaptiveGain != 1.0 {
		t.Errorf("adaptiveGain = %g, want 1", adaptiveGain)
	}
	if adaptiveSlackFraction != 0.25 {
		t.Errorf("adaptiveSlackFraction = %g, want 0.25", adaptiveSlackFraction)
	}
	if adaptiveCostQuantile != 0.5 {
		t.Errorf("adaptiveCostQuantile = %g, want 0.5", adaptiveCostQuantile)
	}
}

func TestAdaptiveWindowDelayBounds(t *testing.T) {
	a := newAdaptive(SystemClock(), new(atomic.Int64))
	now := time.Unix(0, 0)

	// Fresh controller, no backlog: the delay floors at MinDelay.
	if d := a.windowDelay(now, time.Time{}); d != adaptiveMinDelay {
		t.Errorf("idle delay = %v, want MinDelay %v", d, adaptiveMinDelay)
	}

	// Heavy backlog with observed costs: clamped at MaxDelay.
	for i := 0; i < 50; i++ {
		a.observeSolve(10*time.Millisecond, 1)
	}
	a.inFlight.Store(1000)
	if d := a.windowDelay(now, time.Time{}); d != adaptiveMaxDelay {
		t.Errorf("backlogged delay = %v, want MaxDelay %v", d, adaptiveMaxDelay)
	}

	// A near deadline caps the delay at SlackFraction of the slack.
	if d := a.windowDelay(now, now.Add(time.Millisecond)); d != 250*time.Microsecond {
		t.Errorf("slack-capped delay = %v, want 250µs", d)
	}

	// A deadline already behind us leaves no room to wait at all.
	if d := a.windowDelay(now, now.Add(-time.Millisecond)); d != 0 {
		t.Errorf("past-deadline delay = %v, want 0", d)
	}
}

func TestAdaptiveWindowSize(t *testing.T) {
	a := newAdaptive(SystemClock(), new(atomic.Int64))
	if got := a.windowSize(64); got != 64 {
		t.Errorf("drained size = %d, want base 64", got)
	}
	a.inFlight.Store(3)
	if got := a.windowSize(64); got != 512 {
		t.Errorf("backlogged size = %d, want MaxSize 512", got)
	}
	// A base above MaxSize is never shrunk.
	if got := a.windowSize(1024); got != 1024 {
		t.Errorf("large-base size = %d, want 1024", got)
	}
}

func TestAdaptiveEstCompletion(t *testing.T) {
	a := newAdaptive(SystemClock(), new(atomic.Int64))
	now := time.Unix(100, 0)

	// No observations: the estimate collapses to "now".
	if got := a.estCompletion(now, time.Time{}, 2); !got.Equal(now) {
		t.Errorf("cold estimate = %v, want %v", got, now)
	}

	for i := 0; i < 50; i++ {
		a.observeSolve(time.Millisecond, 2)
	}
	base := a.estCompletion(now, time.Time{}, 2)
	if !base.After(now) {
		t.Fatalf("warm estimate %v not after now %v", base, now)
	}

	// The pending flush shifts the estimate by exactly the remaining wait.
	shifted := a.estCompletion(now, now.Add(3*time.Millisecond), 2)
	if got := shifted.Sub(base); got != 3*time.Millisecond {
		t.Errorf("flush wait shifted estimate by %v, want 3ms", got)
	}
	// A flush already due adds nothing.
	if got := a.estCompletion(now, now.Add(-time.Millisecond), 2); !got.Equal(base) {
		t.Errorf("overdue flush shifted estimate to %v, want %v", got, base)
	}

	// Backlog pushes the estimate out; more drain workers pull it back.
	a.inFlight.Store(8)
	narrow := a.estCompletion(now, time.Time{}, 2)
	if !narrow.After(base) {
		t.Errorf("backlog did not push the estimate out: %v <= %v", narrow, base)
	}
	wide := a.estCompletion(now, time.Time{}, 8)
	if !narrow.After(wide) {
		t.Errorf("extra workers did not pull the estimate in: %v <= %v", wide, narrow)
	}
}

func TestAdaptiveObserveSolveEWMA(t *testing.T) {
	a := newAdaptive(SystemClock(), new(atomic.Int64))
	if c := a.estGroupCost(); c != 0 {
		t.Errorf("cold estGroupCost = %v, want 0", c)
	}
	a.observeSolve(time.Millisecond, 10)
	if g := a.state().GroupsPerWindow; g != 10 {
		t.Errorf("first observation GroupsPerWindow = %g, want 10", g)
	}
	a.observeSolve(time.Millisecond, 20)
	if g := a.state().GroupsPerWindow; math.Abs(g-12) > 1e-9 {
		t.Errorf("EWMA GroupsPerWindow = %g, want 12", g)
	}
	if c := a.estGroupCost(); c <= 0 {
		t.Errorf("warm estGroupCost = %v, want > 0", c)
	}

	// Degenerate group counts clamp to one instead of corrupting the EWMA.
	b := newAdaptive(SystemClock(), new(atomic.Int64))
	b.observeSolve(time.Millisecond, 0)
	if g := b.state().GroupsPerWindow; g != 1 {
		t.Errorf("zero-group observation GroupsPerWindow = %g, want 1", g)
	}
}
