package dls

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the synchronous (simulation) transport of Batcher, active
// when BatcherConfig.OnWindow is set. One admission core, two transports:
// Offer, ExpireWindow, WindowDeadline and Close call the same collector
// (join, idle rule, flush) that the goroutine mode's collect loop feeds
// from its queue and timer, and Window.Complete answers through the same
// helper as the drain workers. Only the transport differs: no goroutines
// and no channels — the owner delivers arrivals with Offer, fires the
// window timer with ExpireWindow when its clock reaches WindowDeadline,
// and completes flushed windows with Window.Complete at whatever
// (virtual) time its service model dictates. internal/sim drives millions
// of virtual arrivals through this surface in seconds of wall clock. The
// surface is single-threaded: the owner must serialize all calls.

// Pending is the reply slot of one synchronously offered submission.
type Pending struct{ sub *submission }

// Done reports whether the submission has been answered (shed, errored
// or completed).
func (p *Pending) Done() bool {
	select {
	case <-p.sub.ready:
		return true
	default:
		return false
	}
}

// Err returns the submission's error (nil until Done, or on success).
func (p *Pending) Err() error { return p.sub.err }

// Result returns the submission's result, if any.
func (p *Pending) Result() *Result { return p.sub.res }

// Class returns the SLO class the submission was admitted under.
func (p *Pending) Class() SLOClass { return p.sub.class }

// Deadline returns the submission's absolute deadline (zero: none).
func (p *Pending) Deadline() time.Time { return p.sub.deadline }

// SetTag attaches an owner value to the submission; Window.Tag returns
// it at completion. The simulator uses it to link completions back to
// its arrival records without a side table.
func (p *Pending) SetTag(v any) { p.sub.tag = v }

// Tag returns the value set with SetTag.
func (p *Pending) Tag() any { return p.sub.tag }

// Window is one flushed admission window in synchronous mode, handed to
// BatcherConfig.OnWindow. The owner inspects its composition (size,
// dedup groups, classes) to model service time, then answers it with
// Complete.
type Window struct {
	b       *Batcher
	subs    []*submission
	groups  int
	flushed time.Time
	// unanswered counts the submissions Complete has not answered yet:
	// zero once the window is completed.
	unanswered atomic.Int64
}

// Size returns the number of submissions in the window.
func (w *Window) Size() int { return len(w.subs) }

// Groups returns the number of deduplicated problems in the window —
// the solves a real SolveBatch would run after dedup.
func (w *Window) Groups() int { return w.groups }

// FlushedAt returns the window's flush time on the batcher clock.
func (w *Window) FlushedAt() time.Time { return w.flushed }

// Request returns the i-th submission's request.
func (w *Window) Request(i int) Request { return w.subs[i].req }

// Class returns the i-th submission's SLO class.
func (w *Window) Class(i int) SLOClass { return w.subs[i].class }

// Deadline returns the i-th submission's absolute deadline (zero: none).
func (w *Window) Deadline(i int) time.Time { return w.subs[i].deadline }

// Tag returns the i-th submission's owner tag (see Pending.SetTag).
func (w *Window) Tag(i int) any { return w.subs[i].tag }

// Complete answers every submission of the window at the current clock
// time: results[i]/errs[i] answer submission i (both may be nil — the
// simulator models cost, not solutions), deadline violations are counted
// per class against the clock, and the adaptive controller observes the
// window's service time (now - FlushedAt) over its dedup groups. Either
// slice may be nil; non-nil slices must have length Size. A window is
// completed once: a second Complete is an error and changes nothing.
//
// Unlike the goroutine mode, which answers each request as soon as its
// dedup group is solved, Complete answers the whole window at once: the
// simulator prices service per window, so there is no per-group finish
// time to answer at.
func (w *Window) Complete(results []*Result, errs []error) error {
	if results != nil && len(results) != len(w.subs) {
		return fmt.Errorf("dls: Window.Complete: %d results for %d submissions", len(results), len(w.subs))
	}
	if errs != nil && len(errs) != len(w.subs) {
		return fmt.Errorf("dls: Window.Complete: %d errors for %d submissions", len(errs), len(w.subs))
	}
	if w.unanswered.Load() == 0 {
		return errors.New("dls: Window.Complete: window already completed")
	}
	b := w.b
	for i, sub := range w.subs {
		var res *Result
		var err error
		if results != nil {
			res = results[i]
		}
		if errs != nil {
			err = errs[i]
		}
		b.answer(&w.unanswered, sub, res, err, true)
	}
	b.outstanding -= len(w.subs)
	if b.adapt != nil {
		b.adapt.observeSolve(b.clock.Now().Sub(w.flushed), w.groups)
	}
	return nil
}

// Offer admits or sheds one submission now, without blocking: it is the
// synchronous-mode counterpart of Submit, and joins the filling window
// through the same admission step. The returned Pending is answered
// immediately on shed or when ctx is already done, or by Window.Complete
// after the window carrying it is flushed: at once when fewer than
// Workers windows are in flight (handed to OnWindow, not yet completed),
// else at the size threshold or ExpireWindow. Admission is bounded by
// QueueCap outstanding (admitted, not yet completed) submissions; beyond
// it, and for deadline-carrying requests the adaptive policy predicts
// cannot meet their SLO, the submission is shed with ErrOverloaded /
// ErrSLOUnmeetable exactly like the goroutine mode. tag is attached
// before any shed or flush can observe the submission (see Pending.Tag
// and BatcherConfig.OnShed) — Offer can flush a full window before it
// returns, so setting the tag afterwards would be too late.
func (b *Batcher) Offer(ctx context.Context, req Request, class string, tag any) (*Pending, error) {
	if b.cfg.OnWindow == nil {
		return nil, fmt.Errorf("dls: Offer on an asynchronous batcher (use Submit)")
	}
	if b.closed {
		return nil, ErrBatcherClosed
	}
	c, err := b.resolveClass(class)
	if err != nil {
		return nil, err
	}
	sub := new(submission)
	b.initSubmission(sub, ctx, req, c)
	sub.tag = tag
	if b.outstanding+len(b.col.win) >= b.cfg.QueueCap {
		b.recordShed(sub, ErrOverloaded)
	} else {
		b.col.join([]*submission{sub}, false)
	}
	return &Pending{sub: sub}, nil
}

// WindowDeadline returns the flush time of the currently filling window;
// ok is false when no window is open. The owner is expected to call
// ExpireWindow when its clock reaches the deadline.
func (b *Batcher) WindowDeadline() (time.Time, bool) {
	if b.cfg.OnWindow == nil || len(b.col.win) == 0 {
		return time.Time{}, false
	}
	return b.col.deadline, true
}

// ExpireWindow fires the window timer: the filling window, if any, is
// flushed through OnWindow regardless of fill.
func (b *Batcher) ExpireWindow() {
	if b.cfg.OnWindow != nil {
		b.col.flush(flushTimer)
	}
}

// handOff is the synchronous sink: a flushed window goes to OnWindow.
func (b *Batcher) handOff(win []*submission) {
	w := &Window{b: b, subs: win, groups: countGroups(win), flushed: b.clock.Now()}
	w.unanswered.Store(int64(len(win)))
	b.outstanding += len(win)
	b.cfg.OnWindow(w)
}

// countGroups counts the deduplicated problems of a window — the number
// of solves its SolveBatch would run — for the owner's cost model and the
// adaptive controller. (The goroutine mode takes the count from the batch
// solve itself.)
func countGroups(win []*submission) int {
	seen := make(map[string]struct{}, len(win))
	groups := 0
	for _, sub := range win {
		if sub.req.Platform == nil {
			groups++ // invalid; errors individually, never solves
			continue
		}
		key := sub.req.cacheKey()
		if _, ok := seen[key]; !ok {
			seen[key] = struct{}{}
			groups++
		}
	}
	return groups
}
