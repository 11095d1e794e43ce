package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep(2) until at. Go timers
// on Linux wake up to about 1.5 ms late (the poller's timeout has
// millisecond resolution), which would show up as latency of every
// arrival that follows a short gap; the kernel's high-resolution sleep
// wakes within tens of microseconds and burns no CPU.
func sleepUntil(at time.Time) {
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR only cuts the sleep short; the loop resumes it
	}
}

// sample is the outcome of one timed HTTP call.
type sample struct {
	idx     int           // index into workload.timed
	latency time.Duration // open loop: from the due time; closed loop: from the send
	done    time.Time     // when the answer was read
	status  int           // 0 on a transport error
	body    []byte
	err     error
}

// newClient returns an HTTP client that keeps at most conns connections to
// the server open and reuses them.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends one call and reads its answer.
func post(ctx context.Context, client *http.Client, base string, c call) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// openLoop sends calls[i] at start+due[i] regardless of how earlier calls
// fare, over conns connections; a call whose connections are all busy
// waits for one, and that wait counts in its latency, which runs from the
// due time. lateness[i] is how late the dispatcher itself woke for call
// i: the generator's own lag, reported apart so a lagging generator reads
// as an invalid run rather than a slow server.
func openLoop(ctx context.Context, client *http.Client, base string, calls []call, due []time.Duration, conns int, start time.Time) (samples []sample, lateness []time.Duration) {
	samples = make([]sample, len(calls))
	lateness = make([]time.Duration, len(calls))
	queue := make(chan int, len(calls)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				status, body, err := post(ctx, client, base, calls[i])
				done := time.Now()
				samples[i] = sample{idx: i, latency: done.Sub(start.Add(due[i])), done: done, status: status, body: body, err: err}
			}
		}()
	}
	for i := range calls {
		at := start.Add(due[i])
		sleepUntil(at)
		lateness[i] = time.Since(at)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, lateness
}

// closedLoop runs conns callers from start, each sending its next call as
// soon as its previous one is answered. Callers take calls in sequence
// order; with cycle they wrap around until d has passed, without it they
// stop after one pass.
func closedLoop(ctx context.Context, client *http.Client, base string, calls []call, conns int, start time.Time, d time.Duration, cycle bool) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				n := int(next.Add(1) - 1)
				if cycle {
					if time.Now().After(stop) {
						break
					}
				} else if n >= len(calls) {
					break
				}
				i := n % len(calls)
				sent := time.Now()
				status, body, err := post(ctx, client, base, calls[i])
				done := time.Now()
				mine = append(mine, sample{idx: i, latency: done.Sub(sent), done: done, status: status, body: body, err: err})
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}
