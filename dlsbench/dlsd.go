package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dlsd is one running dlsd process, started by the benchmark over
// loopback.
type dlsd struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been waited for
}

// running tracks every dlsd the benchmark started, so an early exit or a
// signal can stop them all.
var running struct {
	sync.Mutex
	procs map[*dlsd]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDlsd execs bin with the given flags on a free loopback port and
// returns once /healthz answers.
func startDlsd(ctx context.Context, bin string, flags []string) (*dlsd, error) {
	addr, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	d := &dlsd{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dlsd: %w", err)
	}
	running.Lock()
	if running.procs == nil {
		running.procs = make(map[*dlsd]bool)
	}
	running.procs[d] = true
	running.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState by stop
		close(d.done)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200.
func (d *dlsd) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("dlsd exited during start-up: %s", strings.TrimSpace(d.stderr.String()))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dlsd did not answer /healthz within 20s")
}

// stop drains dlsd with SIGTERM, kills it if the drain takes over 15s,
// and returns once the process has exited.
func (d *dlsd) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	running.Lock()
	delete(running.procs, d)
	running.Unlock()
}

// stopAll stops every dlsd still running.
func stopAll() {
	running.Lock()
	procs := make([]*dlsd, 0, len(running.procs))
	for d := range running.procs {
		procs = append(procs, d)
	}
	running.Unlock()
	for _, d := range procs {
		d.stop()
	}
}

// cpuTime returns the process's CPU time so far. It sums the per-thread
// run time of /proc/<pid>/task/*/schedstat, which has nanosecond
// resolution, and falls back to utime+stime of /proc/<pid>/stat (10 ms
// ticks) where schedstat is missing.
func cpuTime(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if len(tasks) > 0 {
		var total time.Duration
		for _, t := range tasks {
			data, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			fields := strings.Fields(string(data))
			if len(fields) == 0 {
				continue
			}
			ns, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", t, err)
			}
			total += time.Duration(ns)
		}
		return total, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// cpuTick is one reading of a process's CPU time.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the CPU time of pid now and then every interval until
// the returned stop is called, which takes a last reading and returns
// them all.
func sampleCPU(pid int, every time.Duration) (stop func() ([]cpuTick, error), err error) {
	read := func() (cpuTick, error) {
		cpu, err := cpuTime(pid)
		return cpuTick{time.Now(), cpu}, err
	}
	first, err := read()
	if err != nil {
		return nil, err
	}
	ticks := []cpuTick{first}
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				tk, err := read()
				ticks = append(ticks, tk)
				done <- err
				return
			case <-t.C:
				tk, err := read()
				if err != nil {
					<-quit
					done <- err
					return
				}
				ticks = append(ticks, tk)
			}
		}
	}()
	return func() ([]cpuTick, error) {
		close(quit)
		err := <-done
		return ticks, err
	}, nil
}

// hostTicks returns the machine's steal and total CPU ticks from the cpu
// line of /proc/stat: the share of time the hypervisor ran someone else.
func hostTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS returns VmHWM of the process in MB (10^6 bytes).
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// metrics is one scrape of /metrics: every sample keyed by its series
// name with labels, as printed (e.g. `dlsd_stage_latency_seconds_sum{stage="solve"}`).
type metrics map[string]float64

// scrape reads dlsd's /metrics page.
func (d *dlsd) scrape(ctx context.Context) (metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads a Prometheus text page.
func parseMetrics(r io.Reader) (metrics, error) {
	out := make(metrics)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns the per-series difference after − before.
func (m metrics) sub(before metrics) metrics {
	out := make(metrics, len(m))
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// histogram is one histogram series of a scrape: cumulative bucket counts
// by upper bound, plus sum and count.
type histogram struct {
	bounds []float64 // ascending, +Inf last
	counts []float64 // cumulative
	sum    float64
	count  float64
}

// hist extracts the histogram `name` whose label set is labels (e.g.
// `stage="solve"`, or "" for an unlabelled series).
func (m metrics) hist(name, labels string) histogram {
	h := histogram{sum: m[seriesKey(name+"_sum", labels)], count: m[seriesKey(name+"_count", labels)]}
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok || !strings.HasPrefix(rest, `le="`) {
			continue
		}
		s := strings.TrimSuffix(strings.TrimPrefix(rest, `le="`), `"}`)
		le, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.counts = append(h.counts, b.n)
	}
	return h
}

func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// mean returns sum/count, 0 for an empty histogram.
func (h histogram) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates the q-quantile linearly inside its bucket; a
// quantile in the +Inf bucket reads as the last finite bound.
func (h histogram) quantile(q float64) float64 {
	if h.count <= 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, le := range h.bounds {
		if h.counts[i] >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			span := h.counts[i] - prev
			if span <= 0 {
				return le
			}
			return lo + (le-lo)*(rank-prev)/span
		}
		lo, prev = le, h.counts[i]
	}
	return lo
}
