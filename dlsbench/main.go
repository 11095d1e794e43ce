// Command dlsbench is the repository's benchmark: it runs one of three
// seeded workloads against a real dlsd over loopback, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// breakdown) by name with units. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with run.sh, which compiles
// dlsd and this program from the checkout first:
//
//	bash dlsbench/run.sh --workload chain-solo --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads, the metric glossary
// and the layer predictions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// Exit codes besides 0.
const (
	exitIncorrect = 1 // an answer failed verification; the result says correct=false
	exitUsage     = 2 // bad flags or set-up failure; no result printed
	exitInvalid   = 3 // the generator fell behind its schedule; no result printed
)

// conns is the number of connections the generator keeps to dlsd: one per
// CPU, so generator and server share the machine evenly.
var conns = runtime.NumCPU()

// setups is how many times an end-to-end run sets dlsd up; setup_s is
// their median.
const setups = 5

// lateBound is the generator-lateness bound of an open-loop run: if the
// dispatcher's 99th-percentile wake-up lateness exceeds it, the run is
// reported invalid, because the offered load was not the stated one. The
// median lateness is about 0.1 ms, but on a shared virtual machine the
// host deschedules the whole guest for a few milliseconds now and then
// (a bare nanosleep loop with nothing else running shows a p99 of 3 to
// 8 ms at busy times); such stalls hold up dlsd as much as the generator.
// 20 ms, four mean gaps of chain-solo, marks a generator that really fell
// behind.
const lateBound = 20 * time.Millisecond

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dlsd     string
	out      string
	commit   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: chain-solo, chain-batch, search or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	fs.StringVar(&o.dlsd, "dlsd", ".bench_build/dlsd", "dlsd binary")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the run record")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if o.seconds < 2 || (trace != 0 && trace != 1) || !slices.Contains(append(workloadNames, "all"), o.workload) {
		fmt.Fprintln(stderr, "dlsbench: need -workload chain-solo|chain-batch|search|all, -seconds >= 2 and -trace 0|1")
		return exitUsage
	}
	if _, err := os.Stat(o.dlsd); err != nil {
		fmt.Fprintf(stderr, "dlsbench: dlsd binary: %v\n", err)
		return exitUsage
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAll()

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		res, err := runWorkload(ctx, o, name, stdout)
		if err != nil {
			var inv invalidRun
			if errors.As(err, &inv) {
				fmt.Fprintf(stderr, "dlsbench: %s: run invalid: %v\n", name, err)
				return exitInvalid
			}
			fmt.Fprintf(stderr, "dlsbench: %s: %v\n", name, err)
			return exitUsage
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "dlsbench: %v\n", err)
		return exitUsage
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return exitIncorrect
	}
	return 0
}

// invalidRun marks a run whose numbers cannot be trusted.
type invalidRun struct{ msg string }

func (e invalidRun) Error() string { return e.msg }

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in the mode the options select and prints
// its report.
func runWorkload(ctx context.Context, o options, name string, out io.Writer) (*result, error) {
	seconds := o.seconds
	if o.trace {
		// The traced run measures twice, untraced then traced, so each
		// phase gets half the time.
		seconds = max(1, o.seconds/2)
	}
	w, err := generate(name, o.seed, seconds)
	if err != nil {
		return nil, err
	}
	rec := newRecord(o, w)
	if o.trace {
		return runTraced(ctx, o, w, rec, out)
	}
	ph, err := measure(ctx, o, w, false, setups, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	rec.addPhase("timed", ph)
	rec.print(out)
	if err := ph.validity(); err != nil {
		return nil, err
	}
	ms := e2eMetrics(ph)
	printMetrics(out, name, ms, ph)
	return ph.result(ms), nil
}

// runTraced is the per-layer run: an untraced phase and a traced phase of
// the workload against fresh dlsd processes, then timed calls into each
// layer's public functions.
func runTraced(ctx context.Context, o options, w *workload, rec *record, out io.Writer) (*result, error) {
	spans := newSpans(w.name, o.seed)
	d := time.Duration(max(1, o.seconds/2)) * time.Second
	root := spans.start("traced-run", 0)
	s := spans.start("phase.untraced", root)
	plain, err := measure(ctx, o, w, false, 1, d)
	spans.end(s)
	if err != nil {
		return nil, err
	}
	s = spans.start("phase.traced", root)
	traced, err := measure(ctx, o, w, true, 1, d)
	spans.end(s)
	if err != nil {
		return nil, err
	}
	rec.addPhase("untraced", plain)
	rec.addPhase("traced", traced)
	rec.print(out)
	for _, ph := range []*phase{plain, traced} {
		if err := ph.validity(); err != nil {
			return nil, err
		}
	}
	layers, err := measureLayers(ctx, w.name, o.seed, spans, root)
	if err != nil {
		return nil, err
	}
	spans.end(root)
	ms := layerMetrics(plain, traced, layers)
	printDecomposition(out, w.name, traced, layers)
	printMetrics(out, w.name+" (per layer)", ms, traced)
	printPredictions(out, ms)
	path, err := spans.write(o.out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans.list), path)
	res := traced.result(ms)
	res.Attempted += plain.tally.attempted
	res.Failed += plain.tally.failed
	res.Correct = res.Correct && plain.tally.failed == 0
	return res, nil
}

// phase is one measured run of a workload against one dlsd.
type phase struct {
	w       *workload
	flags   []string        // dlsd flags beyond -addr; every other flag keeps its default
	setup   []time.Duration // one per set-up, exec to end of warm-up
	elapsed time.Duration
	samples []sample
	late    []time.Duration // open loop only
	ticks   []cpuTick       // dlsd CPU time, read every second of the timed phase
	cpu     time.Duration
	rssMB   float64
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests during the timed phase.
	stealPct float64
	scrape   metrics // traced phases: /metrics delta over the timed phase
	tally    tally
}

// measure sets dlsd up n times (exec, /healthz, warm-up), keeps the last
// one for the timed phase, then stops it and verifies every answer.
func measure(ctx context.Context, o options, w *workload, traced bool, n int, d time.Duration) (*phase, error) {
	ph := &phase{w: w, flags: []string{fmt.Sprintf("-trace=%t", traced)}}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	var srv *dlsd
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startDlsd(ctx, o.dlsd, ph.flags); err != nil {
			return nil, err
		}
		warm := closedLoop(ctx, client, srv.base, w.warm, conns, time.Now(), 0, false)
		ph.setup = append(ph.setup, time.Since(t0))
		for _, s := range warm {
			if s.err != nil || !isOK(s.status) {
				srv.stop()
				return nil, fmt.Errorf("warm-up call failed: status %d, %v", s.status, s.err)
			}
		}
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	var before metrics
	var err error
	if traced {
		if before, err = srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	stopCPU, err := sampleCPU(pid, time.Second)
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if w.open {
		ph.samples, ph.late = openLoop(ctx, client, srv.base, w.timed, w.due, conns, start)
	} else {
		ph.samples = closedLoop(ctx, client, srv.base, w.timed, conns, start, d, w.cycle)
	}
	ph.elapsed = time.Since(start)
	if ph.ticks, err = stopCPU(); err != nil {
		return nil, err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	ph.stealPct = 100 * float64(steal1-steal0) / float64(max(1, total1-total0))
	ph.cpu = ph.ticks[len(ph.ticks)-1].cpu - ph.ticks[0].cpu
	if ph.rssMB, err = peakRSS(pid); err != nil {
		return nil, err
	}
	if traced {
		after, err := srv.scrape(ctx)
		if err != nil {
			return nil, err
		}
		ph.scrape = after.sub(before)
	}
	srv.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	budget := resolveBudget(w.name)
	answers := verify(w.timed, ph.samples, o.seed, budget, &ph.tally)
	if err := resolveSample(ctx, answers, budget, o.seed, &ph.tally); err != nil {
		return nil, err
	}
	return ph, nil
}

// resolveBudget is how many answers a phase re-solves independently: the
// search workload's re-solves (a flat affine search is ~100 ms) are the
// dear ones.
func resolveBudget(name string) int {
	if name == "search" {
		return 30
	}
	return 200
}

// validity reports an open-loop run whose generator fell behind.
func (ph *phase) validity() error {
	if !ph.w.open {
		return nil
	}
	p99 := quantileDur(ph.late, 0.99)
	if p99 > lateBound {
		return invalidRun{fmt.Sprintf("generator lateness p99 %v exceeds the %v bound", p99, lateBound)}
	}
	return nil
}

// chunkCalls is the least number of calls in a latency chunk: enough to
// leave ten samples beyond the 99th percentile.
const chunkCalls = 1000

// latencies returns the per-call latencies in ms, in completion order,
// split into consecutive chunks of at least chunkCalls calls (one chunk
// when there are fewer), each sorted. A failed call reads as +Inf, since
// it missed any latency limit.
func (ph *phase) latencies() [][]float64 {
	order := slices.Clone(ph.samples)
	slices.SortFunc(order, func(a, b sample) int { return a.done.Compare(b.done) })
	k := max(1, len(order)/chunkCalls)
	chunks := make([][]float64, k)
	for i, s := range order {
		ms := math.Inf(1)
		if s.err == nil && isOK(s.status) {
			ms = float64(s.latency) / float64(time.Millisecond)
		}
		c := i * k / len(order)
		chunks[c] = append(chunks[c], ms)
	}
	for _, c := range chunks {
		slices.Sort(c)
	}
	return chunks
}

// result builds the JSON result of a phase with the given metrics.
func (ph *phase) result(ms []metric) *result {
	r := &result{Correct: ph.tally.failed == 0, Attempted: ph.tally.attempted, Failed: ph.tally.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		if !m.json {
			continue
		}
		r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return r
}

// quantile interpolates the q-quantile of ascending values linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	if frac == 0 {
		return sorted[i]
	}
	if math.IsInf(sorted[i+1], 1) {
		return sorted[i+1] // a failed call past the rank: the quantile missed too
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}
