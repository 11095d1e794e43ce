package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/eval/kern"
)

// metric is one reported number. Metrics with json=false are printed but
// kept out of the result object, which carries only bounded metrics:
// failed_ratio is zero on a healthy run (the result's "failed" over
// "attempted" carries it anyway), and on a shared virtual machine tail
// latency follows the hypervisor's stalls, not dlsd: across ten runs in a
// busy hour chain-solo's p90 ranged from 3.6 to 7.8 ms, a spread no bound
// of 0.25 holds.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	json  bool
}

// e2eMetrics are the end-to-end metrics of an untraced phase. The
// host is a shared virtual machine whose speed swings by a third for
// seconds at a time, so each metric is a median over parts of the timed
// phase, and a few slow seconds do not move it: throughput_rps (closed
// loops) and cpu_ms_per_req over its one-second intervals, the latency
// percentiles over its chunks of at least chunkCalls calls. An open
// loop's throughput is its whole-phase count, the offered rate when dlsd
// keeps up.
func e2eMetrics(ph *phase) []metric {
	chunks := ph.latencies()
	var p50s, p99s []float64
	calls := 0
	for _, c := range chunks {
		p50s = append(p50s, quantile(c, 0.50))
		p99s = append(p99s, quantile(c, 0.99))
		calls += len(c)
	}
	latNote := fmt.Sprintf("%d calls, median over %d chunks of >= %d", calls, len(chunks), min(calls, chunkCalls))
	setup := make([]float64, len(ph.setup))
	for i, d := range ph.setup {
		setup[i] = d.Seconds()
	}
	secs := ph.elapsed.Seconds()
	answered := float64(ph.tally.answered)
	rps, cpu := answered/secs, float64(ph.cpu.Nanoseconds())/1e6/answered
	rpsNote := fmt.Sprintf("%d requests answered in %.2f s", ph.tally.answered, secs)
	cpuNote := fmt.Sprintf("dlsd user+sys %.3f s", ph.cpu.Seconds())
	if r, c := ph.intervals(); len(r) >= 3 && len(c) >= 3 {
		if !ph.w.open {
			rps = median(r)
			rpsNote += fmt.Sprintf(", median of %d one-second intervals", len(r))
		}
		cpu = median(c)
		cpuNote += fmt.Sprintf(", median of %d one-second intervals", len(c))
	}
	return []metric{
		{"setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups, exec to end of warm-up", len(setup)), true},
		{"throughput_rps", rps, "1/s", rpsNote, true},
		{"latency_p50_ms", median(p50s), "ms", latNote, true},
		{"latency_p99_ms", median(p99s), "ms", latNote, false},
		{"failed_ratio", float64(ph.tally.failed) / float64(ph.tally.attempted), "ratio", fmt.Sprintf("%d of %d requests", ph.tally.failed, ph.tally.attempted), false},
		{"cpu_ms_per_req", cpu, "ms", cpuNote, true},
		{"rss_peak_mb", ph.rssMB, "MB", "dlsd VmHWM", true},
	}
}

// intervals splits the timed phase at the CPU readings and returns, for
// each interval of at least half a second, the requests answered 2xx per
// second and dlsd's CPU ms per such request.
func (ph *phase) intervals() (rps, cpuPerReq []float64) {
	for k := 1; k < len(ph.ticks); k++ {
		a, b := ph.ticks[k-1], ph.ticks[k]
		dur := b.at.Sub(a.at)
		if dur < 500*time.Millisecond {
			continue
		}
		n := 0
		for _, s := range ph.samples {
			if s.err == nil && isOK(s.status) && !s.done.Before(a.at) && s.done.Before(b.at) {
				n += len(ph.w.timed[s.idx].reqs)
			}
		}
		rps = append(rps, float64(n)/dur.Seconds())
		if n > 0 {
			cpuPerReq = append(cpuPerReq, float64((b.cpu-a.cpu).Nanoseconds())/1e6/float64(n))
		}
	}
	return rps, cpuPerReq
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// stages returns the means and 99th percentiles, in ms, of the depth-0
// request stages of a traced phase.
func stages(ph *phase) (mean, p99 map[string]float64) {
	mean, p99 = map[string]float64{}, map[string]float64{}
	for _, s := range []string{"queue_wait", "window_wait", "solve"} {
		h := ph.scrape.hist("dlsd_stage_latency_seconds", `stage="`+s+`"`)
		mean[s], p99[s] = h.mean()*1e3, h.quantile(0.99)*1e3
	}
	return mean, p99
}

// meanLatency is the mean latency of the answered calls, in ms.
func (ph *phase) meanLatency() float64 {
	sum, n := 0.0, 0
	for _, c := range ph.latencies() {
		for _, x := range c {
			if !math.IsInf(x, 0) {
				sum += x
				n++
			}
		}
	}
	return sum / float64(n)
}

// layerMetrics combines the traced phase's /metrics deltas, the untraced
// phase's end-to-end numbers and the in-process layer timings into the
// per-layer metrics.
func layerMetrics(plain, traced *phase, v layerValues) []metric {
	d := traced.scrape
	mean, p99 := stages(traced)
	answered := float64(traced.tally.answered)
	hits, misses := d["dlsd_cache_hits_total"], d["dlsd_cache_misses_total"]
	plainE, tracedE := e2eMetrics(plain), e2eMetrics(traced)
	e2e := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.name == name {
				return m.value
			}
		}
		return math.NaN()
	}
	in := func(name, unit, note string) metric { return metric{name, v[name], unit, note, true} }
	return []metric{
		in("kern.chunk_ns", "ns", "FIFOChain+FIFODual+FIFOLambdaOK, 8 lanes, variant "+kern.Variant()),
		in("kern.chunk_flops", "flop", "computed from the loop bodies"),
		in("kern.chunk_bytes", "B", "computed from the columns touched"),
		in("eval.batch_lane_ns", "ns", "NewBatch/Add/Run/Schedule per lane, chain-batch groups"),
		in("eval.batch_certified_ratio", "ratio", "lanes whose chain certificate held"),
		in("eval.scenario_us", "us", "Session.Evaluate, auto mode"),
		in("eval.simplex_fallback_ratio", "ratio", "Session.Backend fallback"),
		in("eval.sweep_perm_ns", "ns", "NewSweep/Delta/Throughput per permutation"),
		in("eval.sweep_fallback_ratio", "ratio", "Sweep.Stats().Fallbacks per permutation"),
		in("lp.simplex_us", "us", "Problem.Solve on eval.ScenarioLP"),
		in("core.fifo_search_ms", "ms", "serial replay"),
		in("core.lifo_search_ms", "ms", "serial replay"),
		in("core.pair_search_ms", "ms", "serial replay, both port models"),
		in("core.affine_search_ms", "ms", "serial replay"),
		in("core.search_mix_ms", "ms", "serial replay, mean over the search mix"),
		in("core.pair_pruned_frac", "ratio", "pruned subtrees / (pruned + leaves)"),
		in("core.pair_leaves", "count", "leaves evaluated per pair search"),
		in("core.affine_pruned_frac", "ratio", "pruned half-lattices / (pruned + leaves)"),
		in("core.search_parallel_speedup", "ratio", "serial / one worker per CPU"),
		in("engine.solve_miss_us", "us", "Solver.Solve, cold"),
		in("engine.solve_hit_us", "us", "Solver.Solve, cached"),
		in("engine.batch_req_us", "us", "SolveBatch per request"),
		{"engine.prepass_ratio", d["dlsd_prepass_requests_total"] / answered, "ratio", "requests answered by the SoA prepass", true},
		{"engine.dedup_ratio", math.Max(0, 1-(hits+misses)/answered), "ratio", "requests answered by another request's solve", true},
		{"engine.cache_hit_ratio", hits / math.Max(1, hits+misses), "ratio", "result-cache hits / lookups", true},
		in("engine.allocs_per_req", "count", "SolveBatch, runtime.MemStats delta"),
		in("engine.bytes_per_req", "B", "SolveBatch, runtime.MemStats delta"),
		{"engine.solve_stage_ms", mean["solve"], "ms", "mean of the solve stage", true},
		{"batcher.queue_wait_ms", mean["queue_wait"], "ms", "stage mean", true},
		{"batcher.queue_wait_p99_ms", p99["queue_wait"], "ms", "stage p99, from buckets", true},
		{"batcher.window_wait_ms", mean["window_wait"], "ms", "stage mean", true},
		{"batcher.window_wait_p99_ms", p99["window_wait"], "ms", "stage p99, from buckets", true},
		{"batcher.window_fill", d.hist("dlsd_window_size", "").mean(), "count", "mean flushed window size", true},
		{"batcher.shed_ratio", d["dlsd_shed_total"] / float64(traced.tally.attempted), "ratio", "shed / attempted", true},
		in("batcher.submit_overhead_us", "us", "Submit minus Solve, cached request, one caller"),
		in("server.handler_us", "us", "ServeHTTP, window off, cached chain-solo bodies"),
		in("server.batch_handler_us_per_slot", "us", "ServeHTTP, window off, cached chain-batch bodies"),
		in("server.decode_us", "us", "json.Unmarshal into dls.Request"),
		in("server.encode_us", "us", "json.Marshal of server.SolveResponse"),
		{"server.residual_ms", traced.meanLatency() - mean["queue_wait"] - mean["window_wait"] - mean["solve"], "ms", "measured mean minus queue_wait+window_wait+solve", true},
		{"obs.trace_overhead_ratio", e2e(plainE, "throughput_rps") / e2e(tracedE, "throughput_rps"), "ratio", "untraced / traced throughput_rps", true},
		{"obs.trace_latency_ratio", e2e(tracedE, "latency_p50_ms") / e2e(plainE, "latency_p50_ms"), "ratio", "traced / untraced latency_p50_ms", true},
	}
}

// printMetrics prints a metric table.
func printMetrics(out io.Writer, title string, ms []metric, ph *phase) {
	fmt.Fprintf(out, "\n%s: seed-generated inputs, %s\n", title, shape(ph.w))
	for _, m := range ms {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, r := range ph.tally.reasons {
		fmt.Fprintf(out, "  FAILED: %s\n", r)
	}
}

// shape describes how a workload offers load.
func shape(w *workload) string {
	if w.open {
		return fmt.Sprintf("open loop, Poisson arrivals at %d/s, %d connections", chainSoloRate, conns)
	}
	if w.cycle {
		return fmt.Sprintf("closed loop, %d connections, %d-request batch bodies", conns, chainBatchSlots)
	}
	return fmt.Sprintf("closed loop, %d connections, fixed sequence of %d requests", conns, len(w.timed))
}

// printDecomposition prints the traced phase's stage split against the
// measured latency, and the search counters dlsd exported.
func printDecomposition(out io.Writer, name string, ph *phase, v layerValues) {
	mean, p99 := stages(ph)
	measured := ph.meanLatency()
	sum := mean["queue_wait"] + mean["window_wait"] + mean["solve"]
	fmt.Fprintf(out, "\ndecomposition (%s, traced, %d calls, %d requests):\n", name, len(ph.samples), ph.tally.answered)
	fmt.Fprintf(out, "  %-22s %10s %10s\n", "stage", "mean ms", "p99 ms")
	for _, s := range []string{"queue_wait", "window_wait", "solve"} {
		fmt.Fprintf(out, "  %-22s %10.4f %10.4f\n", s, mean[s], p99[s])
	}
	fmt.Fprintf(out, "  %-22s %10.4f\n", "sum of stages", sum)
	fmt.Fprintf(out, "  %-22s %10.4f\n", "server.residual_ms", measured-sum)
	fmt.Fprintf(out, "  %-22s %10.4f\n", "measured mean", measured)
	if ph.w.cycle {
		fmt.Fprintf(out, "  (stages are per batch slot; a call waits for the slowest of its %d slots)\n", chainBatchSlots)
	}
	if name == "search" && mean["solve"] > 0 {
		fmt.Fprintf(out, "  core.search_mix_ms / engine.solve_stage_ms = %.2f (serial replays against the served solve stage)\n",
			v["core.search_mix_ms"]/mean["solve"])
	}
	d := ph.scrape
	fmt.Fprintf(out, "  dlsd counters over the timed phase: windows %g, prepass requests %g, cache hits %g misses %g evictions %g, shed %g, degraded %g\n",
		d["dlsd_windows_total"], d["dlsd_prepass_requests_total"], d["dlsd_cache_hits_total"], d["dlsd_cache_misses_total"],
		d["dlsd_cache_evictions_total"], d["dlsd_shed_total"], d["dlsd_degraded_total"])
	fmt.Fprintf(out, "  pair search: nodes %g, subtrees pruned %g, leaves %g; affine search: nodes %g, pruned %g, leaves %g\n",
		d["dlsd_pair_search_nodes_expanded_total"], d["dlsd_pair_search_subtrees_pruned_total"], d["dlsd_pair_search_leaves_evaluated_total"],
		d["dlsd_affine_search_nodes_expanded_total"], d["dlsd_affine_search_subtrees_pruned_total"], d["dlsd_affine_search_leaves_evaluated_total"])
}

// predictions is the layer → end-to-end table: which end-to-end metric a
// change in each layer should move, on which workload, and where it must
// not; the last column names the layer metric printed beside it, as
// measured in this run. README.md carries the same table.
var predictions = [][5]string{
	{"kern.*", "throughput_rps", "chain-batch", "no change on chain-solo, search", "kern.chunk_ns"},
	{"eval.batch_*", "throughput_rps", "chain-batch", "no change on chain-solo, search", "eval.batch_lane_ns"},
	{"eval.sweep_*, eval.scenario_us", "throughput_rps, latency_p50_ms", "search", "no change on chain-solo", "eval.sweep_perm_ns"},
	{"lp.simplex_us", "latency_p99_ms", "search", "no change on chain-solo, chain-batch", "lp.simplex_us"},
	{"core.*", "throughput_rps, latency_p99_ms", "search", "no change on chain-solo, chain-batch", "core.search_mix_ms"},
	{"engine.solve_*, engine.cache_hit_ratio", "cpu_ms_per_req, latency_p50_ms", "chain-solo", "no change on search", "engine.solve_miss_us"},
	{"engine.batch_*, prepass, dedup", "cpu_ms_per_req, throughput_rps", "chain-batch", "no change on search", "engine.prepass_ratio"},
	{"batcher.window_wait_ms, submit_overhead", "latency_p50_ms", "chain-solo", "window_fill moves chain-batch", "batcher.window_wait_ms"},
	{"server.*", "latency_p50_ms, cpu_ms_per_req", "chain-solo", "amortised on chain-batch, invisible on search", "server.residual_ms"},
	{"obs.*", "none (guard)", "all", "-", "obs.trace_overhead_ratio"},
}

// printPredictions prints the prediction table with this run's value of
// each row's layer metric.
func printPredictions(out io.Writer, ms []metric) {
	value := map[string]metric{}
	for _, m := range ms {
		value[m.name] = m
	}
	fmt.Fprintf(out, "\nprediction: a change to the layer should move\n")
	fmt.Fprintf(out, "  %-40s %-31s %-12s %-46s %s\n", "layer metric", "end-to-end metric", "on", "elsewhere", "measured here")
	for _, p := range predictions {
		m := value[p[4]]
		fmt.Fprintf(out, "  %-40s %-31s %-12s %-46s %s = %.4g %s\n", p[0], p[1], p[2], p[3], m.name, m.value, m.unit)
	}
}

// record is the run record printed before the metrics: host, code, seed,
// dlsd flags, sample counts and, for the open loop, generator lateness.
type record struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Seconds    int           `json:"seconds"`
	Trace      bool          `json:"trace"`
	Commit     string        `json:"commit"`
	SourceHash string        `json:"source_sha256"`
	Host       hostInfo      `json:"host"`
	Shape      string        `json:"shape"`
	Phases     []phaseRecord `json:"phases"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kern       string `json:"kern_variant"`
}

type phaseRecord struct {
	Name         string    `json:"name"`
	DlsdFlags    string    `json:"dlsd_flags"`
	SetupS       []float64 `json:"setup_s"`
	Calls        int       `json:"calls"` // latency samples: one per HTTP call
	Requests     int       `json:"requests"`
	Answered     int       `json:"answered"`
	Failed       int       `json:"failed"`
	HostStealPct float64   `json:"host_steal_pct"`
	// Generator lateness of an open-loop phase, and the bound above which
	// the run is reported invalid.
	LateP99MS   *float64 `json:"generator_late_p99_ms,omitempty"`
	LateMaxMS   *float64 `json:"generator_late_max_ms,omitempty"`
	LateBoundMS *float64 `json:"generator_late_bound_ms,omitempty"`
}

func newRecord(o options, w *workload) *record {
	return &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: o.commit, SourceHash: sourceHash("."),
		Host: hostInfo{
			CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Kern: kern.Variant(),
		},
		Shape: shape(w),
	}
}

func (r *record) addPhase(name string, ph *phase) {
	pr := phaseRecord{
		Name: name, DlsdFlags: strings.Join(ph.flags, " "),
		Calls: len(ph.samples), Requests: ph.tally.attempted, Answered: ph.tally.answered, Failed: ph.tally.failed,
		HostStealPct: ph.stealPct,
	}
	for _, s := range ph.setup {
		pr.SetupS = append(pr.SetupS, s.Seconds())
	}
	if ph.w.open {
		p99 := float64(quantileDur(ph.late, 0.99)) / float64(time.Millisecond)
		mx := float64(quantileDur(ph.late, 1)) / float64(time.Millisecond)
		bound := float64(lateBound) / float64(time.Millisecond)
		pr.LateP99MS, pr.LateMaxMS, pr.LateBoundMS = &p99, &mx, &bound
	}
	r.Phases = append(r.Phases, pr)
}

func (r *record) print(out io.Writer) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(out, "record: %v\n", err)
		return
	}
	fmt.Fprintf(out, "record %s\n", b)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the Go sources and go.mod files under root, so a run
// record names the code it measured even in a checkout without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
