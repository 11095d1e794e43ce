// Command dlsload is a closed-loop load generator for dlsd: a pool of
// workers drives POST /v1/solve at a target rate (or flat out), over a
// generated mix of platforms and strategies, and reports throughput,
// status-code counts, latency percentiles and the server's micro-batching
// counters (scraped from /metrics before and after the run).
//
// Requests travel through the fleet-aware resilience client: -url takes
// a comma-separated replica list, 429s are retried after their
// Retry-After, transient 5xx/transport faults are retried with capped
// jittered backoff, and per-replica circuit breakers short-circuit dead
// replicas until a half-open probe succeeds. The report classifies every
// logical request as ok / shed / failed / injected (a final fault the
// server marked with X-Chaos) and derives availability = ok/(ok+failed),
// chaos-injected faults excluded.
//
//	dlsload -url http://localhost:8080,http://localhost:8081 -duration 5s
//
// CI uses it as a smoke gate: -fail-on-error fails the run on any
// non-2xx/non-429 response, -min-batched-windows fails it when the
// admission window never coalesced traffic, -min-rps gates throughput,
// -min-availability gates the non-injected success rate under chaos,
// -min-breaker-cycles demands completed open → half-open → close breaker
// recoveries, and -json writes the report for the benchmark artifact.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dls"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Report is the machine-readable outcome of one run (the -json artifact).
type Report struct {
	URL         string   `json:"url"`
	Replicas    []string `json:"replicas"`
	Mix         string   `json:"mix"`
	Seed        int64    `json:"seed"`
	SLOClass    string   `json:"slo_class,omitempty"`
	Concurrency int      `json:"concurrency"`
	TargetRPS   float64  `json:"target_rps,omitempty"`
	Duration    float64  `json:"duration_seconds"`
	Requests    uint64   `json:"requests"`
	RPS         float64  `json:"rps"`
	// Codes counts final status codes — after retries, not per attempt.
	Codes     map[string]uint64 `json:"codes"`
	Transport uint64            `json:"transport_errors"`
	// OK (2xx) / Shed (final 429) / Failed (final 5xx or transport
	// error) / Injected (final fault the server stamped with X-Chaos)
	// partition Requests. Availability is ok/(ok+failed): shedding is
	// backpressure and injected faults are the experiment, not outages.
	OK           uint64             `json:"ok"`
	Shed         uint64             `json:"shed"`
	Failed       uint64             `json:"failed"`
	Injected     uint64             `json:"injected"`
	Availability float64            `json:"availability"`
	LatencyMS    map[string]float64 `json:"latency_ms"`
	Resilience   *resilience.Stats  `json:"resilience,omitempty"`
	Server       map[string]float64 `json:"server_metrics_delta,omitempty"`
	// SlowTraces lists the trace ids of the slowest percentile of traced
	// responses (the server stamps X-Trace-Id when -trace is on), ready to
	// be looked up under /debug/requests on the replica that served them.
	SlowTraces []SlowTrace `json:"slow_traces,omitempty"`
}

// SlowTrace points one slow response at its server-side trace.
type SlowTrace struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
	Status    int     `json:"status"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlsload", flag.ContinueOnError)
	var (
		urlFlag     = fs.String("url", "http://127.0.0.1:8080", "dlsd base URL(s), comma-separated for a fleet")
		duration    = fs.Duration("duration", 5*time.Second, "run length")
		concurrency = fs.Int("concurrency", 64, "closed-loop workers")
		rps         = fs.Float64("rps", 0, "target request rate; 0 = flat out")
		p           = fs.Int("p", 6, "workers per generated platform")
		platforms   = fs.Int("platforms", 32, "distinct platforms in the pool")
		mix         = fs.String("mix", "chain", "workload mix: chain | mixed | search")
		seed        = fs.Int64("seed", 1, "workload seed")
		sloClass    = fs.String("slo-class", "", "X-SLO-Class header stamped on every request")
		retries     = fs.Int("retries", 3, "retry attempts per request beyond the first (negative disables)")
		reqTimeout  = fs.Duration("request-timeout", 10*time.Second, "per-logical-request budget (attempts + backoffs)")
		brkThresh   = fs.Int("breaker-threshold", 5, "consecutive failures that open a replica's breaker (negative disables)")
		brkCooldown = fs.Duration("breaker-cooldown", 500*time.Millisecond, "breaker open -> half-open cooldown")
		capture     = fs.String("capture", "", "write the sent arrivals as a JSONL trace (replayable by dlssim -scenario trace)")
		jsonOut     = fs.String("json", "", "write the report as JSON to this file")
		failOnError = fs.Bool("fail-on-error", false, "exit non-zero on any transport error or non-2xx/non-429 response")
		minBatched  = fs.Uint64("min-batched-windows", 0, "exit non-zero when fewer windows coalesced >= 2 requests")
		minRPS      = fs.Float64("min-rps", 0, "exit non-zero below this achieved request rate")
		minAvail    = fs.Float64("min-availability", 0, "exit non-zero below this ok/(ok+failed) rate (chaos-injected faults excluded)")
		minCycles   = fs.Uint64("min-breaker-cycles", 0, "exit non-zero below this many completed breaker open->half-open->close cycles")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var replicas []string
	for _, u := range strings.Split(*urlFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicas = append(replicas, strings.TrimSuffix(u, "/"))
		}
	}
	if len(replicas) == 0 {
		return fmt.Errorf("dlsload: -url lists no replicas")
	}

	pool, err := workload(rand.New(rand.NewSource(*seed)), *mix, *p, *platforms)
	if err != nil {
		return err
	}

	client, err := resilience.New(resilience.Config{
		Replicas:         replicas,
		MaxRetries:       *retries,
		Seed:             *seed,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		AttemptTimeout:   *reqTimeout,
	})
	if err != nil {
		return err
	}

	scraper := &http.Client{Timeout: 30 * time.Second}
	before, err := scrapeFleet(scraper, replicas)
	if err != nil {
		return fmt.Errorf("dlsload: scraping /metrics before the run: %w", err)
	}

	header := http.Header{}
	header.Set("Content-Type", "application/json")
	if *sloClass != "" {
		header.Set("X-SLO-Class", *sloClass)
	}

	var (
		total, transport         atomic.Uint64
		ok, shed, fail, injected atomic.Uint64
		next                     atomic.Int64
		codes                    sync.Map // status code -> *atomic.Uint64
		wg                       sync.WaitGroup
	)
	latencies := make([][]float64, *concurrency)
	traced := make([][]SlowTrace, *concurrency)
	captured := make([][]sim.TraceEvent, *concurrency)
	start := time.Now()
	stop := start.Add(*duration)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w) + 1))
			for time.Now().Before(stop) {
				if *rps > 0 {
					// Schedule request n at start + n/rps; sleeping to the
					// slot paces the whole pool without a central ticker.
					n := next.Add(1) - 1
					at := start.Add(time.Duration(float64(n) / *rps * float64(time.Second)))
					if d := time.Until(at); d > 0 {
						time.Sleep(d)
					}
					if !time.Now().Before(stop) {
						return
					}
				}
				entry := pool[rng.Intn(len(pool))]
				begin := time.Now()
				if *capture != "" {
					captured[w] = append(captured[w], sim.TraceEvent{
						TNanos:   begin.Sub(start).Nanoseconds(),
						Class:    *sloClass,
						Kind:     entry.kind,
						Platform: entry.pb,
					})
				}
				ctx, cancel := context.WithTimeout(context.Background(), *reqTimeout)
				resp, err := client.Do(ctx, http.MethodPost, "/v1/solve", entry.body, header)
				lat := time.Since(begin)
				total.Add(1)
				if err != nil {
					cancel()
					transport.Add(1)
					fail.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
				resp.Body.Close()
				cancel()
				c, found := codes.Load(resp.StatusCode)
				if !found {
					c, _ = codes.LoadOrStore(resp.StatusCode, new(atomic.Uint64))
				}
				c.(*atomic.Uint64).Add(1)
				if tid := resp.Header.Get(server.TraceIDHeader); tid != "" {
					traced[w] = append(traced[w], SlowTrace{TraceID: tid, LatencyMS: lat.Seconds() * 1e3, Status: resp.StatusCode})
				}
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					ok.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				case resp.Header.Get(server.ChaosHeader) != "":
					injected.Add(1)
				default:
					fail.Add(1)
				}
				latencies[w] = append(latencies[w], lat.Seconds())
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := scrapeFleet(scraper, replicas)
	if err != nil {
		return fmt.Errorf("dlsload: scraping /metrics after the run: %w", err)
	}

	rstats := client.Stats()
	report := Report{
		URL:         *urlFlag,
		Replicas:    replicas,
		Mix:         *mix,
		Seed:        *seed,
		SLOClass:    *sloClass,
		Concurrency: *concurrency,
		TargetRPS:   *rps,
		Duration:    elapsed.Seconds(),
		Requests:    total.Load(),
		RPS:         float64(total.Load()) / elapsed.Seconds(),
		Codes:       map[string]uint64{},
		Transport:   transport.Load(),
		OK:          ok.Load(),
		Shed:        shed.Load(),
		Failed:      fail.Load(),
		Injected:    injected.Load(),
		LatencyMS:   map[string]float64{},
		Resilience:  &rstats,
		Server:      map[string]float64{},
	}
	if denom := report.OK + report.Failed; denom > 0 {
		report.Availability = float64(report.OK) / float64(denom)
	}
	codes.Range(func(k, v any) bool {
		report.Codes[strconv.Itoa(k.(int))] = v.(*atomic.Uint64).Load()
		return true
	})
	var all []float64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"max", 1}} {
		report.LatencyMS[q.name] = percentile(all, q.q) * 1e3
	}
	for key, b := range before {
		if a, found := after[key]; found && a >= b {
			report.Server[key] = a - b
		}
	}
	report.SlowTraces = slowTraces(traced, percentile(all, 0.99)*1e3)

	fmt.Fprintf(out, "dlsload: %d requests in %.2fs = %.0f req/s (mix=%s, concurrency=%d, replicas=%d)\n",
		report.Requests, report.Duration, report.RPS, report.Mix, report.Concurrency, len(replicas))
	fmt.Fprintf(out, "  ok=%d shed=%d failed=%d injected=%d availability=%.4f\n",
		report.OK, report.Shed, report.Failed, report.Injected, report.Availability)
	fmt.Fprintf(out, "  codes: %v, transport errors: %d\n", report.Codes, report.Transport)
	fmt.Fprintf(out, "  retries=%d backoffs=%d retry_after=%d short_circuits=%d breaker open/half/close=%d/%d/%d\n",
		rstats.Retries, rstats.Backoffs, rstats.RetryAfterHonored, rstats.ShortCircuits,
		rstats.BreakerOpens, rstats.BreakerHalfOpens, rstats.BreakerCloses)
	fmt.Fprintf(out, "  latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
		report.LatencyMS["p50"], report.LatencyMS["p90"], report.LatencyMS["p99"], report.LatencyMS["max"])
	if n := len(report.SlowTraces); n > 0 {
		fmt.Fprintf(out, "  slow traces: %d at/above p99 (slowest %s, %.3fms) — look them up under /debug/requests\n",
			n, report.SlowTraces[0].TraceID, report.SlowTraces[0].LatencyMS)
	}
	fmt.Fprintf(out, "  server: windows=%.0f batched=%.0f batched_requests=%.0f prepass=%.0f shed=%.0f cache_hits=%.0f degraded=%.0f\n",
		report.Server["dlsd_windows_total"], report.Server["dlsd_batched_windows_total"],
		report.Server["dlsd_batched_requests_total"], report.Server["dlsd_prepass_requests_total"],
		report.Server["dlsd_shed_total"], report.Server["dlsd_cache_hits_total"],
		report.Server["dlsd_degraded_total"])

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *capture != "" {
		if err := writeCapture(*capture, captured); err != nil {
			return fmt.Errorf("dlsload: writing capture: %w", err)
		}
	}

	if *failOnError {
		if report.Transport > 0 {
			return fmt.Errorf("dlsload: %d transport errors", report.Transport)
		}
		for code, n := range report.Codes {
			if !strings.HasPrefix(code, "2") && code != "429" {
				return fmt.Errorf("dlsload: %d responses with status %s", n, code)
			}
		}
	}
	if *minBatched > 0 && report.Server["dlsd_batched_windows_total"] < float64(*minBatched) {
		return fmt.Errorf("dlsload: only %.0f batched windows, want >= %d: micro-batching is not firing",
			report.Server["dlsd_batched_windows_total"], *minBatched)
	}
	if *minRPS > 0 && report.RPS < *minRPS {
		return fmt.Errorf("dlsload: %.0f req/s under the %.0f floor", report.RPS, *minRPS)
	}
	if *minAvail > 0 && report.Availability < *minAvail {
		return fmt.Errorf("dlsload: availability %.4f under the %.4f floor (%d ok, %d failed)",
			report.Availability, *minAvail, report.OK, report.Failed)
	}
	if *minCycles > 0 && rstats.BreakerCloses < *minCycles {
		return fmt.Errorf("dlsload: %d completed breaker recovery cycles, want >= %d",
			rstats.BreakerCloses, *minCycles)
	}
	return nil
}

// poolEntry is one pre-marshalled request with the capture metadata the
// trace format carries (pool platform index, cost kind).
type poolEntry struct {
	body []byte
	pb   int
	kind string
}

// workload pre-marshals the request pool: chain-shaped strategies (the
// micro-batcher's best case), a broader mix including exhaustive searches
// and explicit scenarios, or a search-only pool of factorial-order
// requests on platforms without a common z, whose solves are expensive
// enough to be solver-bound — the workload where window deduplication
// (thundering-herd collapse) shows up directly in throughput.
func workload(rng *rand.Rand, mix string, p, platforms int) ([]poolEntry, error) {
	var reqs []dls.Request
	var kinds []string
	var pbs []int
	add := func(pb int, kind string, req dls.Request) {
		reqs = append(reqs, req)
		kinds = append(kinds, kind)
		pbs = append(pbs, pb)
	}
	for i := 0; i < platforms; i++ {
		plat := dls.RandomSpeeds(rng, p, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		switch mix {
		case "chain":
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyIncC, Load: 1000})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyIncW})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyDecC})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyLIFO})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyFIFOOrder, Send: plat.ByW()})
		case "mixed":
			send := plat.ByC()
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyIncC, Load: 1000})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyLIFO})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyFIFO})
			add(i, "search", dls.Request{Platform: plat, Strategy: dls.StrategyFIFOExhaustive})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyScenario, Send: send, Return: send.Reverse()})
			add(i, "chain", dls.Request{Platform: plat, Strategy: dls.StrategyFIFO, Model: dls.TwoPort})
		case "search":
			// Return speeds drawn independently of forward speeds: the
			// platform has no common z, so the order searches run the p!
			// sweep rather than answering from the theorems.
			for k := range plat.Workers {
				plat.Workers[k].D *= float64(1+rng.Intn(10)) / float64(1+rng.Intn(10))
			}
			add(i, "search", dls.Request{Platform: plat, Strategy: dls.StrategyFIFOExhaustive})
			add(i, "search", dls.Request{Platform: plat, Strategy: dls.StrategyLIFOExhaustive})
		default:
			return nil, fmt.Errorf("dlsload: unknown mix %q (chain | mixed | search)", mix)
		}
	}
	pool := make([]poolEntry, len(reqs))
	for i, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i] = poolEntry{body: data, pb: pbs[i], kind: kinds[i]}
	}
	return pool, nil
}

// writeCapture merges the per-worker arrival records into one
// time-ordered JSONL trace (the dlssim replay format).
func writeCapture(path string, captured [][]sim.TraceEvent) error {
	var all []sim.TraceEvent
	for _, evs := range captured {
		all = append(all, evs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TNanos < all[j].TNanos })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteTrace(f, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slowTraces merges the per-worker traced-response samples and keeps the
// slowest percentile: everything at or above the p99 latency, slowest
// first, capped at 16 entries so the report stays small.
func slowTraces(traced [][]SlowTrace, p99MS float64) []SlowTrace {
	var all []SlowTrace
	for _, ts := range traced {
		for _, t := range ts {
			if t.LatencyMS >= p99MS {
				all = append(all, t)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].LatencyMS > all[j].LatencyMS })
	if len(all) > 16 {
		all = all[:16]
	}
	return all
}

// percentile reads the q-quantile from ascending samples (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scrapeFleet sums each replica's /metrics samples per key. Replicas
// that fail to answer (down, restarting) are skipped; only a fully dark
// fleet is an error, so a chaos blackout mid-scrape doesn't kill the
// run's bookkeeping.
func scrapeFleet(client *http.Client, replicas []string) (map[string]float64, error) {
	out := make(map[string]float64)
	reached := 0
	var lastErr error
	for _, base := range replicas {
		m, err := scrapeMetrics(client, base)
		if err != nil {
			lastErr = err
			continue
		}
		reached++
		for k, v := range m {
			out[k] += v
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("no replica answered /metrics: %w", lastErr)
	}
	return out, nil
}

// scrapeMetrics reads the untyped counter/gauge samples of a Prometheus
// text page into a map (histogram series are skipped).
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}
