// Command dlsd serves the scheduling engine over HTTP: POST /v1/solve and
// /v1/solve/batch front a shared dls.Solver behind an admission-window
// micro-batcher (concurrent requests coalesce into SolveBatch calls and
// the SoA chain prepass), with load shedding, per-request deadlines via
// the X-Timeout header, Prometheus metrics on /metrics, request tracing
// behind /debug/requests and graceful drain on SIGINT/SIGTERM.
//
//	dlsd -addr :8080 -window 2ms -window-size 64 -cache 4096
//
// Tracing is on by default: every response carries an X-Trace-Id header,
// GET /debug/requests lists recent and slowest-per-route traces, and
// /metrics exposes per-stage latency histograms. -debug-addr starts a
// second listener with net/http/pprof (off by default; pair with
// `dlsexp -profile` for offline solver profiles).
//
// Drive it with cmd/dlsload, or by hand:
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "platform": {"workers": [
//	    {"c": 0.05, "w": 0.40, "d": 0.025},
//	    {"c": 0.10, "w": 0.25, "d": 0.050}
//	  ]},
//	  "strategy": "fifo", "load": 1000
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/dls"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("dlsd exiting", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from -log-format / -log-level.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("dlsd: invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("dlsd: invalid -log-format %q: want json or text", format)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dlsd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		window      = fs.Duration("window", 2*time.Millisecond, "admission window while every drain worker is busy (an idle worker takes a window at once); 0 disables micro-batching")
		windowSize  = fs.Int("window-size", 64, "flush a window early at this many requests")
		queueCap    = fs.Int("queue", 1024, "admission queue bound; requests beyond it are shed with 429")
		workers     = fs.Int("workers", 2, "windows solved concurrently")
		retryAfter  = fs.Duration("retry-after", 50*time.Millisecond, "advisory Retry-After on 429")
		cacheSize   = fs.Int("cache", 4096, "LRU result-cache capacity; 0 disables caching")
		parallelism = fs.Int("parallelism", runtime.GOMAXPROCS(0), "solver worker-pool size")
		timeout     = fs.Duration("solve-timeout", 30*time.Second, "per-solve deadline; 0 for none")
		drain       = fs.Duration("drain", 10*time.Second, "shutdown drain budget")
		adaptive    = fs.Bool("adaptive", false, "adaptive SLO-aware admission (window/window-size become the base)")
		sloClasses  = fs.String("slo-classes", "", "SLO classes as name=deadline:priority,... (default: tight/standard/batch)")
		degrade     = fs.Bool("degrade", true, "degrade deadline-busting exhaustive searches to the best closed-form heuristic")

		trace        = fs.Bool("trace", true, "per-request tracing: X-Trace-Id, /debug/requests, per-stage histograms on /metrics")
		traceRing    = fs.Int("trace-ring", 256, "recent traces kept for /debug/requests")
		traceSlowest = fs.Int("trace-slowest", 8, "slowest exemplar traces kept per route")
		debugAddr    = fs.String("debug-addr", "", "separate listener for /debug/pprof/* (empty = off)")
		logFormat    = fs.String("log-format", "text", "log format: text or json")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn, error (debug logs every request)")

		chaosSeed      = fs.Int64("chaos-seed", 1, "seed for the fault-injection RNG")
		chaosError     = fs.Float64("chaos-error", 0, "probability of an injected 503 per data-plane request")
		chaosLatency   = fs.Float64("chaos-latency", 0, "probability of injected latency per data-plane request")
		chaosLatencyD  = fs.Duration("chaos-latency-ms", 20*time.Millisecond, "injected latency duration")
		chaosDrop      = fs.Float64("chaos-drop", 0, "probability of an injected connection drop per data-plane request")
		chaosSlow      = fs.Float64("chaos-slow", 0, "probability of a slow-loris body read per data-plane request")
		chaosDownEvery = fs.Duration("chaos-down-every", 0, "blackout period: every this often the data plane goes dark")
		chaosDownFor   = fs.Duration("chaos-down-for", 0, "blackout length within each -chaos-down-every period")
		chaosCrash     = fs.Int64("chaos-crash-after", 0, "exit(1) after this many data-plane requests (exercises supervisors)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	lg, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(lg)

	opts := []dls.Option{dls.WithParallelism(*parallelism)}
	if *degrade {
		opts = append(opts, dls.WithDegradation())
	}
	if *cacheSize > 0 {
		opts = append(opts, dls.WithCache(*cacheSize))
	}
	if *timeout > 0 {
		opts = append(opts, dls.WithTimeout(*timeout))
	}
	solver, err := dls.NewSolver(opts...)
	if err != nil {
		return err
	}
	scfg := server.Config{
		Solver:        solver,
		Window:        *window,
		NoBatchWindow: *window == 0,
		WindowSize:    *windowSize,
		QueueCap:      *queueCap,
		Workers:       *workers,
		RetryAfter:    *retryAfter,
		Adaptive:      *adaptive,
		Trace:         *trace,
		TraceRing:     *traceRing,
		TraceSlowest:  *traceSlowest,
		Log:           lg,
	}
	if *sloClasses != "" {
		if scfg.Classes, err = dls.ParseSLOClasses(*sloClasses); err != nil {
			return err
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}

	var handler http.Handler = srv
	ccfg := server.ChaosConfig{
		Seed:        *chaosSeed,
		ErrorRate:   *chaosError,
		LatencyRate: *chaosLatency,
		Latency:     *chaosLatencyD,
		DropRate:    *chaosDrop,
		SlowRate:    *chaosSlow,
		DownEvery:   *chaosDownEvery,
		DownFor:     *chaosDownFor,
		CrashAfter:  *chaosCrash,
		OnCrash: func() {
			lg.Error("chaos: crashing", "after", *chaosCrash)
			os.Exit(1)
		},
	}
	if ccfg.Enabled() {
		chaos := server.NewChaos(ccfg, srv)
		handler = chaos
		defer func() {
			cs := chaos.Stats()
			lg.Info("chaos injected",
				"errors", cs.Errors, "latencies", cs.Latencies, "drops", cs.Drops,
				"slow_reads", cs.SlowReads, "blackouts", cs.Blackouts, "requests", cs.Requests)
		}()
		lg.Info("chaos enabled",
			"seed", *chaosSeed, "error", *chaosError, "latency", *chaosLatency,
			"drop", *chaosDrop, "slow", *chaosSlow, "down_for", *chaosDownFor,
			"down_every", *chaosDownEvery, "crash_after", *chaosCrash)
	}

	// The pprof endpoints live on their own listener so profiling access
	// never shares the data-plane address (and never goes through chaos).
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		defer dbg.Close()
		go func() {
			lg.Info("pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				lg.Warn("pprof listener failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		mode := "fixed"
		if *adaptive {
			mode = "adaptive"
		}
		lg.Info("listening",
			"addr", *addr, "window", *window, "window_size", *windowSize,
			"queue", *queueCap, "workers", *workers, "cache", *cacheSize,
			"parallelism", *parallelism, "admission", mode, "trace", *trace)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return fmt.Errorf("dlsd: serve: %w", err)
	case s := <-sig:
		lg.Info("draining", "signal", s.String(), "budget", *drain)
	}

	// Stop accepting, then drain in-flight admission windows.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Warn("shutdown", "error", err)
	}
	srv.Close()
	st := solver.Stats()
	lg.Info("drained",
		"solves", st.Solves, "windows", st.Windows, "batched_windows", st.BatchedWindows,
		"batched_requests", st.BatchedRequests, "shed", st.Shed,
		"cache_hits", st.Hits, "cache_misses", st.Misses, "cache_evictions", st.Evictions)
	return nil
}
