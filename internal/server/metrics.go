package server

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
)

// className labels the zero (unnamed, best-effort) class for metrics.
func className(name string) string {
	if name == "" {
		return "none"
	}
	return name
}

// handleMetrics answers GET /metrics in the Prometheus text exposition
// format: engine counters (cache, solves, prepass collapses), admission
// state (queue depth, window fill, window sizes, sheds) and HTTP-level
// series (codes, solve latency). See the README metrics glossary.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := stats.NewMetricWriter(w)

	m.Gauge("dlsd_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	// HTTP surface.
	codes := s.codes.Snapshot()
	keys := make([]int, 0, len(codes))
	for code := range codes {
		keys = append(keys, code)
	}
	sort.Ints(keys)
	for _, code := range keys {
		m.Counter("dlsd_http_requests_total", "HTTP responses by status code.",
			codes[code], stats.Label{Key: "code", Value: strconv.Itoa(code)})
	}
	m.Histogram("dlsd_solve_latency_seconds", "End-to-end latency of successful solves (admission wait + solve).", s.latency)
	s.writeStageMetrics(m)

	// Admission micro-batcher.
	bs := s.batcher.Stats()
	m.Gauge("dlsd_queue_depth", "Admitted requests waiting to join a window.", float64(bs.QueueDepth))
	m.Gauge("dlsd_window_fill", "Requests in the currently filling window.", float64(bs.WindowFill))
	m.Histogram("dlsd_window_size", "Flushed admission-window sizes.", s.windowSizes)
	m.Gauge("dlsd_retry_after_seconds", "Current drain-rate-derived Retry-After advisory for 429s.", s.retryAfter().Seconds())
	if as, ok := s.batcher.AdaptiveState(); ok {
		m.Gauge("dlsd_adaptive_window_delay_seconds", "Most recent adaptive admission-window delay.", as.WindowDelay.Seconds())
		m.Gauge("dlsd_adaptive_window_size", "Most recent adaptive early-flush threshold.", float64(as.WindowSize))
		m.Gauge("dlsd_adaptive_backlog_windows", "Flushed-but-uncompleted windows.", float64(as.BacklogWindows))
		m.Gauge("dlsd_adaptive_groups_per_window", "EWMA of dedup groups per window.", as.GroupsPerWindow)
		m.Gauge("dlsd_adaptive_group_cost_seconds", "Median per-group solve-cost estimate.", as.GroupCostP50.Seconds())
	}

	// Engine counters.
	st := s.solver.Stats()
	m.Counter("dlsd_windows_total", "Admission windows flushed.", st.Windows)
	for _, f := range []struct {
		reason string
		n      uint64
	}{{"idle", st.Flushes.Idle}, {"size", st.Flushes.Size}, {"timer", st.Flushes.Timer}, {"close", st.Flushes.Close}} {
		m.Counter("dlsd_window_flushes_total", "Admission windows flushed, by reason: idle (a drain worker was free), size, timer (every worker busy) or close.",
			f.n, stats.Label{Key: "reason", Value: f.reason})
	}
	m.Counter("dlsd_batched_windows_total", "Windows that collapsed >= 2 requests into one batch solve.", st.BatchedWindows)
	m.Counter("dlsd_batched_requests_total", "Requests that travelled in multi-request windows.", st.BatchedRequests)
	m.Counter("dlsd_shed_total", "Submissions shed because the admission queue was full.", st.Shed)
	m.Counter("dlsd_shed_slo_total", "Submissions shed because their SLO deadline was unmeetable.", st.ShedSLO)
	shedClasses := make([]string, 0, len(st.ShedByClass))
	for name := range st.ShedByClass {
		shedClasses = append(shedClasses, name)
	}
	sort.Strings(shedClasses)
	for _, name := range shedClasses {
		m.Counter("dlsd_shed_by_class_total", "Shed submissions by SLO class.",
			st.ShedByClass[name], stats.Label{Key: "class", Value: className(name)})
	}
	violClasses := make([]string, 0, len(st.ViolationsByClass))
	for name := range st.ViolationsByClass {
		violClasses = append(violClasses, name)
	}
	sort.Strings(violClasses)
	for _, name := range violClasses {
		m.Counter("dlsd_slo_violations_total", "Completed solves that missed their class deadline.",
			st.ViolationsByClass[name], stats.Label{Key: "class", Value: className(name)})
	}
	m.Counter("dlsd_prepass_groups_total", "Distinct problems answered by the SoA chain prepass.", st.PrepassGroups)
	m.Counter("dlsd_prepass_requests_total", "Requests answered by the SoA chain prepass.", st.PrepassRequests)
	m.Counter("dlsd_cache_hits_total", "Result-cache hits.", st.Hits)
	m.Counter("dlsd_cache_misses_total", "Result-cache misses.", st.Misses)
	m.Counter("dlsd_cache_evictions_total", "Result-cache LRU evictions.", st.Evictions)
	if lookups := st.Hits + st.Misses; lookups > 0 {
		m.Gauge("dlsd_cache_hit_ratio", "Hits / lookups since start.", float64(st.Hits)/float64(lookups))
	}
	m.Counter("dlsd_degraded_total", "Solves answered by a closed-form heuristic instead of the requested exhaustive search.", st.Degraded)
	degradedTo := make([]string, 0, len(st.DegradedByStrategy))
	for name := range st.DegradedByStrategy {
		degradedTo = append(degradedTo, name)
	}
	sort.Strings(degradedTo)
	for _, name := range degradedTo {
		m.Counter("dlsd_degraded_to_total", "Degraded solves by the heuristic actually used.",
			st.DegradedByStrategy[name], stats.Label{Key: "strategy", Value: name})
	}
	m.Counter("dlsd_solves_total", "Strategy executions (cache/dedup-answered requests excluded).", st.Solves)
	strategies := make([]string, 0, len(st.SolvesByStrategy))
	for name := range st.SolvesByStrategy {
		strategies = append(strategies, name)
	}
	sort.Strings(strategies)
	for _, name := range strategies {
		m.Counter("dlsd_strategy_solves_total", "Strategy executions by strategy.",
			st.SolvesByStrategy[name], stats.Label{Key: "strategy", Value: name})
	}
	for _, o := range []struct {
		backend string
		n       uint64
	}{{"theorem", st.OrderSearch.Theorem}, {"sweep", st.OrderSearch.Sweep}} {
		m.Counter("dlsd_order_searches_total", "FIFO and LIFO order searches, by what answered them: theorem (one sort, common z) or sweep (all p! orders).",
			o.n, stats.Label{Key: "backend", Value: o.backend})
	}
	m.Counter("dlsd_pair_search_outer_pruned_total", "Send orders whose whole return-order tree was pruned at the root.", st.PairSearch.OuterPruned)
	m.Counter("dlsd_pair_search_nodes_expanded_total", "Pair branch-and-bound nodes expanded.", st.PairSearch.NodesExpanded)
	m.Counter("dlsd_pair_search_subtrees_pruned_total", "Return-order subtrees cut by the prefix bound.", st.PairSearch.SubtreesPruned)
	m.Counter("dlsd_pair_search_screened_total", "Return-order subtrees cut from the parent's one-pass child bounds, without a push (a subset of the pruned).", st.PairSearch.SubtreesScreened)
	m.Counter("dlsd_pair_search_leaves_evaluated_total", "Complete return orders evaluated by the pair search.", st.PairSearch.LeavesEvaluated)
	m.Counter("dlsd_affine_search_nodes_expanded_total", "Affine subset-lattice branch-and-bound nodes expanded.", st.AffineSearch.NodesExpanded)
	m.Counter("dlsd_affine_search_subtrees_pruned_total", "Affine subset half-lattices cut against the incumbent.", st.AffineSearch.SubtreesPruned)
	m.Counter("dlsd_affine_search_leaves_evaluated_total", "Participant subsets whose affine scenario LP was solved.", st.AffineSearch.LeavesEvaluated)
	m.Counter("dlsd_affine_search_bound_solves_total", "Affine relaxation LPs solved on exclude edges.", st.AffineSearch.BoundSolves)
	for _, o := range []struct {
		outcome string
		n       uint64
	}{{"started", st.SearchHelpers.Started}, {"denied", st.SearchHelpers.Denied}, {"retired", st.SearchHelpers.Retired}} {
		m.Counter("dlsd_search_helpers_total", "Pair and affine search helper workers, by outcome: started on an idle core, denied by the full budget of GOMAXPROCS search workers, or retired early when concurrent searches overdrew it.",
			o.n, stats.Label{Key: "outcome", Value: o.outcome})
	}
	m.Counter("dlsd_eval_simplex_fallback_total", "Auto scenario evaluations no certified tier answered, solved by the float simplex instead.", st.EvalSimplexFallbacks)
}
