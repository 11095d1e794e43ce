package sim

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func burstProcess() *MMPP {
	return &MMPP{BaseRate: 2000, BurstRate: 60000, MeanBase: 400 * time.Millisecond, MeanBurst: 60 * time.Millisecond}
}

// TestRunDeterminism is the property the whole simulator hangs off:
// same seed + same config ⇒ byte-identical event log and report.
func TestRunDeterminism(t *testing.T) {
	run := func(seed int64) ([]byte, []byte) {
		t.Helper()
		var log bytes.Buffer
		rep, err := Run(Config{
			Seed:        seed,
			MaxArrivals: 20000,
			Process:     burstProcess(),
			Adaptive:    true,
			Log:         &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return log.Bytes(), js
	}
	log1, rep1 := run(7)
	log2, rep2 := run(7)
	if len(log1) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(log1, log2) {
		t.Fatal("event logs differ between identically seeded runs")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("reports differ between identically seeded runs:\n%s\n%s", rep1, rep2)
	}
	// A different seed is a different experiment.
	_, rep3 := run(8)
	if bytes.Equal(rep1, rep3) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunReportAccounting(t *testing.T) {
	rep, err := Run(Config{Seed: 1, MaxArrivals: 5000, Process: &Poisson{Rate: 8000}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "fixed" {
		t.Errorf("Mode = %q, want fixed", rep.Mode)
	}
	if rep.Arrivals != 5000 {
		t.Errorf("Arrivals = %d, want 5000", rep.Arrivals)
	}
	// Every arrival is either shed or completed — nothing leaks.
	if rep.Completed+rep.Shed != rep.Arrivals {
		t.Errorf("completed %d + shed %d != arrivals %d", rep.Completed, rep.Shed, rep.Arrivals)
	}
	if rep.Windows <= 0 || rep.AvgWindowFill <= 0 || rep.CollapseRatio < 1 {
		t.Errorf("window stats: windows=%d fill=%g collapse=%g", rep.Windows, rep.AvgWindowFill, rep.CollapseRatio)
	}
	if rep.VirtualSeconds <= 0 || rep.Events <= int64(rep.Arrivals) {
		t.Errorf("virtual_seconds=%g events=%d", rep.VirtualSeconds, rep.Events)
	}
	var arrivals, completed, shed int64
	for name, cr := range rep.Classes {
		arrivals += cr.Arrivals
		completed += cr.Completed
		shed += cr.Shed
		if cr.Completed > 0 && !(cr.P50MS <= cr.P90MS && cr.P90MS <= cr.P99MS && cr.P99MS <= cr.MaxMS) {
			t.Errorf("class %s percentiles out of order: %+v", name, cr)
		}
	}
	if arrivals != rep.Arrivals || completed != rep.Completed || shed != rep.Shed {
		t.Errorf("per-class sums %d/%d/%d != totals %d/%d/%d",
			arrivals, completed, shed, rep.Arrivals, rep.Completed, rep.Shed)
	}
	for _, name := range []string{"tight", "standard", "batch"} {
		if rep.Classes[name] == nil {
			t.Errorf("default class %q missing from report", name)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{MaxArrivals: 10}); err == nil {
		t.Error("Run without a Process was accepted")
	}
	if _, err := Run(Config{Process: &Poisson{Rate: 1}}); err == nil {
		t.Error("Run without Horizon or MaxArrivals was accepted")
	}
}

// TestAdaptiveBeatsFixedOnBurst is the design claim behind the adaptive
// admission policy, checked in-process at reduced scale (the CI
// sim-smoke job enforces it at full scale through cmd/dlssim): under
// bursty traffic on the CI gate's mix (dlssim's default search share of
// 0.1) the adaptive window must cut the tight class's P99 without
// shedding more overall. On a chain-only burst both policies flush to an
// idle drain worker at once and answer at service time, so there the
// claim is that neither tight P99 reaches one window delay.
func TestAdaptiveBeatsFixedOnBurst(t *testing.T) {
	run := func(searchShare float64, adaptive bool) *Report {
		t.Helper()
		cfg := Config{Seed: 42, MaxArrivals: 100000, Process: burstProcess(), SearchShare: searchShare}
		if adaptive {
			cfg.Adaptive = true
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	tight := func(fixed, adapt *Report) (ft, at *ClassReport) {
		t.Helper()
		ft, at = fixed.Classes["tight"], adapt.Classes["tight"]
		if ft == nil || at == nil || ft.Completed == 0 || at.Completed == 0 {
			t.Fatalf("tight class missing completions: fixed=%+v adaptive=%+v", ft, at)
		}
		return ft, at
	}

	fixed, adapt := run(0, false), run(0, true)
	ft, at := tight(fixed, adapt)
	for _, r := range []struct {
		mode string
		p99  float64
	}{{"fixed", ft.P99MS}, {"adaptive", at.P99MS}} {
		if r.p99 >= fixed.WindowMS {
			t.Errorf("chain-only %s tight P99 %.3fms not under one %.0fms window", r.mode, r.p99, fixed.WindowMS)
		}
	}

	fixed, adapt = run(0.1, false), run(0.1, true)
	ft, at = tight(fixed, adapt)
	if at.P99MS >= ft.P99MS {
		t.Errorf("adaptive tight P99 %.3fms not below fixed %.3fms", at.P99MS, ft.P99MS)
	}
	shedRate := func(r *Report) float64 { return float64(r.Shed) / float64(r.Arrivals) }
	if shedRate(adapt) > shedRate(fixed) {
		t.Errorf("adaptive shed rate %.4f above fixed %.4f", shedRate(adapt), shedRate(fixed))
	}
	t.Logf("search share 0.1: tight P99 fixed %.1fms / adaptive %.1fms, shed %.3f / %.3f",
		ft.P99MS, at.P99MS, shedRate(fixed), shedRate(adapt))
}

// hashWriter folds the event log into an FNV hash so the million-arrival
// run can compare logs without holding hundreds of MB.
type hashWriter struct {
	h uint64
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{} }

func (w *hashWriter) Write(p []byte) (int, error) {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(w.h >> (8 * i))
	}
	h.Write(b[:])
	h.Write(p)
	w.h = h.Sum64()
	w.n += int64(len(p))
	return len(p), nil
}

// TestRunMillionArrivals pins the acceptance bar: ≥10⁶ virtual arrivals
// through the real Batcher in well under 60s of wall clock, with a
// deterministic event log (hash-compared across two runs).
func TestRunMillionArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("million-arrival run skipped with -short")
	}
	run := func() (*Report, *hashWriter) {
		t.Helper()
		hw := newHashWriter()
		rep, err := Run(Config{
			Seed:        1,
			MaxArrivals: 1_000_000,
			Process:     burstProcess(),
			Adaptive:    true,
			Log:         hw,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, hw
	}
	rep1, hw1 := run()
	if rep1.Arrivals != 1_000_000 {
		t.Fatalf("arrivals = %d, want 1e6", rep1.Arrivals)
	}
	if rep1.WallSeconds >= 60 {
		t.Fatalf("1e6 arrivals took %.1fs wall, want < 60s", rep1.WallSeconds)
	}
	rep2, hw2 := run()
	if hw1.n == 0 || hw1.n != hw2.n || hw1.h != hw2.h {
		t.Fatalf("event logs diverged: %d/%x vs %d/%x bytes/hash", hw1.n, hw1.h, hw2.n, hw2.h)
	}
	js1, _ := json.Marshal(rep1)
	js2, _ := json.Marshal(rep2)
	if !bytes.Equal(js1, js2) {
		t.Fatal("reports diverged across identically seeded 1e6-arrival runs")
	}
}

func TestScenarios(t *testing.T) {
	names := Scenarios()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Scenarios() not sorted: %v", names)
	}
	for _, want := range []string{"steady", "burst", "diurnal", "overload", "heavytail", "trace"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q missing from %v", want, names)
		}
	}
	sc, err := ScenarioByName("burst")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := sc.Build(""); err != nil {
		t.Errorf("burst Build: %v", err)
	} else if _, ok := p.(*MMPP); !ok {
		t.Errorf("burst process is %T, want *MMPP", p)
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}

	// The trace scenario needs a path, and replays what it reads.
	tsc, err := ScenarioByName("trace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tsc.Build(""); err == nil {
		t.Error("trace scenario accepted an empty path")
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	events := []TraceEvent{
		{TNanos: 0, Class: "tight", Kind: "chain", Platform: 3},
		{TNanos: 1500, Kind: "search", Platform: 1},
		{TNanos: 4000},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := tsc.Build(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := p.(*Trace)
	if !ok || len(tr.Events) != 3 {
		t.Fatalf("trace process = %T with %d events", p, len(tr.Events))
	}
}

func TestTraceRoundTripAndReplay(t *testing.T) {
	events := []TraceEvent{
		{TNanos: 0, Class: "tight", Kind: "chain", Platform: 3},
		{TNanos: 1500, Kind: "search", Platform: 1},
		{TNanos: 1500, Class: "batch"},
		{TNanos: 9000},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip: got %+v, want %+v", got, events)
	}

	// Backwards arrival times are rejected; blank lines are skipped.
	if _, err := ReadTrace(strings.NewReader("{\"t\":5}\n{\"t\":3}\n")); err == nil {
		t.Error("backwards trace accepted")
	}
	two, err := ReadTrace(strings.NewReader("{\"t\":1}\n\n{\"t\":2}\n"))
	if err != nil || len(two) != 2 {
		t.Errorf("blank-line trace: %v, %v", two, err)
	}

	// Replay yields delta gaps with hints preserved; empty events leave
	// the platform hint unset (-1).
	tr := &Trace{Events: events}
	rng := rand.New(rand.NewSource(1))
	wantGaps := []time.Duration{0, 1500, 0, 7500}
	for i, wg := range wantGaps {
		arr, ok := tr.Next(rng)
		if !ok {
			t.Fatalf("trace exhausted at %d", i)
		}
		if arr.Gap != wg {
			t.Errorf("arrival %d gap = %v, want %v", i, arr.Gap, wg)
		}
	}
	if _, ok := tr.Next(rng); ok {
		t.Error("trace did not exhaust")
	}
	tr = &Trace{Events: events}
	first, _ := tr.Next(rng)
	if first.Class != "tight" || first.Kind != "chain" || first.Platform != 3 {
		t.Errorf("hints lost: %+v", first)
	}
	tr.Next(rng)
	tr.Next(rng)
	last, _ := tr.Next(rng)
	if last.Platform != -1 {
		t.Errorf("hint-less event platform = %d, want -1", last.Platform)
	}
}

func TestArrivalProcesses(t *testing.T) {
	const n = 20000
	mean := func(p Process) time.Duration {
		rng := rand.New(rand.NewSource(3))
		var sum time.Duration
		for i := 0; i < n; i++ {
			arr, ok := p.Next(rng)
			if !ok {
				t.Fatal("synthetic process exhausted")
			}
			if arr.Gap < 0 {
				t.Fatalf("negative gap %v", arr.Gap)
			}
			sum += arr.Gap
		}
		return sum / n
	}

	// Poisson: mean gap ≈ 1/rate.
	if m := mean(&Poisson{Rate: 1000}); m < 900*time.Microsecond || m > 1100*time.Microsecond {
		t.Errorf("Poisson(1000) mean gap = %v, want ≈1ms", m)
	}
	// MMPP: mean between the burst gap and the base gap.
	mm, err := processFor("mmpp", 2000, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if m := mean(mm); m <= time.Second/60000 || m >= time.Second/2000 {
		t.Errorf("MMPP mean gap = %v, want between burst and base gaps", m)
	}
	// Pareto: every gap at least Scale, heavy but finite mean.
	pp, err := processFor("pareto", 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	scale := pp.(*Pareto).Scale
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		arr, _ := pp.Next(rng)
		if arr.Gap < scale {
			t.Fatalf("Pareto gap %v below scale %v", arr.Gap, scale)
		}
	}
	// Diurnal: rate oscillates but gaps stay sane.
	dd, err := processFor("diurnal", 1000, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if m := mean(dd); m <= 0 {
		t.Errorf("Diurnal mean gap = %v", m)
	}
	if _, err := processFor("warp", 1, 1); err == nil {
		t.Error("unknown process name accepted")
	}
}

func TestCostModel(t *testing.T) {
	d := CostDist{P50: time.Millisecond, P90: 2 * time.Millisecond, P99: 5 * time.Millisecond}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	var below50, below90, below99 int
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 0 || s > 10*d.P99 {
			t.Fatalf("sample %v outside (0, 10·P99]", s)
		}
		if s <= d.P50 {
			below50++
		}
		if s <= d.P90 {
			below90++
		}
		if s <= d.P99 {
			below99++
		}
	}
	check := func(got int, want, tol float64, q string) {
		if f := float64(got) / n; f < want-tol || f > want+tol {
			t.Errorf("fraction below %s = %.3f, want %.2f±%.2f", q, f, want, tol)
		}
	}
	check(below50, 0.50, 0.02, "P50")
	check(below90, 0.90, 0.02, "P90")
	check(below99, 0.99, 0.01, "P99")

	m := DefaultCostModel()
	if c := m.WindowCost(rng, nil); c != m.PerWindow {
		t.Errorf("empty window cost = %v, want PerWindow %v", c, m.PerWindow)
	}
	if c := m.WindowCost(rng, []string{"chain"}); c <= m.PerWindow {
		t.Errorf("one-group window cost = %v, want > PerWindow", c)
	}
	// Search groups are orders of magnitude dearer than chain groups.
	var chainSum, searchSum time.Duration
	for i := 0; i < 1000; i++ {
		chainSum += m.WindowCost(rng, []string{"chain"})
		searchSum += m.WindowCost(rng, []string{"search"})
	}
	if searchSum < 10*chainSum {
		t.Errorf("search windows (%v total) not ≫ chain windows (%v total)", searchSum, chainSum)
	}
	// Unknown kinds fall back instead of exploding.
	if c := m.WindowCost(rng, []string{"mystery"}); c <= m.PerWindow {
		t.Errorf("unknown-kind window cost = %v", c)
	}
}

func TestLoadCostModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	body := `{"per_window":"50us","parallelism":4,"kinds":{"chain":{"p50":"10us","p90":"20us","p99":"80us"}}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCostModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerWindow != 50*time.Microsecond || m.Parallelism != 4 {
		t.Errorf("calibration not applied: %+v", m)
	}
	if d := m.Kinds["chain"]; d.P99 != 80*time.Microsecond {
		t.Errorf("chain dist = %+v", d)
	}
	// Untouched kinds keep their defaults.
	if d := m.Kinds["search"]; d != DefaultCostModel().Kinds["search"] {
		t.Errorf("search dist overwritten: %+v", d)
	}

	if _, err := LoadCostModel(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing calibration file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"kinds":{"chain":{"p50":"5ms","p90":"1ms","p99":"9ms"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCostModel(bad); err == nil {
		t.Error("out-of-order quantiles accepted")
	}
}
