package experiments

import (
	"math"
	"strings"
	"testing"
)

// smallConfig keeps the sweeps quick while preserving the protocol.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Platforms = 6
	cfg.Workers = 5
	cfg.Sizes = []int{40, 120, 200}
	cfg.M = 200
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Platforms: 0, Workers: 1, M: 1, Sizes: []int{10}},
		{Platforms: 1, Workers: 0, M: 1, Sizes: []int{10}},
		{Platforms: 1, Workers: 1, M: 0, Sizes: []int{10}},
		{Platforms: 1, Workers: 1, M: 1, Sizes: nil},
		{Platforms: 1, Workers: 1, M: 1, Sizes: []int{0}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func seriesByName(t *testing.T, r *Result, name string) []float64 {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s.Y
		}
	}
	t.Fatalf("series %q not found in %v", name, r.Series)
	return nil
}

func TestFig8LinearityShape(t *testing.T) {
	res, err := Fig8Linearity(Config{Platforms: 1, Workers: 1, M: 1, Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 || len(res.X) != 10 {
		t.Fatalf("series=%d points=%d", len(res.Series), len(res.X))
	}
	// Linearity: time(5MB) == 10 × time(0.5MB) for every worker; and the
	// slowest worker (speed 1) is exactly 5× slower than speed 5.
	for w, s := range res.Series {
		ratio := s.Y[len(s.Y)-1] / s.Y[0]
		if math.Abs(ratio-10) > 1e-9 {
			t.Errorf("worker %d: time(5MB)/time(0.5MB) = %g, want 10 (linear)", w+1, ratio)
		}
	}
	slow, fast := res.Series[0].Y[0], res.Series[4].Y[0]
	if math.Abs(slow/fast-5) > 1e-9 {
		t.Errorf("speed-1 vs speed-5 slope ratio = %g, want 5", slow/fast)
	}
}

func TestFig8WithLatencyBreaksProportionality(t *testing.T) {
	cfg := Config{Platforms: 1, Workers: 1, M: 1, Sizes: []int{1}, Latency: 0.05}
	res, err := Fig8Linearity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Series[0].Y[len(res.Series[0].Y)-1] / res.Series[0].Y[0]
	if ratio >= 10 {
		t.Errorf("with latency the time ratio %g must fall below the size ratio 10", ratio)
	}
}

func TestFig9TraceEnrollsSubset(t *testing.T) {
	cfg := smallConfig()
	res, err := Fig9Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gantt == "" {
		t.Fatal("no Gantt chart")
	}
	for _, want := range []string{"master", "P1", "legend"} {
		if !strings.Contains(res.Gantt, want) {
			t.Errorf("Gantt missing %q", want)
		}
	}
	// The fig-9 platform has two hopeless workers; the note must report a
	// strict subset enrolled.
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "enrolled 3 of 5") || strings.Contains(n, "enrolled 4 of 5") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a strict subset of workers enrolled; notes: %v", res.Notes)
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10HomogeneousBus(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Homogeneous platforms: no INC_W series.
	for _, s := range res.Series {
		if strings.Contains(s.Name, "INC_W") {
			t.Errorf("INC_W must be omitted on homogeneous platforms")
		}
	}
	// Homogeneous platforms are buses: the exact LP gives FIFO >= LIFO
	// (Adler-Gong-Rosenberg; see EXPERIMENTS.md for the deviation from the
	// paper's prose), so the LIFO ratio sits in [1, ~1.1].
	for i, v := range seriesByName(t, res, "LIFO lp/INC_C lp") {
		if v < 1-1e-9 {
			t.Errorf("size %g: LIFO lp ratio %g < 1 — LIFO beat optimal FIFO on a bus, contradicting the pair-exhaustive theorem", res.X[i], v)
		}
		if v > 1.15 {
			t.Errorf("size %g: LIFO lp ratio %g implausibly large", res.X[i], v)
		}
	}
	// Real measurements stay within a sane band of the prediction.
	for i, v := range seriesByName(t, res, "INC_C real/INC_C lp") {
		if v < 0.9 || v > 2.5 {
			t.Errorf("size %g: INC_C real/lp = %g outside sanity band", res.X[i], v)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11HeteroComp(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lifoLP := seriesByName(t, res, "LIFO lp/INC_C lp")
	incwLP := seriesByName(t, res, "INC_W lp/INC_C lp")
	for i := range res.X {
		// Theorem: INC_C optimal among FIFO orders → INC_W never predicts
		// a faster run.
		if incwLP[i] < 1-1e-9 {
			t.Errorf("size %g: INC_W lp ratio %g < 1 contradicts Theorem 1", res.X[i], incwLP[i])
		}
		// Homogeneous-communication platforms are buses, where FIFO >= LIFO
		// holds exactly; the LIFO ratio stays in a narrow band above 1.
		if lifoLP[i] < 1-1e-9 || lifoLP[i] > 1.15 {
			t.Errorf("size %g: LIFO lp ratio %g outside [1, 1.15]", res.X[i], lifoLP[i])
		}
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12HeteroStar(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	incwLP := seriesByName(t, res, "INC_W lp/INC_C lp")
	for i := range res.X {
		if incwLP[i] < 1-1e-9 {
			t.Errorf("size %g: INC_W lp ratio %g < 1 contradicts Theorem 1", res.X[i], incwLP[i])
		}
	}
	// Heterogeneous platforms: INC_W should be strictly worse somewhere.
	worse := false
	for _, v := range incwLP {
		if v > 1+1e-6 {
			worse = true
		}
	}
	if !worse {
		t.Error("INC_W never worse than INC_C on heterogeneous platforms — suspicious")
	}
}

func TestFig13bLinearModelLimit(t *testing.T) {
	cfg := smallConfig()
	res, err := Fig13bCommX10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With fast communication the runs are compute-bound and the cache
	// factor makes real/lp grow with the matrix size in the tail of the
	// sweep (at the smallest sizes the per-message latency adds its own
	// bump, as in the paper's small-size anomalies).
	ratios := seriesByName(t, res, "INC_C real/INC_C lp")
	mid, last := ratios[len(ratios)/2], ratios[len(ratios)-1]
	if last <= mid {
		t.Errorf("real/lp must grow with size in the comm-x10 regime: mid %g, last %g", mid, last)
	}
	if last < 1.05 {
		t.Errorf("real/lp = %g at the largest size; expected a visible departure from the linear model", last)
	}
}

func TestFig13aComputeX10Runs(t *testing.T) {
	res, err := Fig13aComputeX10(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 3 {
		t.Fatalf("points = %d", len(res.X))
	}
	for _, s := range res.Series {
		for i, v := range s.Y {
			if v <= 0 || math.IsNaN(v) {
				t.Errorf("series %q point %d = %g", s.Name, i, v)
			}
		}
	}
}

func TestFig14ParticipationX1(t *testing.T) {
	cfg := smallConfig()
	res, err := Fig14Participation(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	nb := seriesByName(t, res, "nb of workers")
	if len(nb) != 4 {
		t.Fatalf("available-worker sweep has %d points", len(nb))
	}
	// Figure 14(a): the slow fourth worker never participates.
	if nb[3] != 3 {
		t.Errorf("with 4 available and x=1, %g workers used; paper uses 3", nb[3])
	}
	// Monotone improvement until the plateau.
	lp := seriesByName(t, res, "lp time (s)")
	if !(lp[0] > lp[1] && lp[1] > lp[2]) {
		t.Errorf("lp time must strictly improve up to 3 workers: %v", lp)
	}
	if math.Abs(lp[3]-lp[2]) > 1e-9 {
		t.Errorf("lp time must plateau at 3 workers (x=1): %v", lp)
	}
}

func TestFig14ParticipationX3(t *testing.T) {
	cfg := smallConfig()
	res, err := Fig14Participation(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	nb := seriesByName(t, res, "nb of workers")
	if nb[3] != 4 {
		t.Errorf("with 4 available and x=3, %g workers used; paper uses 4", nb[3])
	}
	lp := seriesByName(t, res, "lp time (s)")
	if lp[3] >= lp[2] {
		t.Errorf("the fourth worker (x=3) must improve the lp time: %v", lp)
	}
}

// TestFigPairGap pins the open-question probe: the FIFO and LIFO optima
// can never beat the unrestricted pair optimum (ratios ≤ 1 up to LP
// noise). The branch-and-bound and flat searches agree on the optimum by
// core.TestPairBBAgreesWithFlat.
func TestFigPairGap(t *testing.T) {
	cfg := smallConfig()
	cfg.Platforms = 4
	res, err := FigPairGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FIFO-opt/pair", "LIFO-opt/pair"} {
		for i, v := range seriesByName(t, res, name) {
			if v > 1+1e-9 {
				t.Errorf("%s at p=%g is %g > 1: a discipline beat the unrestricted optimum", name, res.X[i], v)
			}
			if v < 0.5 {
				t.Errorf("%s at p=%g is %g — implausibly far from the optimum", name, res.X[i], v)
			}
		}
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	ids := FigureIDs()
	want := []string{"8", "9", "10", "11", "12", "13a", "13b", "14a", "14b", "pair"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("registry order %v, want %v", ids, want)
			break
		}
	}
	reg := Registry()
	cfg := smallConfig()
	// Every runner must execute (cheap figures only; the sweep figures are
	// covered individually above).
	for _, id := range []string{"9", "14a"} {
		if _, err := reg[id](cfg); err != nil {
			t.Errorf("figure %s: %v", id, err)
		}
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	res := &Result{
		ID:     "t",
		Title:  "test, with comma",
		XLabel: "x",
		X:      []float64{1, 2},
		Series: []Series{{Name: "a,b", Y: []float64{3, 4}}},
		Notes:  []string{"hello"},
		Gantt:  "GANTT",
	}
	tab := res.Table()
	for _, want := range []string{"Figure t", "a,b", "hello", "GANTT", "3", "4"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table missing %q:\n%s", want, tab)
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("CSV must quote names with commas:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if !strings.Contains(csv, `"esc""aped"`) {
		if csvEscape(`esc"aped`) != `"esc""aped"` {
			t.Error("csvEscape must double quotes")
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallConfig()
	a, err := Fig12HeteroStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12HeteroStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for i := range a.Series[si].Y {
			if a.Series[si].Y[i] != b.Series[si].Y[i] {
				t.Fatalf("series %q point %d differs across identical runs", a.Series[si].Name, i)
			}
		}
	}
}

func BenchmarkFig12SmallSweep(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig12HeteroStar(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReportSpreadAddsSdSeries(t *testing.T) {
	cfg := smallConfig()
	cfg.ReportSpread = true
	res, err := Fig12HeteroStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd := seriesByName(t, res, "INC_C real/INC_C lp (sd)")
	if len(sd) != len(res.X) {
		t.Fatalf("sd series has %d points for %d sizes", len(sd), len(res.X))
	}
	for i, v := range sd {
		if v < 0 {
			t.Errorf("negative standard deviation %g at size %g", v, res.X[i])
		}
	}
	// Spread must be non-trivial across random platforms but far below the
	// mean (the paper plots averages for a reason).
	mean := seriesByName(t, res, "INC_C real/INC_C lp")
	for i := range sd {
		if sd[i] > mean[i] {
			t.Errorf("sd %g exceeds mean %g at size %g", sd[i], mean[i], res.X[i])
		}
	}
	// Without the flag no sd series exists.
	plain, err := Fig12HeteroStar(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plain.Series {
		if strings.HasSuffix(s.Name, "(sd)") {
			t.Errorf("unexpected sd series %q without ReportSpread", s.Name)
		}
	}
}
