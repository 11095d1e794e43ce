package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dls"
)

// writePlatform writes a small valid platform JSON and returns its path.
func writePlatform(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "platform.json")
	data := `{"workers":[
		{"name":"a","c":0.05,"w":0.3,"d":0.025},
		{"name":"b","c":0.08,"w":0.2,"d":0.04},
		{"name":"c","c":0.10,"w":0.5,"d":0.05}
	]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPlatform(t *testing.T) {
	path := writePlatform(t)
	p, err := loadPlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 3 || p.Workers[0].Name != "a" {
		t.Errorf("loaded platform: %v", p)
	}
	if _, err := loadPlatform(""); err == nil {
		t.Error("empty path must fail")
	}
	if _, err := loadPlatform(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"workers":[{"c":0,"w":1,"d":1}]}`), 0o644)
	if _, err := loadPlatform(bad); err == nil {
		t.Error("invalid platform must fail validation")
	}
}

func TestCmdScheduleAllDisciplines(t *testing.T) {
	path := writePlatform(t)
	for _, disc := range []string{"fifo", "lifo", "incw"} {
		if err := cmdSchedule([]string{"-platform", path, "-discipline", disc, "-load", "100", "-gantt"}); err != nil {
			t.Errorf("discipline %s: %v", disc, err)
		}
	}
	if err := cmdSchedule([]string{"-platform", path, "-model", "two-port"}); err != nil {
		t.Errorf("two-port: %v", err)
	}
	if err := cmdSchedule([]string{"-platform", path, "-exact"}); err != nil {
		t.Errorf("exact: %v", err)
	}
	if err := cmdSchedule([]string{"-platform", path, "-discipline", "nope"}); err == nil {
		t.Error("unknown discipline must fail")
	}
	if err := cmdSchedule([]string{"-platform", path, "-model", "nope"}); err == nil {
		t.Error("unknown model must fail")
	}
	if err := cmdSchedule([]string{}); err == nil {
		t.Error("missing platform must fail")
	}
}

func TestCmdScheduleOutAndVerify(t *testing.T) {
	platPath := writePlatform(t)
	schedPath := filepath.Join(t.TempDir(), "sched.json")
	if err := cmdSchedule([]string{"-platform", platPath, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-platform", platPath, "-schedule", schedPath}); err != nil {
		t.Errorf("verify of freshly computed schedule failed: %v", err)
	}
	// Corrupt the schedule: triple every load so it cannot fit in T = 1.
	data, err := os.ReadFile(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.ReplaceAll(string(data), `"T": 1`, `"T": 0.2`)
	if corrupted == string(data) {
		t.Fatalf("could not corrupt schedule JSON:\n%s", data)
	}
	os.WriteFile(schedPath, []byte(corrupted), 0o644)
	if err := cmdVerify([]string{"-platform", platPath, "-schedule", schedPath}); err == nil {
		t.Error("verify must reject an infeasible schedule")
	}
	// Flag errors.
	if err := cmdVerify([]string{"-platform", platPath}); err == nil {
		t.Error("missing schedule must fail")
	}
	if err := cmdVerify([]string{"-platform", platPath, "-schedule", schedPath, "-model", "nope"}); err == nil {
		t.Error("unknown model must fail")
	}
	missing := filepath.Join(t.TempDir(), "nope.json")
	if err := cmdVerify([]string{"-platform", platPath, "-schedule", missing}); err == nil {
		t.Error("missing schedule file must fail")
	}
	os.WriteFile(missing, []byte("{"), 0o644)
	if err := cmdVerify([]string{"-platform", platPath, "-schedule", missing}); err == nil {
		t.Error("malformed schedule JSON must fail")
	}
}

func TestCmdBus(t *testing.T) {
	if err := cmdBus([]string{"-c", "0.1", "-d", "0.05", "-w", "0.4, 0.6,0.8"}); err != nil {
		t.Errorf("bus: %v", err)
	}
	if err := cmdBus([]string{"-c", "0.1", "-d", "0.05"}); err == nil {
		t.Error("missing -w must fail")
	}
	if err := cmdBus([]string{"-c", "0.1", "-d", "0.05", "-w", "x"}); err == nil {
		t.Error("unparsable -w must fail")
	}
}

func TestCmdBrute(t *testing.T) {
	path := writePlatform(t)
	if err := cmdBrute([]string{"-platform", path}); err != nil {
		t.Errorf("brute: %v", err)
	}
	if err := cmdBrute([]string{}); err == nil {
		t.Error("missing platform must fail")
	}
}

// TestCmdBruteExact runs brute under exact arithmetic, where the
// pair-exhaustive branch-and-bound prunes nothing (its float64 bounds
// cannot certify exact comparisons).
func TestCmdBruteExact(t *testing.T) {
	path := writePlatform(t)
	if err := cmdBrute([]string{"-platform", path, "-exact"}); err != nil {
		t.Errorf("brute -exact: %v", err)
	}
}

func TestCmdRandom(t *testing.T) {
	for _, fam := range []string{"homogeneous", "homcomm", "heterogeneous"} {
		if err := cmdRandom([]string{"-p", "4", "-family", fam, "-seed", "9"}); err != nil {
			t.Errorf("family %s: %v", fam, err)
		}
	}
	if err := cmdRandom([]string{"-family", "nope"}); err == nil {
		t.Error("unknown family must fail")
	}
}

// writeBigPlatform writes an 8-worker platform JSON: large enough that the
// 8! exhaustive FIFO search cannot finish before a nanosecond deadline.
func writeBigPlatform(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"workers":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"c":%g,"w":%g,"d":%g}`, 0.05+0.01*float64(i), 0.2+0.05*float64(i), 0.025+0.005*float64(i))
	}
	b.WriteString(`]}`)
	path := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestCmdStrategiesListsRegistry(t *testing.T) {
	out, err := captureStdout(t, cmdStrategies)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out)
	if len(lines) != len(dls.Strategies()) {
		t.Errorf("strategies printed %d names, registry has %d:\n%s", len(lines), len(dls.Strategies()), out)
	}
	for _, want := range []string{dls.StrategyFIFO, dls.StrategyPairExhaustive, dls.StrategyFIFOExhaustive, dls.StrategyBusFIFO} {
		if !strings.Contains(out, want) {
			t.Errorf("strategies output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdScheduleTimeoutExpiresExhaustive(t *testing.T) {
	path := writeBigPlatform(t)
	// The exact-rational 8! search cannot finish within a nanosecond; the
	// engine must surface the deadline as an error.
	err := cmdSchedule([]string{"-platform", path, "-discipline", "fifo-exhaustive", "-eval", "exact", "-timeout", "1ns"})
	if err == nil {
		t.Fatal("exhaustive search with 1ns timeout must fail")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("want a deadline error, got: %v", err)
	}
	// Without the deadline the same strategy succeeds via the pipeline.
	if err := cmdSchedule([]string{"-platform", path, "-discipline", "fifo-exhaustive"}); err != nil {
		t.Errorf("untimed exhaustive search failed: %v", err)
	}
}

func TestCmdScheduleEvalFlag(t *testing.T) {
	path := writePlatform(t)
	for _, mode := range []string{"auto", "simplex", "exact"} {
		out, err := captureStdout(t, func() error {
			return cmdSchedule([]string{"-platform", path, "-eval", mode})
		})
		if err != nil {
			t.Errorf("-eval %s: %v", mode, err)
			continue
		}
		if !strings.Contains(out, "eval="+mode) && mode != "exact" {
			t.Errorf("-eval %s: output does not echo the backend:\n%s", mode, out)
		}
	}
	for _, mode := range []string{"nope", "closed-form", "direct"} {
		if err := cmdSchedule([]string{"-platform", path, "-eval", mode}); err == nil {
			t.Errorf("unknown -eval backend %q must fail", mode)
		}
	}
	if err := cmdBrute([]string{"-platform", path, "-eval", "nope"}); err == nil {
		t.Error("brute: unknown -eval backend must fail")
	}
	if err := cmdBrute([]string{"-platform", path, "-eval", "simplex"}); err != nil {
		t.Errorf("brute -eval simplex: %v", err)
	}
}

func TestEvalBackendsAgreeOnSchedule(t *testing.T) {
	// The CLI-visible throughput must be identical (to 1e-9) across
	// backends; the deeper agreement property lives in internal/eval.
	path := writePlatform(t)
	p, err := loadPlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	var rhos []float64
	for _, mode := range []dls.EvalMode{dls.EvalAuto, dls.EvalSimplex} {
		res, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO, Eval: mode})
		if err != nil {
			t.Fatal(err)
		}
		rhos = append(rhos, res.Throughput)
	}
	for _, rho := range rhos[1:] {
		if diff := rho - rhos[0]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("backend throughputs diverge: %v", rhos)
		}
	}
}

func TestGanttOfSchedule(t *testing.T) {
	path := writePlatform(t)
	p, err := loadPlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dls.Solve(context.Background(), dls.Request{Platform: p, Strategy: dls.StrategyFIFO})
	if err != nil {
		t.Fatal(err)
	}
	g := ganttOfSchedule(p, res.Schedule)
	for _, want := range []string{"master", "legend", "#", "="} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
}
