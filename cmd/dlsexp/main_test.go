package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickArgs keeps test sweeps tiny.
func quickArgs(extra ...string) []string {
	base := []string{"-platforms", "3", "-workers", "4", "-m", "100"}
	return append(base, extra...)
}

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-figure", "14a"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 14(x=1)", "nb of workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPairFigure exercises the open-question probe end to end.
func TestRunPairFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-figure", "pair"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure pair") {
		t.Errorf("output missing the pair figure:\n%s", sb.String())
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-figure", "8", "-csv"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# figure 8") || !strings.Contains(out, "megabytes,") {
		t.Errorf("CSV output malformed:\n%s", out)
	}
}

func TestRunSpread(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-figure", "12", "-quick", "-spread"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(sd)") {
		t.Error("spread columns missing")
	}
}

func TestRunSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.svg")
	var sb strings.Builder
	if err := run(quickArgs("-figure", "9", "-svg", path), &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Error("SVG file truncated")
	}
	if !strings.Contains(sb.String(), "SVG written") {
		t.Error("missing confirmation line")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-figure", "nope"}, &sb); err == nil {
		t.Error("unknown figure must fail")
	}
	if err := run([]string{}, &sb); err == nil {
		t.Error("no figure and no -all must fail")
	}
	if err := run([]string{"-not-a-flag"}, &sb); err == nil {
		t.Error("bad flag must fail")
	}
}

func TestRunSeedOverrideChangesData(t *testing.T) {
	var a, b, c strings.Builder
	if err := run(quickArgs("-figure", "12", "-quick", "-seed", "1"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(quickArgs("-figure", "12", "-quick", "-seed", "2"), &b); err != nil {
		t.Fatal(err)
	}
	if err := run(quickArgs("-figure", "12", "-quick", "-seed", "1"), &c); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("different seeds produced identical sweeps")
	}
	if a.String() != c.String() {
		t.Error("same seed must reproduce identical output")
	}
}

func TestRunProfileCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var sb strings.Builder
	if err := run(quickArgs("-figure", "8", "-profile", "cpu", "-profile-out", path), &sb); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("cpu profile file is empty")
	}
	if !strings.Contains(sb.String(), "cpu profile written to") {
		t.Error("missing profile confirmation line")
	}
}

func TestRunProfileMem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	var sb strings.Builder
	if err := run(quickArgs("-figure", "8", "-profile", "mem", "-profile-out", path), &sb); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("mem profile missing or empty: %v", err)
	}
}

func TestRunProfileUnknownKind(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-figure", "8", "-profile", "goroutine"), &sb); err == nil {
		t.Fatal("unknown -profile kind accepted")
	}
}
