package core

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

var updateServedGolden = flag.Bool("update-served-golden", false,
	"rewrite testdata/pair_served_shape.json from the current pair search")

// servedGolden is one recorded serial pair search on a served-shape
// platform: the winner, bit for bit, and the search's PairStats.
type servedGolden struct {
	Seed        int64  `json:"seed"`
	Model       string `json:"model"`
	Send        []int  `json:"send"`
	Return      []int  `json:"return"`
	RhoBits     uint64 `json:"rho_bits"`
	OuterPruned uint64 `json:"outer_pruned"`
	Nodes       uint64 `json:"nodes"`
	Pruned      uint64 `json:"pruned"`
	Leaves      uint64 `json:"leaves"`
	// Screened is logged, not recorded: the golden searches predate the
	// child screen.
	Screened uint64 `json:"-"`
}

// add sums o's counters into g.
func (g *servedGolden) add(o servedGolden) {
	g.OuterPruned += o.OuterPruned
	g.Nodes += o.Nodes
	g.Pruned += o.Pruned
	g.Leaves += o.Leaves
	g.Screened += o.Screened
}

const servedGoldenFile = "pair_served_shape.json"

// servedShapePlatform draws the platform shape dlsd's search traffic
// carries to the pair search: six heterogeneous workers running the
// size-400 matrix-product application (common z = 1/2).
func servedShapePlatform(seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	return platform.RandomSpeeds(rng, 6, platform.Heterogeneous).Platform(platform.DefaultApp(400))
}

// servedShapeRuns runs the serial pair search on the 20 served-shape
// platforms under each port model.
func servedShapeRuns(t testing.TB) []servedGolden {
	t.Helper()
	ctx := ContextWithSearchParallelism(context.Background(), 1)
	var runs []servedGolden
	for seed := int64(1); seed <= 20; seed++ {
		p := servedShapePlatform(seed)
		for _, model := range []schedule.Model{schedule.OnePort, schedule.TwoPort} {
			before := PairStatsSnapshot()
			pr, err := BestPairExhaustiveEval(ctx, p, model, eval.Auto)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, model, err)
			}
			after := PairStatsSnapshot()
			runs = append(runs, servedGolden{
				Seed: seed, Model: model.String(),
				Send: pr.Send, Return: pr.Return,
				RhoBits:     math.Float64bits(pr.Schedule.Throughput()),
				OuterPruned: after.OuterPruned - before.OuterPruned,
				Nodes:       after.NodesExpanded - before.NodesExpanded,
				Pruned:      after.SubtreesPruned - before.SubtreesPruned,
				Leaves:      after.LeavesEvaluated - before.LeavesEvaluated,
				Screened:    after.SubtreesScreened - before.SubtreesScreened,
			})
		}
	}
	return runs
}

// TestPairSearchServedShapeGolden holds the pair search to winners
// recorded before its children were screened from the parent's inverse:
// on every served-shape platform and model the winning (send, return)
// pair and ρ must be bitwise the recorded ones, and the search may expand
// no more nodes and evaluate no more leaves than it did then. Rerun with
// -update-served-golden only when a change is meant to move the winners.
func TestPairSearchServedShapeGolden(t *testing.T) {
	path := filepath.Join("testdata", servedGoldenFile)
	runs := servedShapeRuns(t)
	if *updateServedGolden {
		// One search per line keeps the file diffable.
		data := []byte("[\n")
		for i, run := range runs {
			line, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				data = append(data, ",\n"...)
			}
			data = append(data, line...)
		}
		if err := os.WriteFile(path, append(data, "\n]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var golden []servedGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(runs) {
		t.Fatalf("golden file has %d searches, the test runs %d", len(golden), len(runs))
	}
	var total, goldenTotal servedGolden
	for i, got := range runs {
		want := golden[i]
		if got.Seed != want.Seed || got.Model != want.Model {
			t.Fatalf("search %d is seed %d %s, golden has seed %d %s", i, got.Seed, got.Model, want.Seed, want.Model)
		}
		if !ordersEqual(got.Send, want.Send) || !ordersEqual(got.Return, want.Return) || got.RhoBits != want.RhoBits {
			t.Errorf("seed %d %s: winner (%v, %v) ρ=%.17g, golden (%v, %v) ρ=%.17g",
				got.Seed, got.Model, got.Send, got.Return, math.Float64frombits(got.RhoBits),
				want.Send, want.Return, math.Float64frombits(want.RhoBits))
		}
		if got.Nodes > want.Nodes || got.Leaves > want.Leaves {
			t.Errorf("seed %d %s: %d nodes, %d leaves; golden %d nodes, %d leaves",
				got.Seed, got.Model, got.Nodes, got.Leaves, want.Nodes, want.Leaves)
		}
		total.add(got)
		goldenTotal.add(want)
	}
	t.Logf("%d searches: outer-pruned %d, nodes %d, pruned %d (screened %d), leaves %d; golden %d, %d, %d, %d",
		len(runs), total.OuterPruned, total.Nodes, total.Pruned, total.Screened, total.Leaves,
		goldenTotal.OuterPruned, goldenTotal.Nodes, goldenTotal.Pruned, goldenTotal.Leaves)
}

// BenchmarkPairServedShapeInverse times what the return-prefix bounds'
// maintained inverse is worth to the search itself: each iteration runs
// the 40 served-shape pair searches of servedShapeRuns once with the
// inverse updated per Push (the default) and once with every node's
// matrix factorised from scratch, alternating which goes first, and the
// median of the per-iteration time ratios is reported as refactor/update.
// Both sides see the same host load, so the ratio holds still on a shared
// machine. dlsgate pairsearch gates it at >= 1.5.
func BenchmarkPairServedShapeInverse(b *testing.B) {
	timed := func(refactor bool) time.Duration {
		pairRefactorBounds = refactor
		defer func() { pairRefactorBounds = false }()
		start := time.Now()
		servedShapeRuns(b)
		return time.Since(start)
	}
	ratios := make([]float64, b.N)
	for i := range ratios {
		var tu, tr time.Duration
		if i%2 == 0 {
			tu = timed(false)
			tr = timed(true)
		} else {
			tr = timed(true)
			tu = timed(false)
		}
		ratios[i] = float64(tr) / float64(tu)
	}
	b.StopTimer()
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "refactor/update")
}
