package core

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// orderSearch is one FIFO or LIFO order search of a family.
type orderSearch struct {
	p     *platform.Platform
	model schedule.Model
	lifo  bool
}

// orderSweepFamily is a fixed corpus of order searches on which changes to
// the p! sweep are measured.
type orderSweepFamily struct {
	name     string
	searches []orderSearch
}

// portBoundPlatform draws internal/eval's port-bound platform: eight
// workers with cheap, d-heavy links and slow computation, so the one-port
// constraint binds and the optimum is a port-tight vertex.
func portBoundPlatform(seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]platform.Worker, 8)
	for i := range ws {
		ws[i] = platform.Worker{
			C: 0.05 + 0.05*rng.Float64(),
			D: 0.1 + 0.1*rng.Float64(),
			W: 0.5 + 0.5*rng.Float64(),
		}
	}
	return platform.New(ws...)
}

// orderSweepFamilies builds the five families of BENCH.md's sweep
// sections:
//   - mix-1port / mix-2port: dlsload -mix search's platforms (seed 1,
//     60 platforms of p = 7 with independently drawn return speeds), FIFO
//     and LIFO, one-port and two-port;
//   - port-bound: portBoundPlatform seeds 1–6, FIFO one-port;
//   - large-z: TestLargeZCorpora's 400 distinctStar platforms
//     (z = 1e5, 1e6), FIFO one-port;
//   - common-z: 8 DefaultApp(400) platforms of p = 8 (seed 1), FIFO and
//     LIFO under both models.
func orderSweepFamilies() []orderSweepFamily {
	var mix1, mix2 []orderSearch
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		p := platform.RandomSpeeds(rng, 7, platform.Heterogeneous).Platform(platform.DefaultApp(100))
		for k := range p.Workers {
			p.Workers[k].D *= float64(1+rng.Intn(10)) / float64(1+rng.Intn(10))
		}
		for _, lifo := range []bool{false, true} {
			mix1 = append(mix1, orderSearch{p, schedule.OnePort, lifo})
			mix2 = append(mix2, orderSearch{p, schedule.TwoPort, lifo})
		}
	}
	var portBound []orderSearch
	for seed := int64(1); seed <= 6; seed++ {
		portBound = append(portBound, orderSearch{portBoundPlatform(seed), schedule.OnePort, false})
	}
	var largeZ []orderSearch
	for _, z := range []float64{1e5, 1e6} {
		rng := rand.New(rand.NewSource(int64(z)))
		for i := 0; i < 200; i++ {
			largeZ = append(largeZ, orderSearch{distinctStar(rng, 4+rng.Intn(3), z), schedule.OnePort, false})
		}
	}
	var commonZ []orderSearch
	rng = rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		p := platform.RandomSpeeds(rng, 8, platform.Heterogeneous).Platform(platform.DefaultApp(400))
		for _, model := range []schedule.Model{schedule.OnePort, schedule.TwoPort} {
			for _, lifo := range []bool{false, true} {
				commonZ = append(commonZ, orderSearch{p, model, lifo})
			}
		}
	}
	return []orderSweepFamily{
		{"mix-1port", mix1}, {"mix-2port", mix2}, {"port-bound", portBound},
		{"large-z", largeZ}, {"common-z", commonZ},
	}
}

// BenchmarkOrderSweepFamilies times each family's searches, serially and
// in process, one sub-benchmark per family. The digest metric is the low
// 32 bits of an FNV-1a hash over every search's winning order and
// throughput bits: two trees whose sweeps pick the same winners with the
// same values report the same digest.
func BenchmarkOrderSweepFamilies(b *testing.B) {
	ctx := ContextWithSearchParallelism(context.Background(), 1)
	for _, fam := range orderSweepFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			var digest uint64
			for i := 0; i < b.N; i++ {
				h := fnv.New64a()
				var buf [8]byte
				put := func(v uint64) {
					for k := range buf {
						buf[k] = byte(v >> (8 * k))
					}
					h.Write(buf[:])
				}
				for _, s := range fam.searches {
					search := BestFIFOExhaustiveEval
					if s.lifo {
						search = BestLIFOExhaustiveEval
					}
					sched, order, err := search(ctx, s.p, s.model, eval.Auto)
					if err != nil {
						b.Fatal(err)
					}
					for _, w := range order {
						put(uint64(w))
					}
					put(math.Float64bits(sched.Throughput()))
				}
				digest = h.Sum64()
			}
			b.ReportMetric(float64(digest&math.MaxUint32), "digest")
			b.ReportMetric(float64(len(fam.searches)), "searches/op")
		})
	}
}
