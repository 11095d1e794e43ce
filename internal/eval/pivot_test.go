package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/schedule"
)

// pivotScenarioDraw draws a scenario for the pivot tier: a platform of one
// of childBoundsPlatform's six families (common or independent z; plain,
// tied or 1e±6-scaled links) with q workers, a random send order and the
// return order of rank retRank among the q! permutations.
func pivotScenarioDraw(seed int64, n, family uint8, twoPort bool, retRank uint16) Scenario {
	rng := rand.New(rand.NewSource(seed))
	q := 2 + int(n%7)
	p := childBoundsPlatform(rng, q, family)
	model := schedule.OnePort
	if twoPort {
		model = schedule.TwoPort
	}
	send := platform.Order(rng.Perm(q))
	return Scenario{Platform: p, Send: send, Return: unrankOrder(q, int(retRank)), Model: model}
}

// unrankOrder returns the permutation of rank r (mod q!) of 0..q-1 in
// lexicographic order.
func unrankOrder(q, r int) platform.Order {
	fact := 1
	for i := 2; i <= q; i++ {
		fact *= i
	}
	r %= fact
	left := make([]int, q)
	for i := range left {
		left[i] = i
	}
	out := make(platform.Order, 0, q)
	for i := q; i >= 1; i-- {
		fact /= i
		k := r / fact
		r %= fact
		out = append(out, left[k])
		left = append(left[:k], left[k+1:]...)
	}
	return out
}

// checkScenarioAgreement evaluates sc along every Auto route that can
// reach the pivot tier — Session.Throughput, the pair search's leaf
// (Bound after each Push, LeafThroughput where the leaf's all-tight
// candidate does not certify) and the one-shot ReturnPrefixBound at every
// prefix of σ2's commitment tail — and requires each to answer from a
// certified tier, without a simplex fallback. Every scenario value must
// also sit within 1e-12 relative of the rational optimum; with relaxations
// set, so must every ReturnPrefixBound value.
func checkScenarioAgreement(t *testing.T, sess *Session, sc Scenario, relaxations bool) {
	t.Helper()
	where := func() string {
		return fmt.Sprintf("σ1=%v σ2=%v model=%v\n%s", sc.Send, sc.Return, sc.Model, sc.Platform)
	}
	agree := func(route string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("%s: %.17g, exact %.17g (%.2g relative)\n%s", route, got, want, (got-want)/want, where())
		}
	}
	before := SimplexFallbacks()
	rho, err := sess.Throughput(sc, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if backend, fallback := sess.Backend(); fallback {
		t.Fatalf("Auto fell back to the %s\n%s", backend, where())
	}
	rp, err := sess.NewReturnPrefix(sc.Platform, sc.Model, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Reset(sc.Send); err != nil {
		t.Fatal(err)
	}
	tail := commitTail(sc)
	for _, pos := range tail {
		rp.Push(pos)
		rp.Bound()
	}
	leaf, certified, ok := rp.Bound()
	if !ok || !certified {
		if leaf, err = rp.LeafThroughput(); err != nil {
			t.Fatal(err)
		}
	}
	bounds := make([]float64, len(tail))
	for k := range tail {
		if bounds[k], err = sess.ReturnPrefixBound(sc.Platform, sc.Send, sc.Model, tail[:k+1]); err != nil {
			t.Fatalf("%v\n%s", err, where())
		}
	}
	if n := SimplexFallbacks() - before; n != 0 {
		t.Fatalf("%d simplex fallbacks\n%s", n, where())
	}
	want, _, err := ExactObjective(sc)
	if err != nil {
		t.Fatal(err)
	}
	agree("Throughput", rho, want)
	agree("leaf", leaf, want)
	agree("ReturnPrefixBound (full tail)", bounds[len(tail)-1], want)
	if !relaxations {
		return
	}
	for k := range tail {
		if k < len(tail)-1 {
			want = exactRelaxationOptimum(t, sc.Platform, sc.Send, sc.Model, tail[:k+1])
		}
		agree(fmt.Sprintf("ReturnPrefixBound(%v)", tail[:k+1]), bounds[k], want)
	}
}

// FuzzScenarioAgreement holds Auto to exact arithmetic on random (σ1, σ2)
// scenarios of 2 to 8 workers under both port models, with tied links and
// link costs scaled by 1e±6 among the families (see pivotScenarioDraw and
// checkScenarioAgreement). A fallback-free answer also means the pivot
// tier ended within its pivot cap. The committed corpus holds the
// z-1e6-ratios leaf of FuzzReturnPrefixChildBounds' corpus, whose
// relaxation the float simplex overstates by 4.3e-7 relative, and a
// two-port scenario whose depth-1 relaxation is bound by the receive port.
func FuzzScenarioAgreement(f *testing.F) {
	for family := uint8(0); family < 6; family++ {
		f.Add(int64(family)+1, uint8(4), family, family%3 == 2, uint16(7*family+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, family uint8, twoPort bool, retRank uint16) {
		checkScenarioAgreement(t, NewSession(), pivotScenarioDraw(seed, n, family, twoPort, retRank), true)
	})
}

// TestPivotCertifiesCorpus runs the fuzz target's scenario families as a
// fixed corpus: 100 scenarios per family and port model, every route of
// every one answered without a simplex fallback and within 1e-12 of the
// scenario's exact optimum; one in ten also has every
// ReturnPrefixBound checked against the exact relaxation optimum.
func TestPivotCertifiesCorpus(t *testing.T) {
	sess := NewSession()
	for family := uint8(0); family < 6; family++ {
		for _, twoPort := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(family)*2 + 1))
			for trial := 0; trial < 100; trial++ {
				sc := pivotScenarioDraw(rng.Int63(), uint8(rng.Intn(256)), family, twoPort, uint16(rng.Intn(1<<16)))
				checkScenarioAgreement(t, sess, sc, trial%10 == 0)
			}
		}
	}
}

// TestPivotAllocationFree: once a session's buffers have grown, the pivot
// tier allocates nothing per call, through Auto on a general pair as
// through the pair search's leaf routine.
func TestPivotAllocationFree(t *testing.T) {
	sc := pivotScenarioDraw(5, 6, 1, false, 1234)
	sess := NewSession()
	full := make([]float64, len(sc.Send)*len(sc.Send))
	buildTightBase(full, sc.Platform, sc.Send)
	sess.addReturnTerms(full, sc.Platform, sc.Send, sc.Return)
	if _, ok := sess.pivotLoads(sc.Platform, sc.Send, sc.Model, full); !ok {
		t.Fatal("scenario not certified")
	}
	if n := testing.AllocsPerRun(100, func() { sess.pivotLoads(sc.Platform, sc.Send, sc.Model, full) }); n != 0 {
		t.Errorf("pivotLoads: %v allocs per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sess.ThroughputTrusted(sc, Auto) }); n != 0 {
		t.Errorf("ThroughputTrusted: %v allocs per call", n)
	}
}

// commitTail returns the send positions of sc's return order in the pair
// search's commitment order, the last returner first.
func commitTail(sc Scenario) []int {
	pos := make(map[int]int, len(sc.Send))
	for k, i := range sc.Send {
		pos[i] = k
	}
	tail := make([]int, 0, len(sc.Return))
	for k := len(sc.Return) - 1; k >= 0; k-- {
		tail = append(tail, pos[sc.Return[k]])
	}
	return tail
}
