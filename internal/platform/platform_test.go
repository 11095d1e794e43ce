package platform

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAssignsNames(t *testing.T) {
	p := New(Worker{C: 1, W: 2, D: 0.5}, Worker{Name: "fast", C: 1, W: 1, D: 0.5})
	if p.Workers[0].Name != "P1" {
		t.Errorf("worker 0 name = %q, want P1", p.Workers[0].Name)
	}
	if p.Workers[1].Name != "fast" {
		t.Errorf("worker 1 name = %q, want fast (explicit names preserved)", p.Workers[1].Name)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       *Platform
		wantErr bool
	}{
		{"ok", New(Worker{C: 1, W: 1, D: 1}), false},
		{"empty", New(), true},
		{"zero c", New(Worker{C: 0, W: 1, D: 1}), true},
		{"negative w", New(Worker{C: 1, W: -1, D: 1}), true},
		{"zero d", New(Worker{C: 1, W: 1, D: 0}), true},
		{"nan", New(Worker{C: math.NaN(), W: 1, D: 1}), true},
		{"inf", New(Worker{C: 1, W: math.Inf(1), D: 1}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestZDetection(t *testing.T) {
	p := New(
		Worker{C: 2, W: 1, D: 1},
		Worker{C: 4, W: 3, D: 2},
		Worker{C: 10, W: 2, D: 5},
	)
	z, ok := p.Z()
	if !ok || math.Abs(z-0.5) > 1e-12 {
		t.Errorf("Z() = %g, %v; want 0.5, true", z, ok)
	}
	p.Workers[1].D = 3 // breaks the common ratio
	if _, ok := p.Z(); ok {
		t.Error("Z() should not exist after perturbation")
	}
	empty := &Platform{}
	if _, ok := empty.Z(); ok {
		t.Error("Z() on empty platform must report false")
	}
}

func TestIsBus(t *testing.T) {
	bus := NewBus(2, 1, 1, 5, 3)
	if !bus.IsBus() {
		t.Error("NewBus platform must be a bus")
	}
	star := New(Worker{C: 1, W: 1, D: 0.5}, Worker{C: 2, W: 1, D: 1})
	if star.IsBus() {
		t.Error("star with distinct links must not be a bus")
	}
	if (&Platform{}).IsBus() {
		t.Error("empty platform must not be a bus")
	}
}

func TestOrders(t *testing.T) {
	p := New(
		Worker{C: 3, W: 1, D: 1.5},
		Worker{C: 1, W: 3, D: 0.5},
		Worker{C: 2, W: 2, D: 1},
	)
	if got := p.ByC(); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("ByC() = %v, want [1 2 0]", got)
	}
	if got := p.ByCDesc(); got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Errorf("ByCDesc() = %v, want [0 2 1]", got)
	}
	if got := p.ByW(); got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Errorf("ByW() = %v, want [0 2 1]", got)
	}
}

func TestOrderHelpers(t *testing.T) {
	o := Identity(4)
	if !o.Valid(4) {
		t.Error("identity must be valid")
	}
	r := o.Reverse()
	if r[0] != 3 || r[3] != 0 {
		t.Errorf("Reverse() = %v", r)
	}
	if o.Valid(3) || (Order{0, 0, 1}).Valid(3) || (Order{0, 1, 5}).Valid(3) {
		t.Error("Valid accepted an invalid order")
	}
	c := o.Clone()
	c[0] = 9
	if o[0] == 9 {
		t.Error("Clone aliases")
	}
}

func TestPermuted(t *testing.T) {
	p := New(Worker{C: 1, W: 1, D: 1}, Worker{C: 2, W: 2, D: 2})
	q := p.Permuted(Order{1, 0})
	if q.Workers[0].C != 2 || q.Workers[1].C != 1 {
		t.Errorf("Permuted wrong: %v", q)
	}
	defer func() {
		if recover() == nil {
			t.Error("Permuted with invalid order must panic")
		}
	}()
	p.Permuted(Order{0, 0})
}

func TestScaling(t *testing.T) {
	p := New(Worker{C: 2, W: 4, D: 1})
	q := p.ScaleComputation(0.1)
	if q.Workers[0].W != 0.4 || q.Workers[0].C != 2 {
		t.Errorf("ScaleComputation: %+v", q.Workers[0])
	}
	r := p.ScaleCommunication(0.1)
	if r.Workers[0].C != 0.2 || r.Workers[0].D != 0.1 || r.Workers[0].W != 4 {
		t.Errorf("ScaleCommunication: %+v", r.Workers[0])
	}
	if p.Workers[0].W != 4 || p.Workers[0].C != 2 {
		t.Error("scaling mutated the receiver")
	}
}

func TestStringContainsEssentials(t *testing.T) {
	p := NewBus(2, 1, 3)
	s := p.String()
	for _, want := range []string{"1 workers", "c=2", "w=3", "d=1", "z = d/c = 0.5", "(bus)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := New(Worker{Name: "a", C: 1.5, W: 2.25, D: 0.75})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Platform
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Workers[0] != p.Workers[0] {
		t.Errorf("round trip changed worker: %+v != %+v", q.Workers[0], p.Workers[0])
	}
	// Unmarshal validates.
	if err := json.Unmarshal([]byte(`{"workers":[{"c":0,"w":1,"d":1}]}`), &q); err == nil {
		t.Error("Unmarshal of invalid platform must fail validation")
	}
	// Missing names are filled in (fresh destination: Unmarshal merges into
	// pre-existing slice elements otherwise).
	var fresh Platform
	if err := json.Unmarshal([]byte(`{"workers":[{"c":1,"w":1,"d":1}]}`), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Workers[0].Name != "P1" {
		t.Errorf("name not defaulted: %q", fresh.Workers[0].Name)
	}
}

func TestAppCosts(t *testing.T) {
	a := DefaultApp(100)
	if a.BytesIn() != 160000 || a.BytesOut() != 80000 {
		t.Errorf("message sizes: in=%g out=%g", a.BytesIn(), a.BytesOut())
	}
	if a.Flops() != 2e6 {
		t.Errorf("flops = %g, want 2e6", a.Flops())
	}
	if a.Z() != 0.5 {
		t.Errorf("Z = %g, want 0.5 (matrix product)", a.Z())
	}
	w := a.Costs(2, 4, "x")
	if math.Abs(w.C-160000/(2*DefaultBandwidth)) > 1e-15 {
		t.Errorf("C = %g", w.C)
	}
	if math.Abs(w.W-2e6/(4*DefaultFlopRate)) > 1e-15 {
		t.Errorf("W = %g", w.W)
	}
	if math.Abs(w.D/w.C-0.5) > 1e-12 {
		t.Errorf("per-worker z = %g, want 0.5", w.D/w.C)
	}
}

func TestSpeedsPlatform(t *testing.T) {
	s := Speeds{Comm: []float64{1, 2}, Comp: []float64{1, 4}}
	p := s.Platform(DefaultApp(50))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Workers[0].C <= p.Workers[1].C {
		t.Error("faster comm speed must give lower cost")
	}
	if z, ok := p.Z(); !ok || math.Abs(z-0.5) > 1e-12 {
		t.Errorf("z = %g, %v", z, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched speeds must panic")
		}
	}()
	Speeds{Comm: []float64{1}, Comp: []float64{1, 2}}.Platform(DefaultApp(50))
}

func TestSpeedsScaling(t *testing.T) {
	s := Speeds{Comm: []float64{1, 2}, Comp: []float64{3, 4}}
	sc := s.ScaleComp(10)
	if sc.Comp[0] != 30 || sc.Comp[1] != 40 || sc.Comm[0] != 1 {
		t.Errorf("ScaleComp: %+v", sc)
	}
	sm := s.ScaleComm(10)
	if sm.Comm[0] != 10 || sm.Comm[1] != 20 || sm.Comp[0] != 3 {
		t.Errorf("ScaleComm: %+v", sm)
	}
	if s.Comp[0] != 3 || s.Comm[0] != 1 {
		t.Error("scaling mutated the receiver")
	}
}

func TestRandomSpeedsFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p = 11

	hom := RandomSpeeds(rng, p, Homogeneous)
	for i := 1; i < p; i++ {
		if hom.Comm[i] != hom.Comm[0] || hom.Comp[i] != hom.Comp[0] {
			t.Fatalf("homogeneous family must share speeds: %+v", hom)
		}
	}

	hc := RandomSpeeds(rng, p, HomCommHeteroComp)
	for i := 1; i < p; i++ {
		if hc.Comm[i] != hc.Comm[0] {
			t.Fatalf("hom-comm family must share comm speed: %+v", hc)
		}
	}

	het := RandomSpeeds(rng, p, Heterogeneous)
	if het.P() != p {
		t.Fatalf("P() = %d", het.P())
	}
	for i := 0; i < p; i++ {
		for _, v := range []float64{het.Comm[i], het.Comp[i]} {
			if v < 1 || v > 10 || v != math.Trunc(v) {
				t.Fatalf("speed %g outside integer range 1..10", v)
			}
		}
	}
}

func TestRandomSpeedsDeterministic(t *testing.T) {
	a := RandomSpeeds(rand.New(rand.NewSource(7)), 5, Heterogeneous)
	b := RandomSpeeds(rand.New(rand.NewSource(7)), 5, Heterogeneous)
	for i := range a.Comm {
		if a.Comm[i] != b.Comm[i] || a.Comp[i] != b.Comp[i] {
			t.Fatal("same seed must give same speeds")
		}
	}
}

func TestRandomSpeedsUnknownFamily(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown family must panic")
		}
	}()
	RandomSpeeds(rand.New(rand.NewSource(1)), 3, Family(99))
}

func TestFamilyString(t *testing.T) {
	if Homogeneous.String() == "" || HomCommHeteroComp.String() == "" ||
		Heterogeneous.String() == "" || Family(9).String() == "" {
		t.Error("Family.String must never be empty")
	}
}

func TestFig14Speeds(t *testing.T) {
	s := Fig14Speeds(3)
	if s.P() != 4 {
		t.Fatalf("P() = %d, want 4", s.P())
	}
	want := Speeds{Comm: []float64{10, 8, 8, 3}, Comp: []float64{9, 9, 10, 1}}
	for i := 0; i < 4; i++ {
		if s.Comm[i] != want.Comm[i] || s.Comp[i] != want.Comp[i] {
			t.Errorf("worker %d: got (%g,%g), want (%g,%g)", i, s.Comm[i], s.Comp[i], want.Comm[i], want.Comp[i])
		}
	}
}

// TestQuickGeneratedPlatformsValid: every generated platform must validate
// and carry the application's z.
func TestQuickGeneratedPlatformsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fam := Family(rng.Intn(3))
		sp := RandomSpeeds(rng, 1+rng.Intn(12), fam)
		p := sp.Platform(DefaultApp(40 + rng.Intn(160)))
		if err := p.Validate(); err != nil {
			t.Logf("invalid platform: %v", err)
			return false
		}
		z, ok := p.Z()
		return ok && math.Abs(z-0.5) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickByCSorted: ByC must always return a valid permutation sorted by C.
func TestQuickByCSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := RandomSpeeds(rng, 1+rng.Intn(12), Heterogeneous)
		p := sp.Platform(DefaultApp(100))
		o := p.ByC()
		if !o.Valid(p.P()) {
			return false
		}
		for i := 1; i < len(o); i++ {
			if p.Workers[o[i-1]].C > p.Workers[o[i]].C {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderRulesMatchSliceStable: the order rules give the orders
// sort.SliceStable gives, ties included, on platforms whose costs are
// drawn from three values (p up to 48, past the stable sort's 20-element
// insertion blocks).
func TestQuickOrderRulesMatchSliceStable(t *testing.T) {
	ref := func(p *Platform, less func(a, b Worker) bool) Order {
		o := Identity(p.P())
		sort.SliceStable(o, func(a, b int) bool { return less(p.Workers[o[a]], p.Workers[o[b]]) })
		return o
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := make([]Worker, 1+rng.Intn(48))
		for i := range ws {
			ws[i] = Worker{C: float64(1 + rng.Intn(3)), W: float64(1 + rng.Intn(3)), D: 1}
		}
		p := New(ws...)
		return slices.Equal(p.ByC(), ref(p, func(a, b Worker) bool { return a.C < b.C })) &&
			slices.Equal(p.ByCDesc(), ref(p, func(a, b Worker) bool { return a.C > b.C })) &&
			slices.Equal(p.ByW(), ref(p, func(a, b Worker) bool { return a.W < b.W }))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFingerprint: equal costs share a fingerprint (names ignored); any
// cost change, reorder, or resize produces a distinct one.
func TestFingerprint(t *testing.T) {
	a := New(Worker{Name: "x", C: 0.1, W: 0.5, D: 0.05}, Worker{Name: "y", C: 0.2, W: 0.3, D: 0.1})
	b := New(Worker{Name: "other", C: 0.1, W: 0.5, D: 0.05}, Worker{C: 0.2, W: 0.3, D: 0.1})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must ignore worker names")
	}
	variants := []*Platform{
		New(Worker{C: 0.1, W: 0.5, D: 0.05}, Worker{C: 0.2, W: 0.3, D: 0.10000001}),
		New(Worker{C: 0.2, W: 0.3, D: 0.1}, Worker{C: 0.1, W: 0.5, D: 0.05}), // reordered
		New(Worker{C: 0.1, W: 0.5, D: 0.05}),                                 // shorter
	}
	for i, v := range variants {
		if v.Fingerprint() == a.Fingerprint() {
			t.Errorf("variant %d collides with the base fingerprint", i)
		}
	}
}
