package dls

import (
	"math/rand"
	"testing"
)

// TestCacheKeyInjective: fields that print alike must not collide in the
// key — digit runs across order elements, an order moving between send
// and return, an affine payload present or absent.
func TestCacheKeyInjective(t *testing.T) {
	p := NewPlatform(Worker{C: 1, W: 2, D: 3}, Worker{C: 2, W: 3, D: 4})
	base := Request{Platform: p, Strategy: StrategyScenario}
	zero := ZeroAffine(2)
	variants := map[string]Request{
		"send [1,23]":    {Platform: p, Strategy: StrategyScenario, Send: Order{1, 23}},
		"send [12,3]":    {Platform: p, Strategy: StrategyScenario, Send: Order{12, 3}},
		"send [1,2,3]":   {Platform: p, Strategy: StrategyScenario, Send: Order{1, 2, 3}},
		"return [1,23]":  {Platform: p, Strategy: StrategyScenario, Return: Order{1, 23}},
		"affine":         {Platform: p, Strategy: StrategyScenario, Affine: &zero},
		"two-port":       {Platform: p, Strategy: StrategyScenario, Model: TwoPort},
		"exact":          {Platform: p, Strategy: StrategyScenario, Arith: Exact},
		"eval direct":    {Platform: p, Strategy: StrategyScenario, Eval: EvalDirect},
		"other strategy": {Platform: p, Strategy: StrategyScenarioAffine},
		"other platform": {Platform: NewPlatform(Worker{C: 1, W: 2, D: 3}), Strategy: StrategyScenario},
		"no affine":      base,
	}
	seen := map[string]string{}
	for name, req := range variants {
		key := req.cacheKey()
		if other, ok := seen[key]; ok {
			t.Errorf("%s and %s share the cache key %q", name, other, key)
		}
		seen[key] = name
	}
	// Load and worker names never reach the key.
	renamed := base
	renamed.Platform = NewPlatform(Worker{Name: "a", C: 1, W: 2, D: 3}, Worker{Name: "b", C: 2, W: 3, D: 4})
	renamed.Load = 10
	if renamed.cacheKey() != base.cacheKey() {
		t.Errorf("names or load changed the key: %q vs %q", renamed.cacheKey(), base.cacheKey())
	}
}

// TestCacheKeyAllocs: building a key allocates only the key string.
func TestCacheKeyAllocs(t *testing.T) {
	p := RandomSpeeds(rand.New(rand.NewSource(1)), 12, Heterogeneous).Platform(DefaultApp(2000))
	zero := ZeroAffine(12)
	req := Request{Platform: p, Strategy: StrategyFIFOOrder, Send: p.ByC(), Affine: &zero}
	if n := testing.AllocsPerRun(100, func() { _ = req.cacheKey() }); n > 1 {
		t.Errorf("cacheKey allocates %.0f times, want 1", n)
	}
}
