package dls

import (
	"context"
	"math/rand"
	"reflect"
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
		"eval simplex":   {Platform: p, Strategy: StrategyScenario, Eval: EvalSimplex},
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

// TestResultClone: a clone equals its original, shares no memory with
// it, and copies a linear result in three allocations whose orders
// cannot grow into each other.
func TestResultClone(t *testing.T) {
	p := RandomSpeeds(rand.New(rand.NewSource(2)), 6, Heterogeneous).Platform(DefaultApp(2000))
	zero := ZeroAffine(6)
	for _, req := range []Request{
		{Platform: p, Strategy: StrategyLIFO, Load: 100},
		{Platform: p, Strategy: StrategyFIFOAffine, Affine: &zero},
	} {
		res, err := Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		c := res.clone()
		if !reflect.DeepEqual(c, res) {
			t.Fatalf("%s: clone differs:\n%+v\n%+v", req.Strategy, c, res)
		}
		var orders []Order
		if s := c.Schedule; s != nil {
			orders = append(orders, s.SendOrder, s.ReturnOrder)
			for i := range s.Alpha {
				s.Alpha[i]++
			}
		}
		if a := c.Affine; a != nil {
			orders = append(orders, a.Send, a.Return)
			for i := range a.Alpha {
				a.Alpha[i]++
			}
		}
		orders = append(orders, c.Send, c.Return)
		for _, o := range orders {
			if cap(o) != len(o) {
				t.Errorf("%s: cloned order %v has spare capacity %d", req.Strategy, o, cap(o)-len(o))
			}
			for i := range o {
				o[i] = -1
			}
		}
		if back, _ := Solve(context.Background(), req); !reflect.DeepEqual(back, res) {
			t.Errorf("%s: writing to the clone changed the original", req.Strategy)
		}
		if res.Schedule != nil {
			if n := testing.AllocsPerRun(100, func() { _ = res.clone() }); n != 3 {
				t.Errorf("cloning a linear result allocates %.0f times, want 3", n)
			}
		}
	}
}
