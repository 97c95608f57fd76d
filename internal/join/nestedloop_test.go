package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
)

func TestNestedLoopMeasuredEqualsAnalytical(t *testing.T) {
	// The paper "calculated analytical results for nested-loops join";
	// our closed form must agree exactly with the implementation's
	// counted I/O across memory sizes and relation shapes.
	cases := []struct {
		n, m, memory int
	}{
		{300, 300, 5},
		{300, 300, 12},
		{1000, 200, 6},
		{200, 1000, 6},
		{50, 50, 100}, // whole outer fits in one block
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(int64(c.n + c.m + c.memory)))
		w := workload{keys: 50, n: c.n, longEvery: 6, lifespan: 2000}
		ws := workload{keys: 50, n: c.m, longEvery: 6, lifespan: 2000}
		d := disk.New(page.DefaultSize)
		r := load(t, d, empSchema, w.generate(rng, 1))
		s := load(t, d, deptSchema, ws.generate(rng, 2))

		d.ResetCounters()
		var sink relation.CountSink
		rep, err := NestedLoop(r, s, &sink, Spec{MemoryPages: c.memory})
		if err != nil {
			t.Fatal(err)
		}
		for _, wts := range []cost.Weights{cost.Ratio(2), cost.Ratio(5), cost.Ratio(10)} {
			measured := rep.Cost(wts)
			analytical := NestedLoopCost(mustPages(t, r), mustPages(t, s), c.memory, wts)
			if measured != analytical {
				t.Fatalf("n=%d m=%d M=%d w=%v: measured %g != analytical %g",
					c.n, c.m, c.memory, wts, measured, analytical)
			}
		}
	}
}

func TestNestedLoopCostEdgeCases(t *testing.T) {
	w := cost.Ratio(5)
	if NestedLoopCost(0, 100, 10, w) != 0 {
		t.Fatal("empty outer should cost 0")
	}
	if NestedLoopCost(100, 100, 2, w) != 0 {
		t.Fatal("invalid memory should cost 0")
	}
	// One block: outer scan + one inner scan.
	got := NestedLoopCost(8, 4, 10, w)
	want := (5 + 7.0) + (5 + 3.0)
	if got != want {
		t.Fatalf("got %g, want %g", got, want)
	}
	// Empty inner: just the outer scan.
	got = NestedLoopCost(8, 0, 10, w)
	if got != 5+7.0 {
		t.Fatalf("empty inner: got %g", got)
	}
}

func TestNestedLoopCostImprovesWithMemory(t *testing.T) {
	w := cost.Ratio(5)
	prev := NestedLoopCost(1000, 1000, 4, w)
	for _, m := range []int{8, 16, 64, 256, 1002} {
		cur := NestedLoopCost(1000, 1000, m, w)
		if cur > prev {
			t.Fatalf("cost increased with memory: M=%d: %g > %g", m, cur, prev)
		}
		prev = cur
	}
	// With the whole outer in memory: a single scan of each relation.
	onePass := NestedLoopCost(1000, 1000, 1002, w)
	want := (5 + 999.0) + (5 + 999.0)
	if onePass != want {
		t.Fatalf("one-block cost %g, want %g", onePass, want)
	}
}
