//go:build !race

// Allocation-count regressions for the matching kernels. Excluded
// under the race detector, whose instrumentation allocates and would
// make testing.AllocsPerRun report false positives.
//
// Result tuples necessarily allocate (tuple.Combine builds a value
// slice), so each test arranges for probes to walk real buckets
// without emitting: either time-disjoint batches (the hash path, which
// walks buckets regardless of time) or overlapping batches with
// parity-distinct endpoints under the equal-interval predicate (the
// sweep paths, which admit and compact active tuples but never pass
// the predicate).
package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// genBatch builds n tuples with keys in [0, keys) and intervals of the
// given start parity inside [base, base+span] — two batches with
// different parities overlap heavily but never satisfy MaskEqual.
func genBatch(rng *rand.Rand, keys int64, n int, base, span, parity int64) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		s := chronon.Chronon(base + 2*rng.Int63n(span/2) + parity)
		iv := chronon.New(s, s+chronon.Chronon(rng.Int63n(span/4+1)))
		out = append(out, tuple.New(iv, value.Int(rng.Int63n(keys)), value.Int(int64(i))))
	}
	return out
}

func TestProbeIdxAllocFree(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	// Time-disjoint batches: probes hash and walk full key buckets,
	// and Combine rejects every pair on interval overlap before its
	// allocation.
	outer := genBatch(rng, 16, 512, 0, 10000, 0)
	inner := genBatch(rng, 16, 512, 50000, 10000, 0)
	m := newKernelMatcher(plan, chronon.MaskIntersects, KernelScan, outer)
	sink := func(_ int32, _ tuple.Tuple) error { return nil }
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.probeIdx(inner[i%len(inner)], sink); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("probeIdx allocated %.1f times per probe, want 0", allocs)
	}
}

func TestSweepKeyedAllocFree(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	// Heavily overlapping batches with parity-distinct starts: the
	// sweep admits, probes, and compacts its active buckets on every
	// event, but MaskEqual never holds so nothing is emitted.
	outer := genBatch(rng, 16, 512, 0, 10000, 0)
	inner := genBatch(rng, 16, 512, 0, 10000, 1)
	m := newKernelMatcher(plan, chronon.MaskEqual, KernelSweep, outer)
	sink := func(_ int32, _ tuple.Tuple) error { return nil }
	// Warm-up batch: the first sweep sizes the scratch slices and the
	// active-set map buckets, which are reused from then on.
	if err := m.sweepKeyed(inner, sink); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.sweepKeyed(inner, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sweepKeyed allocated %.1f times per batch, want 0", allocs)
	}
}

func TestSweepTimeAllocFree(t *testing.T) {
	a := schema.MustNew(schema.Column{Name: "x", Kind: value.KindInt})
	b := schema.MustNew(schema.Column{Name: "y", Kind: value.KindInt})
	plan, err := schema.PlanNaturalJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	strip := func(ts []tuple.Tuple) []tuple.Tuple {
		out := make([]tuple.Tuple, len(ts))
		for i, x := range ts {
			out[i] = tuple.New(x.V, x.Values[1])
		}
		return out
	}
	outer := strip(genBatch(rng, 16, 512, 0, 10000, 0))
	inner := strip(genBatch(rng, 16, 512, 0, 10000, 1))
	m := newKernelMatcher(plan, chronon.MaskEqual, KernelSweep, outer)
	sink := func(_ int32, _ tuple.Tuple) error { return nil }
	if err := m.probeBatch(inner, sink); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.probeBatch(inner, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sweepTime allocated %.1f times per batch, want 0", allocs)
	}
}

func TestLiveIndexProbeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	window := genBatch(rng, 16, 512, 0, 10000, 0)
	li := newLiveIndex([]int{0})
	li.rebuild(liveEntries(window))
	keyIdx := []int{0}
	sink := func(_ tuple.Tuple) error { return nil }
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		h := tuple.HashAt(window[i%len(window)], keyIdx)
		// Horizon 0 keeps every tuple alive, so the probe walks the
		// full bucket each run without mutating it.
		if err := li.probe(h, 0, sink); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("liveIndex.probe allocated %.1f times per probe, want 0", allocs)
	}
}
