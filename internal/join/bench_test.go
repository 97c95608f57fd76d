package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// BenchmarkMatcherProbe measures the hash-matcher probe path: one
// outer batch, streamed inner probes, no I/O.
func BenchmarkMatcherProbe(b *testing.B) {
	w := workload{keys: 64, n: 4096, longEvery: 8, lifespan: 100000}
	rng := rand.New(rand.NewSource(1))
	outer := w.generate(rng, 0)
	inner := w.generate(rng, 1)
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		b.Fatal(err)
	}
	m := newPredMatcher(plan, 0, outer)
	sinkFn := func(_ int32, _ tuple.Tuple) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := inner[i%len(inner)]
		if err := m.probeIdx(y, sinkFn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherReset measures rebuilding a matcher over a fresh
// outer batch — the per-partition setup cost the allocation reuse
// targets.
func BenchmarkMatcherReset(b *testing.B) {
	w := workload{keys: 64, n: 4096, longEvery: 8, lifespan: 100000}
	rng := rand.New(rand.NewSource(2))
	outer := w.generate(rng, 0)
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		b.Fatal(err)
	}
	m := newPredMatcher(plan, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.reset(outer)
	}
}

// benchPartition runs the partition join end-to-end over freshly built
// relations; sequential toggles the concurrent engine off.
func benchPartition(b *testing.B, sequential bool) {
	w := workload{keys: 32, n: 8192, longEvery: 6, lifespan: 200000}
	rng := rand.New(rand.NewSource(3))
	rTuples := w.generate(rng, 0)
	sTuples := w.generate(rng, 1)
	d := disk.New(page.DefaultSize)
	r, err := relation.FromTuples(d, empSchema, rTuples)
	if err != nil {
		b.Fatal(err)
	}
	s, err := relation.FromTuples(d, deptSchema, sTuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink relation.CountSink
		_, _, err := Partition(r, s, &sink, Spec{
			MemoryPages: 32,
			Weights:     cost.Ratio(5),
			Rng:         rand.New(rand.NewSource(4)),
			Sequential:  sequential,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionJoin(b *testing.B)           { benchPartition(b, false) }
func BenchmarkPartitionJoinSequential(b *testing.B) { benchPartition(b, true) }

// BenchmarkProbeBatchKeyed compares the kernels head to head on the
// batch probe path: a dense-keyed, high-overlap workload where the
// scan kernel rescans large buckets per probe and the sweep's active
// lists pay off.
func BenchmarkProbeBatchKeyed(b *testing.B) {
	w := workload{keys: 64, n: 4096, longEvery: 8, lifespan: 100000}
	rng := rand.New(rand.NewSource(5))
	outer := w.generate(rng, 0)
	inner := w.generate(rng, 1)
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	sinkFn := func(_ int32, _ tuple.Tuple) error { return nil }
	for _, k := range []Kernel{KernelScan, KernelSweep} {
		b.Run(k.String(), func(b *testing.B) {
			m := newKernelMatcher(plan, chronon.MaskIntersects, k, outer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % len(inner)
				hi := lo + batch
				if hi > len(inner) {
					hi = len(inner)
				}
				if err := m.probeBatch(inner[lo:hi], sinkFn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeBatchTimeJoin is the same comparison on a pure
// time-join, where the scan kernel rescans the start-ordered outer
// prefix per probe.
func BenchmarkProbeBatchTimeJoin(b *testing.B) {
	xSchema := schema.MustNew(schema.Column{Name: "x", Kind: value.KindInt})
	ySchema := schema.MustNew(schema.Column{Name: "y", Kind: value.KindInt})
	plan, err := schema.PlanNaturalJoin(xSchema, ySchema)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	gen := func(n int) []tuple.Tuple {
		out := make([]tuple.Tuple, 0, n)
		for i := 0; i < n; i++ {
			s := chronon.Chronon(rng.Int63n(100000))
			iv := chronon.New(s, s+chronon.Chronon(rng.Int63n(5000)))
			out = append(out, tuple.New(iv, value.Int(int64(i))))
		}
		return out
	}
	outer := gen(2048)
	inner := gen(2048)
	const batch = 256
	sinkFn := func(_ int32, _ tuple.Tuple) error { return nil }
	for _, k := range []Kernel{KernelScan, KernelSweep} {
		b.Run(k.String(), func(b *testing.B) {
			m := newKernelMatcher(plan, chronon.MaskIntersects, k, outer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % len(inner)
				hi := lo + batch
				if hi > len(inner) {
					hi = len(inner)
				}
				if err := m.probeBatch(inner[lo:hi], sinkFn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
