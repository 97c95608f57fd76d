package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/trace"
)

// tracePair builds a moderately sized input pair with long-lived
// tuples: large enough to partition into several pieces, spill the
// sort-merge window and migrate the tuple cache, so every instrumented
// code path runs.
func tracePair(t *testing.T) (*disk.Disk, *relation.Relation, *relation.Relation) {
	t.Helper()
	d := disk.New(page.DefaultSize)
	w := workload{keys: 40, n: 3000, longEvery: 15, lifespan: 100000}
	r := load(t, d, empSchema, w.generate(rand.New(rand.NewSource(11)), 1))
	s := load(t, d, deptSchema, w.generate(rand.New(rand.NewSource(22)), 2))
	return d, r, s
}

// runTraced evaluates one algorithm with a tracer attached and returns
// the result tuples, the device movement during the run, and the
// finished root span. Audit is always on: any attribution or invariant
// violation fails the test through the returned error.
func runTraced(t *testing.T, algo Algorithm, sequential bool, tr *trace.Tracer,
	d *disk.Disk, r, s *relation.Relation) (relation.CollectSink, disk.Counters) {
	t.Helper()
	var sink relation.CollectSink
	before := d.Counters()
	_, err := Run(algo, r, s, &sink, Spec{
		MemoryPages: 32,
		Weights:     cost.Ratio(5),
		Rng:         rand.New(rand.NewSource(7)),
		Sequential:  sequential,
		Tracer:      tr,
	})
	if err != nil {
		t.Fatalf("%s (sequential=%v): %v", algo, sequential, err)
	}
	return sink, d.Counters().Sub(before)
}

// TestTraceCountersSumExactly is the attribution invariant end to end:
// for every algorithm, on both the sequential and the concurrent
// engine, the per-span self I/O counters of the finished trace sum
// exactly to the device's global counter movement over the run — and
// the in-process audits (partition coverage, buffer balance, cache
// paging symmetry) hold.
func TestTraceCountersSumExactly(t *testing.T) {
	for _, a := range Algorithms {
		algo := a.Label()
		for _, sequential := range []bool{true, false} {
			t.Run(algo, func(t *testing.T) {
				d, r, s := tracePair(t)
				tr := trace.New(d, algo, trace.Options{Audit: true})
				_, moved := runTraced(t, a, sequential, tr, d, r, s)
				root, err := tr.Finish()
				if err != nil {
					t.Fatalf("audit violations (sequential=%v): %v", sequential, err)
				}
				if got := root.Total(); got != moved {
					t.Fatalf("sequential=%v: spans total %+v, device moved %+v", sequential, got, moved)
				}
				if root.TotalWall() <= 0 {
					t.Fatal("no wall time attributed")
				}
			})
		}
	}
}

// TestTracingChangesNothing: the same join run with and without a
// tracer produces identical result tuples and identical I/O counters.
func TestTracingChangesNothing(t *testing.T) {
	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			dPlain, rPlain, sPlain := tracePair(t)
			plain, plainIO := runTraced(t, a, false, nil, dPlain, rPlain, sPlain)

			dTraced, rTraced, sTraced := tracePair(t)
			tr := trace.New(dTraced, algo, trace.Options{Audit: true})
			traced, tracedIO := runTraced(t, a, false, tr, dTraced, rTraced, sTraced)
			if _, err := tr.Finish(); err != nil {
				t.Fatal(err)
			}

			if plainIO != tracedIO {
				t.Fatalf("counters diverge: untraced %+v, traced %+v", plainIO, tracedIO)
			}
			assertSameResult(t, algo, traced.Tuples, plain.Tuples)
		})
	}
}

// TestTraceSpanStructure spot-checks the recorded tree: the partition
// join carries the planner's candidate curve and per-partition spans,
// sort-merge its sort and merge phases, nested loop its blocks.
func TestTraceSpanStructure(t *testing.T) {
	d, r, s := tracePair(t)
	tr := trace.New(d, "partition", trace.Options{Audit: true})
	runTraced(t, AlgorithmPartition, false, tr, d, r, s)
	root, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	plan := root.Find("plan")
	if plan == nil {
		t.Fatal("no plan span")
	}
	if _, ok := plan.Attrs[trace.CandidatesAttr]; !ok {
		t.Fatalf("plan span has no candidate curve: %v", plan.Attrs)
	}
	if root.Find("partition") == nil || root.Find("join") == nil {
		t.Fatal("missing partition/join phase spans")
	}
	if root.Find("p[0]") == nil {
		t.Fatal("no per-partition span")
	}

	d2, r2, s2 := tracePair(t)
	tr = trace.New(d2, "sort-merge", trace.Options{Audit: true})
	runTraced(t, AlgorithmSortMerge, false, tr, d2, r2, s2)
	root, err = tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if root.Find("sort outer") == nil || root.Find("merge") == nil {
		t.Fatal("missing sort-merge phase spans")
	}
	if root.Find("run formation") == nil {
		t.Fatal("missing extsort run-formation span")
	}

	d3, r3, s3 := tracePair(t)
	tr = trace.New(d3, "nested-loop", trace.Options{Audit: true})
	runTraced(t, AlgorithmNestedLoop, false, tr, d3, r3, s3)
	root, err = tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	join := root.Find("join")
	if join == nil || len(join.Children) == 0 {
		t.Fatal("nested loop recorded no block spans")
	}
	if _, ok := join.Attrs["kernelSweepBatches"]; !ok {
		t.Fatalf("no kernel decision counters: %v", join.Attrs)
	}
}
