package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
)

// tuple2 is a comparable rendering of a result tuple, so result sets
// can be compared with == field by field.
type tuple2 struct {
	repr string
	v    chronon.Interval
}

// outcome is one run's device counters and canonical result.
type outcome struct {
	counters disk.Counters
	results  []tuple2
}

// runOutcome runs algo over freshly loaded inputs with 16 pages, the
// sampling seed 3 and the rest of spec, and records the outcome.
func runOutcome(t *testing.T, algo Algorithm, rTuples, sTuples []tuple.Tuple, spec Spec) outcome {
	t.Helper()
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	d.ResetCounters()
	var sink relation.CollectSink
	spec.MemoryPages, spec.Weights, spec.Rng = 16, cost.Ratio(5), rand.New(rand.NewSource(3))
	if _, err := Run(algo, r, s, &sink, spec); err != nil {
		t.Fatalf("%s sequential=%v kernel=%v: %v", algo, spec.Sequential, spec.Kernel, err)
	}
	Canonicalize(sink.Tuples)
	out := outcome{counters: d.Counters()}
	for _, z := range sink.Tuples {
		out.results = append(out.results, tuple2{z.String(), z.V})
	}
	return out
}

// TestConcurrentEngineMatchesSequential is the PR's central invariant:
// the parallel Grace passes and the page-prefetch pipelines must leave
// the cost counters and the join results byte-identical to the fully
// sequential evaluation. Each algorithm runs twice on identically built
// inputs — Sequential=true versus Sequential=false — and both the
// device counters (down to every field) and the canonicalized results
// must match exactly.
func TestConcurrentEngineMatchesSequential(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	w := workload{keys: 24, n: 2500, longEvery: 6, lifespan: 200000}
	rng := rand.New(rand.NewSource(77))
	rTuples := w.generate(rng, 0)
	sTuples := w.generate(rng, 1)

	run := func(algo Algorithm, sequential bool) outcome {
		return runOutcome(t, algo, rTuples, sTuples, Spec{Sequential: sequential})
	}

	for _, algo := range Algorithms {
		seq := run(algo, true)
		for trial := 0; trial < 3; trial++ {
			conc := run(algo, false)
			if conc.counters != seq.counters {
				t.Fatalf("%s trial %d: concurrent counters %v != sequential %v",
					algo, trial, conc.counters, seq.counters)
			}
			if len(conc.results) != len(seq.results) {
				t.Fatalf("%s trial %d: %d results, sequential produced %d",
					algo, trial, len(conc.results), len(seq.results))
			}
			for i := range seq.results {
				if conc.results[i] != seq.results[i] {
					t.Fatalf("%s trial %d: result %d differs:\n got %v\nwant %v",
						algo, trial, i, conc.results[i], seq.results[i])
				}
			}
		}
	}
}
