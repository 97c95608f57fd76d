package join

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// kernelPreds is every supported shape of time predicate: the named
// masks plus the individual intersection-implying Allen relations and
// their symmetric pairs.
var kernelPreds = map[string]Predicate{
	"intersects":   chronon.MaskIntersects,
	"contains":     chronon.MaskContains,
	"contained-in": chronon.MaskContainedIn,
	"equal":        chronon.MaskEqual,
	"overlap-only": chronon.MaskOf(chronon.RelOverlaps, chronon.RelOverlappedBy),
	"starts":       chronon.MaskOf(chronon.RelStarts, chronon.RelStartedBy),
	"finishes":     chronon.MaskOf(chronon.RelFinishes, chronon.RelFinishedBy),
	"during-only":  chronon.MaskOf(chronon.RelDuring, chronon.RelContains),
}

// TestSweepKeyedPropertyVsOracle cross-checks the keyed sweep kernel
// against the Reference oracle over randomized relations, every
// supported predicate mask, and randomized inner batch splits. The
// sweep is invoked directly — bypassing the batch-size cost guard — so
// the kernel itself is exercised on every trial.
func TestSweepKeyedPropertyVsOracle(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		w := workload{
			keys:      1 + rng.Int63n(40),
			n:         20 + rng.Intn(300),
			longEvery: rng.Intn(5),
			lifespan:  20 + rng.Int63n(2000),
		}
		outer := w.generate(rng, 1)
		inner := w.generate(rng, 2)
		for name, pred := range kernelPreds {
			t.Run(fmt.Sprintf("trial%d/%s", trial, name), func(t *testing.T) {
				want := ReferencePred(plan, pred, outer, inner)
				m := newKernelMatcher(plan, pred, KernelSweep, outer)
				var got []tuple.Tuple
				collect := func(_ int32, z tuple.Tuple) error {
					got = append(got, z)
					return nil
				}
				for lo := 0; lo < len(inner); {
					hi := lo + 1 + rng.Intn(64)
					if hi > len(inner) {
						hi = len(inner)
					}
					if err := m.sweepKeyed(inner[lo:hi], collect); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				assertSameResult(t, "sweep-keyed/"+name, got, want)

				// The guard-integrated batch path must agree too,
				// whichever kernel it routes each batch to.
				m2 := newKernelMatcher(plan, pred, KernelSweep, outer)
				var got2 []tuple.Tuple
				err := m2.probeBatch(inner, func(_ int32, z tuple.Tuple) error {
					got2 = append(got2, z)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, "probe-batch/"+name, got2, want)
			})
		}
	}
}

// TestSweepTimePropertyVsOracle is the pure time-join analogue: no
// shared attributes, flat active lists.
func TestSweepTimePropertyVsOracle(t *testing.T) {
	a := schema.MustNew(schema.Column{Name: "x", Kind: value.KindInt})
	b := schema.MustNew(schema.Column{Name: "y", Kind: value.KindInt})
	plan, err := schema.PlanNaturalJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2025))
	gen := func(n int, lifespan int64, base int64) []tuple.Tuple {
		out := make([]tuple.Tuple, 0, n)
		for i := 0; i < n; i++ {
			s := chronon.Chronon(rng.Int63n(lifespan))
			iv := chronon.New(s, s+chronon.Chronon(rng.Int63n(lifespan/4+1)))
			out = append(out, tuple.New(iv, value.Int(base+int64(i))))
		}
		return out
	}
	for trial := 0; trial < 8; trial++ {
		lifespan := 10 + rng.Int63n(500)
		outer := gen(10+rng.Intn(150), lifespan, 0)
		inner := gen(10+rng.Intn(150), lifespan, 1000000)
		for name, pred := range kernelPreds {
			t.Run(fmt.Sprintf("trial%d/%s", trial, name), func(t *testing.T) {
				want := ReferencePred(plan, pred, outer, inner)
				m := newKernelMatcher(plan, pred, KernelSweep, outer)
				var got []tuple.Tuple
				collect := func(_ int32, z tuple.Tuple) error {
					got = append(got, z)
					return nil
				}
				for lo := 0; lo < len(inner); {
					hi := lo + 1 + rng.Intn(48)
					if hi > len(inner) {
						hi = len(inner)
					}
					if err := m.probeBatch(inner[lo:hi], collect); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				assertSameResult(t, "sweep-time/"+name, got, want)
			})
		}
	}
}

// TestKernelsIdenticalResultsAndIO is the PR's central invariant: the
// kernel switch is CPU-only. Every algorithm runs under KernelScan and
// KernelSweep on identically built inputs, and both the device
// counters (every field) and the canonicalized results must match
// exactly. The workload's repeated keys and long-lived tuples push the
// sort-merge live windows past the live-index activation threshold, so
// the indexed merge path is exercised here too.
func TestKernelsIdenticalResultsAndIO(t *testing.T) {
	w := workload{keys: 24, n: 2500, longEvery: 6, lifespan: 200000}
	rng := rand.New(rand.NewSource(88))
	rTuples := w.generate(rng, 0)
	sTuples := w.generate(rng, 1)

	run := func(algo Algorithm, k Kernel) outcome {
		return runOutcome(t, algo, rTuples, sTuples, Spec{Kernel: k})
	}

	for _, algo := range Algorithms {
		scan := run(algo, KernelScan)
		sweep := run(algo, KernelSweep)
		if sweep.counters != scan.counters {
			t.Fatalf("%s: sweep counters %v != scan %v", algo, sweep.counters, scan.counters)
		}
		if len(sweep.results) != len(scan.results) {
			t.Fatalf("%s: sweep produced %d results, scan %d", algo, len(sweep.results), len(scan.results))
		}
		for i := range scan.results {
			if sweep.results[i] != scan.results[i] {
				t.Fatalf("%s: result %d differs:\n sweep %v\n scan  %v", algo, i, sweep.results[i], scan.results[i])
			}
		}
		if len(scan.results) == 0 {
			t.Fatalf("%s: empty result set exercises nothing", algo)
		}
	}
}

// TestLiveIndexProbeAndRebuild unit-tests the sort-merge live index:
// distinct-key accounting on rebuild, probe bucket selection, and the
// lazy gapless compaction of dead tuples.
func TestLiveIndexProbeAndRebuild(t *testing.T) {
	idx := []int{0}
	mk := func(key int64, start, end chronon.Chronon) tuple.Tuple {
		return tuple.New(chronon.New(start, end), value.Int(key), value.Int(int64(start)))
	}
	li := newLiveIndex(idx)
	window := []tuple.Tuple{
		mk(1, 0, 10), mk(1, 5, 8), mk(2, 0, 3), mk(1, 2, 4), mk(3, 7, 9),
	}
	if distinct := li.rebuild(window); distinct != 3 {
		t.Fatalf("rebuild counted %d distinct keys, want 3", distinct)
	}

	probe := func(key int64, horizon chronon.Chronon) []tuple.Tuple {
		var got []tuple.Tuple
		h := tuple.HashAt(mk(key, 0, 0), idx)
		if err := li.probe(h, horizon, func(w tuple.Tuple) error {
			got = append(got, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// All three key-1 tuples are alive at horizon 0.
	if got := probe(1, 0); len(got) != 3 {
		t.Fatalf("probe(1, 0) found %d tuples, want 3", len(got))
	}
	// At horizon 6 the tuples ending at 4 is dead and must be compacted
	// out; the survivors are [0,10] and [5,8].
	if got := probe(1, 6); len(got) != 2 {
		t.Fatalf("probe(1, 6) found %d tuples, want 2", len(got))
	}
	// The compaction is sticky: probing at an earlier horizon again
	// (never happens in the merge, where horizons are monotone) must
	// not resurrect the dead tuple.
	if got := probe(1, 0); len(got) != 2 {
		t.Fatalf("probe(1, 0) after compaction found %d tuples, want 2", len(got))
	}
	if got := probe(2, 2); len(got) != 1 {
		t.Fatalf("probe(2, 2) found %d tuples, want 1", len(got))
	}
	// Unknown key: empty bucket, no callbacks.
	if got := probe(9, 0); len(got) != 0 {
		t.Fatalf("probe(9, 0) found %d tuples, want 0", len(got))
	}

	// A unique-key window rebuild reports no repetition.
	unique := []tuple.Tuple{mk(10, 0, 1), mk(11, 0, 1), mk(12, 0, 1)}
	if distinct := li.rebuild(unique); distinct != 3 {
		t.Fatalf("unique-key rebuild counted %d distinct keys, want 3", distinct)
	}
	if distinct := li.rebuild(nil); distinct != 0 {
		t.Fatalf("empty rebuild counted %d distinct keys, want 0", distinct)
	}
}

// TestSweepGuardRoutesByKeyDensity pins the cost guard's behavior at
// its extremes: a single-key outer batch always sweeps, a unique-key
// outer batch never does.
func TestSweepGuardRoutesByKeyDensity(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	dense := workload{keys: 1, n: 512, longEvery: 2, lifespan: 1000}.generate(rng, 1)
	m := newKernelMatcher(plan, chronon.MaskIntersects, KernelSweep, dense)
	if !m.sweepWorthKeyed(64) {
		t.Fatal("single-key batch did not route to the sweep")
	}
	sparse := workload{keys: 1 << 40, n: 512, longEvery: 2, lifespan: 1000}.generate(rng, 1)
	m.reset(sparse)
	if m.sweepWorthKeyed(64) {
		t.Fatal("unique-key batch routed to the sweep")
	}
	m.reset(nil)
	if m.sweepWorthKeyed(64) {
		t.Fatal("empty batch routed to the sweep")
	}
}
