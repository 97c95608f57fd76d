package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

func TestReferenceLeftOuterSemantics(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := []tuple.Tuple{
		tuple.New(chronon.New(0, 10), value.Int(1), value.Int(100)),
		tuple.New(chronon.New(0, 5), value.Int(9), value.Int(101)), // never matches
	}
	s := []tuple.Tuple{
		tuple.New(chronon.New(3, 6), value.Int(1), value.Int(900)),
	}
	got := ReferenceLeftOuter(plan, chronon.MaskIntersects, r, s)
	Canonicalize(got)
	// Expected: match on [3,6]; fragments [0,2] and [7,10] for tuple
	// 100; fragment [0,5] for tuple 101.
	if len(got) != 4 {
		t.Fatalf("got %d results: %v", len(got), got)
	}
	var matches, frags int
	for _, z := range got {
		if z.Values[2].IsNull() {
			frags++
			if !z.Values[0].IsValid() || z.Values[1].IsNull() {
				t.Fatalf("fragment lost left attributes: %v", z)
			}
		} else {
			matches++
			if !z.V.Equal(chronon.New(3, 6)) {
				t.Fatalf("match timestamp %v", z.V)
			}
		}
	}
	if matches != 1 || frags != 3 {
		t.Fatalf("matches=%d frags=%d", matches, frags)
	}
}

// runLeftOuter executes the left outer join via the given algorithm.
func runLeftOuter(t *testing.T, algo string, rT, sT []tuple.Tuple, memory int, seed int64) []tuple.Tuple {
	t.Helper()
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rT)
	s := load(t, d, deptSchema, sT)
	a, err := ParseAlgorithm(algo)
	if err != nil {
		t.Fatal(err)
	}
	var matches, frags relation.CollectSink
	_, err = Run(a, r, s, &matches, Spec{
		MemoryPages:   memory,
		Weights:       cost.Ratio(5),
		Rng:           rand.New(rand.NewSource(seed)),
		LeftFragments: &frags,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(matches.Tuples, frags.Tuples...)
}

func TestLeftOuterMatchesOracle(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name   string
		w      workload
		memory int
	}{
		{"short", workload{keys: 5, n: 150, longEvery: 0, lifespan: 400}, 6},
		{"long-lived", workload{keys: 5, n: 300, longEvery: 3, lifespan: 1500}, 6},
		{"all-long", workload{keys: 3, n: 200, longEvery: 1, lifespan: 800}, 8},
		{"sparse-keys", workload{keys: 500, n: 250, longEvery: 4, lifespan: 900}, 5},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(700))
			rT := cfg.w.generate(rng, 1)
			sT := cfg.w.generate(rng, 2)
			want := ReferenceLeftOuter(plan, chronon.MaskIntersects, rT, sT)
			for _, algo := range []string{"partition", "nestedloop"} {
				got := runLeftOuter(t, algo, rT, sT, cfg.memory, 11)
				assertSameResult(t, algo+" left outer", got, want)
			}
		})
	}
}

func TestLeftOuterEmptySides(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(701))
	w := workload{keys: 3, n: 60, longEvery: 3, lifespan: 200}
	some := w.generate(rng, 1)

	// Empty right: every left tuple survives whole as one fragment.
	want := ReferenceLeftOuter(plan, chronon.MaskIntersects, some, nil)
	if len(want) != len(some) {
		t.Fatalf("oracle: %d fragments for %d tuples", len(want), len(some))
	}
	for _, algo := range []string{"partition", "nestedloop"} {
		got := runLeftOuter(t, algo, some, nil, 5, 12)
		assertSameResult(t, algo+" empty-right", got, want)
	}
	// Empty left: empty result.
	for _, algo := range []string{"partition", "nestedloop"} {
		got := runLeftOuter(t, algo, nil, some, 5, 13)
		if len(got) != 0 {
			t.Fatalf("%s: empty left produced %d tuples", algo, len(got))
		}
	}
}

func TestLeftOuterFragmentsPartitionBoundaries(t *testing.T) {
	// A long-lived left tuple crossing many partitions with matches in
	// scattered partitions: fragments must be the exact complement, not
	// split at partition boundaries.
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rT := []tuple.Tuple{tuple.New(chronon.New(0, 1000), value.Int(1), value.Int(1))}
	sT := []tuple.Tuple{
		tuple.New(chronon.New(100, 150), value.Int(1), value.Int(2)),
		tuple.New(chronon.New(600, 640), value.Int(1), value.Int(3)),
	}
	want := ReferenceLeftOuter(plan, chronon.MaskIntersects, rT, sT)

	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rT)
	s := load(t, d, deptSchema, sT)
	parting, err := partitionFromCuts(t, 200, 400, 600, 800)
	if err != nil {
		t.Fatal(err)
	}
	var matches, frags relation.CollectSink
	if _, _, err := Partition(r, s, &matches, Spec{
		MemoryPages:   6,
		Partitioning:  &parting,
		LeftFragments: &frags,
	}); err != nil {
		t.Fatal(err)
	}
	got := append(matches.Tuples, frags.Tuples...)
	assertSameResult(t, "boundary fragments", got, want)
	// Exactly three fragments: [0,99], [151,599], [641,1000].
	if len(frags.Tuples) != 3 {
		t.Fatalf("%d fragments: %v", len(frags.Tuples), frags.Tuples)
	}
}

func TestLeftOuterUnderPredicate(t *testing.T) {
	// Coverage counts only predicate-qualified matches: under the
	// contains predicate, a partial overlap does not cover.
	rT := []tuple.Tuple{tuple.New(chronon.New(0, 100), value.Int(1), value.Int(1))}
	sT := []tuple.Tuple{
		tuple.New(chronon.New(10, 20), value.Int(1), value.Int(2)),  // contained: covers [10,20]
		tuple.New(chronon.New(90, 200), value.Int(1), value.Int(3)), // not contained: no cover
	}
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rT)
	s := load(t, d, deptSchema, sT)
	var matches, frags relation.CollectSink
	if _, _, err := Partition(r, s, &matches, Spec{
		MemoryPages:   6,
		Weights:       cost.Ratio(5),
		Rng:           rand.New(rand.NewSource(14)),
		TimePredicate: chronon.MaskContains,
		LeftFragments: &frags,
	}); err != nil {
		t.Fatal(err)
	}
	if len(matches.Tuples) != 1 {
		t.Fatalf("%d matches", len(matches.Tuples))
	}
	if len(frags.Tuples) != 2 { // [0,9] and [21,100]
		t.Fatalf("fragments: %v", frags.Tuples)
	}
}

// partitionFromCuts is a test helper wrapping partition.FromCuts.
func partitionFromCuts(t *testing.T, cuts ...chronon.Chronon) (partition.Partitioning, error) {
	t.Helper()
	return partition.FromCuts(cuts)
}
