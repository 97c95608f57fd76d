package join

import (
	"fmt"
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

var (
	empSchema = schema.MustNew(
		schema.Column{Name: "emp", Kind: value.KindInt},
		schema.Column{Name: "salary", Kind: value.KindInt},
	)
	deptSchema = schema.MustNew(
		schema.Column{Name: "emp", Kind: value.KindInt},
		schema.Column{Name: "dept", Kind: value.KindInt},
	)
)

func mustPages(t testing.TB, r *relation.Relation) int {
	t.Helper()
	n, err := r.Pages()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// workload produces paired tuple sets with controlled key selectivity
// and long-lived density.
type workload struct {
	keys      int64 // distinct join-key values (0 = pure time-join schema)
	n         int
	longEvery int // every k'th tuple is long-lived (0 = never)
	lifespan  int64
	// unique gives each side's tuples pairwise distinct keys, a
	// permutation of 0..n-1, so a key matches at most one tuple of the
	// other side; keys is then ignored.
	unique bool
}

func (w workload) generate(rng *rand.Rand, side int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, w.n)
	var perm []int
	if w.unique {
		perm = rng.Perm(w.n)
	}
	for i := 0; i < w.n; i++ {
		var iv chronon.Interval
		if w.longEvery > 0 && i%w.longEvery == 0 {
			s := chronon.Chronon(rng.Int63n(w.lifespan/2 + 1))
			iv = chronon.New(s, s+chronon.Chronon(w.lifespan/2))
		} else {
			s := chronon.Chronon(rng.Int63n(w.lifespan))
			iv = chronon.New(s, s+chronon.Chronon(rng.Int63n(w.lifespan/20+1)))
		}
		var key int64
		if perm != nil {
			key = int64(perm[i])
		} else {
			key = rng.Int63n(w.keys)
		}
		out = append(out, tuple.New(iv, value.Int(key), value.Int(int64(side*1000000+i))))
	}
	return out
}

func load(t *testing.T, d *disk.Disk, s *schema.Schema, ts []tuple.Tuple) *relation.Relation {
	t.Helper()
	r, err := relation.FromTuples(d, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func assertSameResult(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	Canonicalize(got)
	Canonicalize(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d result tuples, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: result %d differs:\n got %v\nwant %v", label, i, got[i], want[i])
		}
	}
}

// runAll executes every disk-based algorithm on the same inputs and
// checks each against the Reference oracle.
func runAll(t *testing.T, rTuples, sTuples []tuple.Tuple, memoryPages int, seed int64) {
	t.Helper()
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(plan, rTuples, sTuples)
	for _, algo := range Algorithms {
		var got relation.CollectSink
		if _, err := Run(algo, r, s, &got, Spec{
			MemoryPages: memoryPages, Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(seed)),
		}); err != nil {
			t.Fatalf("%s: %v", algo.Label(), err)
		}
		assertSameResult(t, algo.Label(), got.Tuples, want)
	}
}

func TestAllAlgorithmsMatchOracleSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	w := workload{keys: 5, n: 60, longEvery: 4, lifespan: 200}
	runAll(t, w.generate(rng, 1), w.generate(rng, 2), 6, 1)
}

func TestAllAlgorithmsMatchOracleMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	w := workload{keys: 40, n: 1200, longEvery: 7, lifespan: 5000}
	runAll(t, w.generate(rng, 1), w.generate(rng, 2), 8, 2)
}

func TestAllAlgorithmsMatchOracleManyConfigs(t *testing.T) {
	configs := []struct {
		w      workload
		memory int
	}{
		{workload{keys: 1, n: 80, longEvery: 0, lifespan: 100}, 5},       // every key matches
		{workload{keys: 100, n: 300, longEvery: 2, lifespan: 1000}, 6},   // half long-lived
		{workload{keys: 10, n: 500, longEvery: 1, lifespan: 400}, 7},     // all long-lived
		{workload{keys: 3, n: 200, longEvery: 0, lifespan: 50}, 12},      // dense time overlap
		{workload{keys: 1000, n: 400, longEvery: 9, lifespan: 10000}, 4}, // sparse keys, tiny memory
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + ci)))
			runAll(t, cfg.w.generate(rng, 1), cfg.w.generate(rng, 2), cfg.memory, int64(ci))
		})
	}
}

func TestAsymmetricInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	wr := workload{keys: 8, n: 1000, longEvery: 5, lifespan: 3000}
	ws := workload{keys: 8, n: 50, longEvery: 2, lifespan: 3000}
	runAll(t, wr.generate(rng, 1), ws.generate(rng, 2), 6, 3)
	runAll(t, ws.generate(rng, 1), wr.generate(rng, 2), 6, 4)
}

func TestEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	w := workload{keys: 4, n: 50, longEvery: 3, lifespan: 100}
	some := w.generate(rng, 1)
	runAll(t, nil, some, 5, 5)
	runAll(t, some, nil, 5, 6)
	runAll(t, nil, nil, 5, 7)
}

func TestIdenticalTimestamps(t *testing.T) {
	// Every tuple lives at [10, 10]: all pairs with equal keys join.
	var r, s []tuple.Tuple
	for i := 0; i < 40; i++ {
		r = append(r, tuple.New(chronon.At(10), value.Int(int64(i%4)), value.Int(int64(i))))
		s = append(s, tuple.New(chronon.At(10), value.Int(int64(i%4)), value.Int(int64(1000+i))))
	}
	runAll(t, r, s, 5, 8)
}

func TestReferenceDefinition(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := []tuple.Tuple{
		tuple.New(chronon.New(0, 10), value.Int(1), value.Int(100)),
		tuple.New(chronon.New(5, 20), value.Int(2), value.Int(200)),
	}
	s := []tuple.Tuple{
		tuple.New(chronon.New(8, 30), value.Int(1), value.Int(900)),
		tuple.New(chronon.New(21, 30), value.Int(2), value.Int(901)),
	}
	got := Reference(plan, r, s)
	// (1): overlap [8,10]; (2): timestamps [5,20] vs [21,30] disjoint.
	if len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}
	z := got[0]
	if !z.V.Equal(chronon.New(8, 10)) {
		t.Fatalf("z[V] = %v", z.V)
	}
	if z.Values[0].AsInt() != 1 || z.Values[1].AsInt() != 100 || z.Values[2].AsInt() != 900 {
		t.Fatalf("z = %v", z)
	}
}

func TestMatcherEquivalentToBruteForce(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	w := workload{keys: 6, n: 120, longEvery: 3, lifespan: 300}
	outer := w.generate(rng, 1)
	inner := w.generate(rng, 2)

	m := newMatcher(plan, outer)
	var got []tuple.Tuple
	for _, y := range inner {
		if err := m.probe(y, func(z tuple.Tuple) error {
			got = append(got, z)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := Reference(plan, outer, inner)
	assertSameResult(t, "matcher", got, want)
}

func TestMatcherTimeJoinPath(t *testing.T) {
	// Schemas with no shared columns: the matcher takes the
	// sorted-by-start path.
	a := schema.MustNew(schema.Column{Name: "x", Kind: value.KindInt})
	b := schema.MustNew(schema.Column{Name: "y", Kind: value.KindInt})
	plan, err := schema.PlanNaturalJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	var outer, inner []tuple.Tuple
	for i := 0; i < 80; i++ {
		s1 := chronon.Chronon(rng.Intn(100))
		outer = append(outer, tuple.New(chronon.New(s1, s1+chronon.Chronon(rng.Intn(30))), value.Int(int64(i))))
		s2 := chronon.Chronon(rng.Intn(100))
		inner = append(inner, tuple.New(chronon.New(s2, s2+chronon.Chronon(rng.Intn(30))), value.Int(int64(1000+i))))
	}
	m := newMatcher(plan, outer)
	var got []tuple.Tuple
	for _, y := range inner {
		if err := m.probe(y, func(z tuple.Tuple) error {
			got = append(got, z)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := Reference(plan, outer, inner)
	assertSameResult(t, "time-join matcher", got, want)
}

func TestJoinsRejectMismatchedDevices(t *testing.T) {
	d1, d2 := disk.New(page.DefaultSize), disk.New(page.DefaultSize)
	r := relation.Create(d1, empSchema)
	s := relation.Create(d2, deptSchema)
	var sink relation.CountSink
	if _, err := NestedLoop(r, s, &sink, Spec{MemoryPages: 5}); err == nil {
		t.Fatal("cross-device join accepted")
	}
}

func TestJoinsValidateMemory(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := relation.Create(d, empSchema)
	s := relation.Create(d, deptSchema)
	var sink relation.CountSink
	if _, err := NestedLoop(r, s, &sink, Spec{MemoryPages: 2}); err == nil {
		t.Fatal("nested loop accepted 2 pages")
	}
	if _, _, err := SortMerge(r, s, &sink, Spec{MemoryPages: 3}); err == nil {
		t.Fatal("sort-merge accepted 3 pages")
	}
	if _, _, err := Partition(r, s, &sink, Spec{MemoryPages: 3}); err == nil {
		t.Fatal("partition join accepted 3 pages")
	}
	if _, _, err := Partition(r, s, &sink, Spec{MemoryPages: 8}); err == nil {
		t.Fatal("partition join accepted nil rng without partitioning")
	}
}
