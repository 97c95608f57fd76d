package plan2

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/join"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/temporal"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// mapCatalog is the test catalog: a name → relation map.
type mapCatalog map[string]*relation.Relation

func (c mapCatalog) Lookup(name string) (*relation.Relation, error) {
	r, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no relation %q", name)
	}
	return r, nil
}

func mustSchema(t *testing.T, cols ...schema.Column) *schema.Schema {
	t.Helper()
	s, err := schema.New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildRel(t *testing.T, d *disk.Disk, s *schema.Schema, ts []tuple.Tuple) *relation.Relation {
	t.Helper()
	r := relation.Create(d, s)
	b := r.NewBuilder()
	for _, tp := range ts {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

func iv(lo, hi int64) chronon.Interval { return chronon.New(chronon.Chronon(lo), chronon.Chronon(hi)) }

// runQuery parses, binds and executes q, returning cloned result tuples.
func runQuery(t *testing.T, cfg Config, cat Catalog, q string) []tuple.Tuple {
	t.Helper()
	ts, err := tryQuery(cfg, cat, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return ts
}

func tryQuery(cfg Config, cat Catalog, q string) ([]tuple.Tuple, error) {
	pipe, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	root, err := Bind(pipe, cat)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	_, err = Run(cfg, root, func(t tuple.Tuple) error {
		out = append(out, t.Clone())
		return nil
	})
	return out, err
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func equalSets(t *testing.T, got, want []tuple.Tuple, label string) {
	t.Helper()
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// employees is a tiny hand-checkable relation: (name string, dept int).
func employees(t *testing.T, d *disk.Disk) *relation.Relation {
	s := mustSchema(t,
		schema.Column{Name: "dept", Kind: value.KindInt},
		schema.Column{Name: "name", Kind: value.KindString},
	)
	return buildRel(t, d, s, []tuple.Tuple{
		tuple.New(iv(0, 10), value.Int(1), value.String_("ada")),
		tuple.New(iv(5, 20), value.Int(1), value.String_("bob")),
		tuple.New(iv(10, 30), value.Int(2), value.String_("cy")),
		tuple.New(iv(0, 40), value.Int(3), value.Null()),
	})
}

func TestScanSelectProject(t *testing.T) {
	d := disk.New(512)
	cat := mapCatalog{"emp": employees(t, d)}
	cfg := Config{Disk: d}

	got := runQuery(t, cfg, cat, `scan emp | select dept = 1 and vt overlaps [0, 4] | project name`)
	want := []tuple.Tuple{tuple.New(iv(0, 10), value.String_("ada"))}
	equalSets(t, got, want, "select+project")

	// Null comparisons: plain comparison never matches null, "= null" does.
	got = runQuery(t, cfg, cat, `scan emp | select name != "ada"`)
	if len(got) != 2 {
		t.Fatalf("name != ada: %d tuples, want 2 (null must not match)", len(got))
	}
	got = runQuery(t, cfg, cat, `scan emp | select name = null`)
	if len(got) != 1 || got[0].Values[0].AsInt() != 3 {
		t.Fatalf("name = null: got %v", got)
	}

	// Time predicates.
	got = runQuery(t, cfg, cat, `scan emp | select vt during [0, 25]`)
	if len(got) != 2 {
		t.Fatalf("vt during: %d tuples, want 2", len(got))
	}
	got = runQuery(t, cfg, cat, `scan emp | select vt contains [12, 28] | project name`)
	want = []tuple.Tuple{
		tuple.New(iv(10, 30), value.String_("cy")),
		tuple.New(iv(0, 40), value.Null()),
	}
	equalSets(t, got, want, "vt contains")

	// Projection can reorder and duplicate-free subset columns.
	got = runQuery(t, cfg, cat, `scan emp | select name = "bob" | project name, dept`)
	want = []tuple.Tuple{tuple.New(iv(5, 20), value.String_("bob"), value.Int(1))}
	equalSets(t, got, want, "project reorder")
}

func TestBindErrors(t *testing.T) {
	d := disk.New(512)
	cat := mapCatalog{"emp": employees(t, d)}
	cfg := Config{Disk: d}
	cases := []struct {
		q       string
		wantSub string
	}{
		{`scan nosuch`, `no relation "nosuch"`},
		{`scan emp | select salary = 3`, `no column "salary"`},
		{`scan emp | select name = 3`, `is string, literal`},
		{`scan emp | select dept = "x"`, `literal "x" is not`},
		{`scan emp | select dept < true`, `is int`},
		{`scan emp | select name = null and dept >= null`, `only = and !=`},
		{`scan emp | project name, salary`, `no column "salary"`},
		{`scan emp | aggregate sum name`, `want int`},
		{`scan emp | aggregate sum missing`, `no column "missing"`},
		{`scan emp | diff (scan emp | project name)`, `schemas differ`},
	}
	for _, c := range cases {
		_, err := tryQuery(cfg, cat, c.q)
		if err == nil {
			t.Errorf("%q: expected bind error containing %q", c.q, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q, want substring %q", c.q, err, c.wantSub)
		}
	}
}

func TestBindSharesScans(t *testing.T) {
	d := disk.New(512)
	cat := mapCatalog{"emp": employees(t, d)}
	pipe, err := query.Parse(`scan emp | join scan emp`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := Bind(pipe, cat)
	if err != nil {
		t.Fatal(err)
	}
	jn, ok := root.(*JoinNode)
	if !ok {
		t.Fatalf("root is %T, want *JoinNode", root)
	}
	if jn.Left != jn.Right {
		t.Error("self-join did not share the scan node: plan is a tree, want a DAG")
	}
	deps := map[string]*relation.Relation{}
	BaseRelations(root, deps)
	if len(deps) != 1 || deps["emp"] == nil {
		t.Errorf("BaseRelations = %v, want exactly {emp}", deps)
	}
}

// workloadPair builds two joinable generated relations: they share only
// the "key" column (the natural-join attribute), carry a private payload
// column each, and overlap heavily in time so the join is non-trivial.
func workloadPair(t *testing.T, d *disk.Disk) (*relation.Relation, *relation.Relation) {
	t.Helper()
	gen := func(payload string, seed int64) *relation.Relation {
		sch := mustSchema(t,
			schema.Column{Name: "key", Kind: value.KindInt},
			schema.Column{Name: payload, Kind: value.KindInt},
		)
		rng := rand.New(rand.NewSource(seed))
		ts := make([]tuple.Tuple, 0, 300)
		for i := 0; i < 300; i++ {
			start := rng.Int63n(900)
			end := start + 1 + rng.Int63n(100)
			ts = append(ts, tuple.New(iv(start, end),
				value.Int(rng.Int63n(40)), value.Int(int64(i))))
		}
		return buildRel(t, d, sch, ts)
	}
	return gen("a", 7), gen("b", 8)
}

// TestJoinMatchesDirect is the differential core: every algorithm ×
// kernel through the query path must produce exactly the tuple multiset
// the join machinery produces when driven directly.
func TestJoinMatchesDirect(t *testing.T) {
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	cfg := Config{Disk: d, MemoryPages: 16}

	var want relation.CollectSink
	if _, err := join.NestedLoop(r, s, &want, join.Spec{
		MemoryPages: 16, TimePredicate: chronon.MaskIntersects, Kernel: join.KernelSweep,
	}); err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) == 0 {
		t.Fatal("reference join is empty; workload spec does not exercise the join")
	}

	for _, algo := range []string{"partition", "sortmerge", "nestedloop"} {
		for _, kernel := range []string{"sweep", "scan"} {
			q := fmt.Sprintf("scan r | join scan s using %s kernel %s", algo, kernel)
			got := runQuery(t, cfg, cat, q)
			equalSets(t, got, append([]tuple.Tuple(nil), want.Tuples...), q)
		}
	}

	// Sharded execution through the language's shards hint.
	got := runQuery(t, cfg, cat, "scan r | join scan s shards 3")
	equalSets(t, got, append([]tuple.Tuple(nil), want.Tuples...), "shards 3")

	// The memory hint must not change results.
	got = runQuery(t, cfg, cat, "scan r | join scan s using sortmerge memory 8")
	equalSets(t, got, append([]tuple.Tuple(nil), want.Tuples...), "memory 8")
}

// TestJoinSubqueryInputs materializes filtered sub-pipelines into the
// join and checks against the equivalent direct evaluation; also
// asserts every temporary relation is dropped.
func TestJoinSubqueryInputs(t *testing.T) {
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	cfg := Config{Disk: d, MemoryPages: 16}
	base := len(d.LiveFiles())

	got := runQuery(t, cfg, cat,
		`(scan r | select key < 20) | join (scan s | select vt overlaps [0, 500]) using sortmerge`)

	// Reference: filter both sides by hand, then join directly.
	filter := func(rel *relation.Relation, keep func(tuple.Tuple) bool) *relation.Relation {
		all, err := rel.All()
		if err != nil {
			t.Fatal(err)
		}
		var kept []tuple.Tuple
		for _, tp := range all {
			if keep(tp) {
				kept = append(kept, tp)
			}
		}
		return buildRel(t, d, rel.Schema(), kept)
	}
	fr := filter(r, func(tp tuple.Tuple) bool { return tp.Values[0].AsInt() < 20 })
	fs := filter(s, func(tp tuple.Tuple) bool { return tp.V.Overlaps(iv(0, 500)) })
	var want relation.CollectSink
	if _, _, err := join.SortMerge(fr, fs, &want, join.Spec{
		MemoryPages: 16, TimePredicate: chronon.MaskIntersects, Kernel: join.KernelSweep,
	}); err != nil {
		t.Fatal(err)
	}
	equalSets(t, got, want.Tuples, "subquery join")

	if err := fr.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Drop(); err != nil {
		t.Fatal(err)
	}
	if n := len(d.LiveFiles()); n != base {
		t.Errorf("%d live files after query, want %d: temporaries leaked", n, base)
	}
}

func TestDiffMatchesDirect(t *testing.T) {
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	cfg := Config{Disk: d}
	base := len(d.LiveFiles())

	// Subtract the early keys of r from all of r; both sides project to
	// the shared schema requirement trivially (same relation).
	got := runQuery(t, cfg, cat, "scan r | diff (scan r | select key < 20)")

	all, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	var early []tuple.Tuple
	for _, tp := range all {
		if tp.Values[0].AsInt() < 20 {
			early = append(early, tp)
		}
	}
	fr := buildRel(t, d, r.Schema(), early)
	out, err := temporal.Difference(r, fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Drop(); err != nil {
		t.Fatal(err)
	}
	want, err := out.All()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Drop(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference difference is empty")
	}
	equalSets(t, got, want, "diff")
	if n := len(d.LiveFiles()); n != base {
		t.Errorf("%d live files after diff, want %d", n, base)
	}
}

func TestAggregateCountAndSum(t *testing.T) {
	d := disk.New(512)
	s := mustSchema(t, schema.Column{Name: "pay", Kind: value.KindInt})
	rel := buildRel(t, d, s, []tuple.Tuple{
		tuple.New(iv(0, 10), value.Int(5)),
		tuple.New(iv(5, 15), value.Int(3)),
		tuple.New(iv(20, 30), value.Null()),
	})
	cat := mapCatalog{"pays": rel}
	cfg := Config{Disk: d}

	got := runQuery(t, cfg, cat, "scan pays | aggregate count")
	want := []tuple.Tuple{
		tuple.New(iv(0, 4), value.Int(1)),
		tuple.New(iv(5, 10), value.Int(2)),
		tuple.New(iv(11, 15), value.Int(1)),
		tuple.New(iv(20, 30), value.Int(1)),
	}
	equalSets(t, got, want, "aggregate count")

	// Sum skips the null contribution entirely.
	got = runQuery(t, cfg, cat, "scan pays | aggregate sum pay")
	want = []tuple.Tuple{
		tuple.New(iv(0, 4), value.Int(5)),
		tuple.New(iv(5, 10), value.Int(8)),
		tuple.New(iv(11, 15), value.Int(3)),
	}
	equalSets(t, got, want, "aggregate sum")
}

// TestComposedPipeline drives a deep pipeline (subquery join → select →
// project → aggregate) end to end, checking the count against a direct
// reference evaluation.
func TestComposedPipeline(t *testing.T) {
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	cfg := Config{Disk: d, MemoryPages: 16}

	got := runQuery(t, cfg, cat,
		"scan r | join scan s using sortmerge | select key < 10 | project key | aggregate count")

	var joined relation.CollectSink
	if _, _, err := join.SortMerge(r, s, &joined, join.Spec{
		MemoryPages: 16, TimePredicate: chronon.MaskIntersects, Kernel: join.KernelSweep,
	}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, tp := range joined.Tuples {
		if tp.Values[0].AsInt() < 10 {
			total += int64(tp.V.End-tp.V.Start) + 1
		}
	}
	if len(got) == 0 {
		t.Fatal("composed pipeline returned nothing")
	}
	// The aggregate segments partition the joined tuples' chronons:
	// summing count×length over segments equals summing interval
	// lengths over qualifying tuples.
	var seen int64
	for _, tp := range got {
		seen += tp.Values[0].AsInt() * (int64(tp.V.End-tp.V.Start) + 1)
	}
	if seen != total {
		t.Errorf("aggregate mass = %d chronon-tuples, want %d", seen, total)
	}
}

// TestEarlyCloseReleasesEverything abandons a join stream after a few
// tuples: the producer goroutine must terminate and every temporary
// must be dropped — the leak-free cancellation contract.
func TestEarlyCloseReleasesEverything(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	base := len(d.LiveFiles())

	pipe, err := query.Parse(`(scan r | select key < 30) | join (scan s | select key < 30)`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := Bind(pipe, mapCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	it, err := Open(Config{Disk: d, MemoryPages: 16}, root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("early Close: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n := len(d.LiveFiles()); n != base {
		t.Errorf("%d live files after early close, want %d", n, base)
	}
}

// TestCancellationAborts cancels the context mid-stream; the pipeline
// must surface an abort error and still clean up fully.
func TestCancellationAborts(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	base := len(d.LiveFiles())

	ctx, cancel := context.WithCancel(context.Background())
	pipe, err := query.Parse(`scan r | join scan s using nestedloop`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := Bind(pipe, cat)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Open(Config{Ctx: ctx, Disk: d, MemoryPages: 16}, root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	cancel()
	var aborted bool
	for i := 0; i < 1_000_000; i++ {
		_, ok, err := it.Next()
		if err != nil {
			if !execctx.IsAbort(err) {
				t.Fatalf("error %v, want abort", err)
			}
			aborted = true
			break
		}
		if !ok {
			break
		}
	}
	if !aborted {
		t.Error("stream completed despite cancellation")
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after abort: %v", err)
	}
	if n := len(d.LiveFiles()); n != base {
		t.Errorf("%d live files after abort, want %d", n, base)
	}
}

// TestPreCancelledScan aborts before any page is read.
func TestPreCancelledScan(t *testing.T) {
	d := disk.New(512)
	cat := mapCatalog{"emp": employees(t, d)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tryQuery(Config{Ctx: ctx, Disk: d}, cat, "scan emp")
	if !execctx.IsAbort(err) {
		t.Fatalf("error %v, want abort", err)
	}
}

// TestPlanReusableConcurrently executes one bound plan from many
// goroutines at once: plans are immutable after Bind, so results must
// stay correct — this is the property the plan cache relies on.
func TestPlanReusableConcurrently(t *testing.T) {
	d := disk.New(1024)
	r, s := workloadPair(t, d)
	cat := mapCatalog{"r": r, "s": s}
	pipe, err := query.Parse("scan r | join scan s using sortmerge | aggregate count")
	if err != nil {
		t.Fatal(err)
	}
	root, err := Bind(pipe, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collect(Config{Disk: d, MemoryPages: 16}, root)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			got, err := collect(Config{Disk: d, MemoryPages: 16}, root)
			if err == nil && len(got) != len(want) {
				err = fmt.Errorf("%d tuples, want %d", len(got), len(want))
			}
			if err == nil {
				for i := range got {
					if !got[i].Equal(want[i]) {
						err = fmt.Errorf("tuple %d = %v, want %v", i, got[i], want[i])
						break
					}
				}
			}
			errc <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func collect(cfg Config, root Node) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	_, err := Run(cfg, root, func(t tuple.Tuple) error {
		out = append(out, t.Clone())
		return nil
	})
	return out, err
}
