package relation

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

var testSchema = schema.MustNew(
	schema.Column{Name: "id", Kind: value.KindInt},
	schema.Column{Name: "name", Kind: value.KindString},
)

func mkTuple(id int64, name string, s, e chronon.Chronon) tuple.Tuple {
	return tuple.New(chronon.New(s, e), value.Int(id), value.String_(name))
}

func mustPages(t testing.TB, r *Relation) int {
	t.Helper()
	n, err := r.Pages()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCreateEmpty(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	if mustPages(t, r) != 0 || r.Tuples() != 0 {
		t.Fatal("fresh relation not empty")
	}
	if !r.Lifespan().IsNull() {
		t.Fatal("empty relation must have null lifespan")
	}
	all, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatal("empty relation yielded tuples")
	}
}

func TestBuildScanRoundTrip(t *testing.T) {
	d := disk.New(page.DefaultSize)
	want := []tuple.Tuple{
		mkTuple(1, "a", 0, 10),
		mkTuple(2, "b", 5, 15),
		mkTuple(3, "c", 20, 30),
	}
	r, err := FromTuples(d, testSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuples() != 3 {
		t.Fatalf("tuples = %d", r.Tuples())
	}
	if !r.Lifespan().Equal(chronon.New(0, 30)) {
		t.Fatalf("lifespan = %v", r.Lifespan())
	}
	got, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestBuilderValidatesSchema(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	b := r.NewBuilder()
	bad := tuple.New(chronon.New(0, 1), value.String_("wrong"), value.Int(1))
	if err := b.Append(bad); err == nil {
		t.Fatal("schema violation accepted")
	}
}

func TestBuilderSpillsAcrossPages(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	b := r.NewBuilder()
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.Append(mkTuple(int64(i), "payload-string", chronon.Chronon(i), chronon.Chronon(i+5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if mustPages(t, r) < 2 {
		t.Fatalf("expected multiple pages, got %d", mustPages(t, r))
	}
	got, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d tuples, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp.Values[0].AsInt() != int64(i) {
			t.Fatalf("tuple %d out of order: %v", i, tp)
		}
	}
}

func TestFlushIdempotentWhenEmpty(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	b := r.NewBuilder()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if mustPages(t, r) != 0 {
		t.Fatal("flush of empty builder wrote a page")
	}
	if err := b.Append(mkTuple(1, "x", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if mustPages(t, r) != 1 {
		t.Fatalf("double flush wrote %d pages", mustPages(t, r))
	}
}

func TestScanCountsSequentialIO(t *testing.T) {
	d := disk.New(page.DefaultSize)
	var tuples []tuple.Tuple
	for i := 0; i < 300; i++ {
		tuples = append(tuples, mkTuple(int64(i), "some-name-payload", 0, 1))
	}
	r, err := FromTuples(d, testSchema, tuples)
	if err != nil {
		t.Fatal(err)
	}
	d.ResetCounters()
	if _, err := r.All(); err != nil {
		t.Fatal(err)
	}
	c := d.Counters()
	if c.RandReads != 1 || c.SeqReads != int64(mustPages(t, r)-1) {
		t.Fatalf("scan of %d pages cost %v; want 1 random + %d sequential",
			mustPages(t, r), c, mustPages(t, r)-1)
	}
	if c.RandWrites+c.SeqWrites != 0 {
		t.Fatal("scan performed writes")
	}
}

func TestPageScanner(t *testing.T) {
	d := disk.New(page.DefaultSize)
	var tuples []tuple.Tuple
	for i := 0; i < 200; i++ {
		tuples = append(tuples, mkTuple(int64(i), "abcdefghij", 0, 1))
	}
	r, err := FromTuples(d, testSchema, tuples)
	if err != nil {
		t.Fatal(err)
	}
	ps := r.ScanPages()
	pg := page.MustNew(page.DefaultSize)
	seen := 0
	pages := 0
	for {
		ok, err := ps.Next(pg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pages++
		seen += pg.Count()
	}
	if pages != mustPages(t, r) {
		t.Fatalf("scanned %d pages, relation has %d", pages, mustPages(t, r))
	}
	if seen != 200 {
		t.Fatalf("saw %d tuples", seen)
	}
}

func TestAppendAfterScanContinues(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r, err := FromTuples(d, testSchema, []tuple.Tuple{mkTuple(1, "a", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b := r.NewBuilder()
	if err := b.Append(mkTuple(2, "b", 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Values[0].AsInt() != 2 {
		t.Fatalf("continued append broken: %v", got)
	}
	if r.Tuples() != 2 {
		t.Fatalf("Tuples = %d", r.Tuples())
	}
}

func TestDrop(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	if err := r.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop(); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestSinks(t *testing.T) {
	var collect CollectSink
	var count CountSink
	for i := 0; i < 5; i++ {
		tp := mkTuple(int64(i), "x", 0, 1)
		if err := collect.Append(tp); err != nil {
			t.Fatal(err)
		}
		if err := count.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := collect.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := count.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(collect.Tuples) != 5 || count.N != 5 {
		t.Fatalf("collect=%d count=%d", len(collect.Tuples), count.N)
	}
}

func TestBuilderAsSink(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := Create(d, testSchema)
	var sink Sink = r.NewBuilder()
	if err := sink.Append(mkTuple(1, "a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Tuples() != 1 {
		t.Fatal("builder-as-sink did not persist")
	}
}

func TestLargeRandomRoundTrip(t *testing.T) {
	d := disk.New(page.DefaultSize)
	rng := rand.New(rand.NewSource(11))
	var want []tuple.Tuple
	for i := 0; i < 5000; i++ {
		s := chronon.Chronon(rng.Int63n(100000))
		want = append(want, mkTuple(rng.Int63n(1e9), "nm", s, s+chronon.Chronon(rng.Int63n(1000))))
	}
	r, err := FromTuples(d, testSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d", len(got))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// TestV2Occupancy stores the same tuples under page formats v1 and v2.
// On a high-overlap keyed set (64 shared keys, identical padding) the
// per-page dictionary must pack at least 1.3× v1's tuples per page; on
// an incompressible set (unique keys, random padding) v2 falls back to
// plain encoding and must use no more pages than v1.
func TestV2Occupancy(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "id", Kind: value.KindInt},
		schema.Column{Name: "pad", Kind: value.KindBytes},
	)
	const n, lifespan = 4096, 1_000_000
	gen := func(seed int64, keyed bool) []tuple.Tuple {
		rng := rand.New(rand.NewSource(seed))
		pad := make([]byte, 96)
		out := make([]tuple.Tuple, n)
		for i := range out {
			st := chronon.Chronon(rng.Int63n(lifespan))
			iv := chronon.At(st)
			key := int64(i)
			if keyed {
				key = rng.Int63n(64)
				if i%4 == 0 {
					st = chronon.Chronon(rng.Int63n(lifespan / 2))
					iv = chronon.New(st, st+lifespan/2)
				}
			} else {
				pad = make([]byte, 96)
				rng.Read(pad)
			}
			out[i] = tuple.New(iv, value.Int(key), value.Int(int64(i)), value.Bytes(pad))
		}
		return out
	}
	pages := func(ts []tuple.Tuple, f page.Format) int {
		d := disk.New(page.DefaultSize)
		d.SetPageFormat(f)
		r, err := FromTuples(d, sch, ts)
		if err != nil {
			t.Fatal(err)
		}
		return mustPages(t, r)
	}

	keyed := gen(1, true)
	v1, v2 := pages(keyed, page.FormatV1), pages(keyed, page.FormatV2)
	if ratio := float64(v1) / float64(v2); ratio < 1.3 {
		t.Errorf("high-overlap keyed: v2 holds %.2f× v1's tuples per page (%d vs %d pages), want >= 1.3", ratio, v2, v1)
	}
	sparse := gen(2, false)
	if v1, v2 := pages(sparse, page.FormatV1), pages(sparse, page.FormatV2); v2 > v1 {
		t.Errorf("incompressible: v2 uses %d pages, v1 %d", v2, v1)
	}
}
