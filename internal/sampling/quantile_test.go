package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vtjoin/internal/chronon"
)

func ivs(pairs ...int64) []chronon.Interval {
	out := make([]chronon.Interval, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, chronon.New(chronon.Chronon(pairs[i]), chronon.Chronon(pairs[i+1])))
	}
	return out
}

// coverageQuantiles composes the planner's two steps, building a
// coverage and reading its quantiles, for the single-shot tests below.
func coverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	c, err := NewCoverage(intervals)
	if err != nil {
		return nil, err
	}
	return c.Quantiles(k)
}

// sortPerCallQuantiles computes the quantiles in one step, rebuilding
// and sorting the endpoint events on every call and walking them
// without folding them into steps. It is the oracle that pins
// Coverage.Quantiles to the same cuts.
func sortPerCallQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: need at least one partition, got %d", k)
	}
	intervals = boundOngoing(intervals)
	n, err := CoverageSize(intervals)
	if err != nil {
		return nil, err
	}
	if n == 0 || k == 1 {
		return nil, nil
	}

	// Sweep events: coverage increases by delta at each chronon key.
	type event struct {
		at    chronon.Chronon
		delta int64
	}
	events := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		events = append(events, event{iv.Start, 1})
		events = append(events, event{iv.End + 1, -1})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })

	// Target ranks (1-based) within the sorted multiset.
	targets := make([]int64, 0, k-1)
	for j := 1; j < k; j++ {
		rank := int64(j) * n / int64(k)
		if rank < 1 {
			rank = 1
		}
		targets = append(targets, rank)
	}

	var out []chronon.Chronon
	var coverage, consumed int64
	ti := 0
	for i := 0; i < len(events) && ti < len(targets); {
		at := events[i].at
		for i < len(events) && events[i].at == at {
			coverage += events[i].delta
			i++
		}
		if coverage == 0 || i >= len(events) {
			continue
		}
		next := events[i].at
		span := int64(next - at)
		block := coverage * span // multiset elements in [at, next)
		for ti < len(targets) && targets[ti] <= consumed+block {
			offset := (targets[ti] - consumed - 1) / coverage
			c := at + chronon.Chronon(offset)
			if len(out) == 0 || out[len(out)-1] != c {
				out = append(out, c)
			}
			ti++
		}
		consumed += block
	}
	return out, nil
}

func TestCoverageSize(t *testing.T) {
	n, err := CoverageSize(ivs(0, 9, 5, 5, 100, 101))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10+1+2 {
		t.Fatalf("CoverageSize = %d, want 13", n)
	}
	n, err = CoverageSize(nil)
	if err != nil || n != 0 {
		t.Fatalf("empty: %d, %v", n, err)
	}
	if _, err := CoverageSize([]chronon.Interval{
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
		chronon.New(chronon.Beginning, chronon.Forever),
	}); err == nil {
		t.Fatal("overflow not detected")
	}
}

func TestCoverageQuantilesValidation(t *testing.T) {
	if _, err := coverageQuantiles(ivs(0, 1), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	got, err := coverageQuantiles(nil, 4)
	if err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	got, err = coverageQuantiles(ivs(0, 100), 1)
	if err != nil || got != nil {
		t.Fatalf("k=1: %v, %v", got, err)
	}
}

func TestCoverageQuantilesUniform(t *testing.T) {
	// 100 unit tuples at chronons 0..99: quartiles at 24, 49, 74.
	var in []chronon.Interval
	for i := int64(0); i < 100; i++ {
		in = append(in, chronon.At(chronon.Chronon(i)))
	}
	got, err := coverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []chronon.Chronon{24, 49, 74}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCoverageQuantilesSingleLongInterval(t *testing.T) {
	// One interval [0, 999]: multiset is 0..999, median at 499.
	got, err := coverageQuantiles(ivs(0, 999), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 499 {
		t.Fatalf("got %v, want [499]", got)
	}
}

func TestCoverageQuantilesSkew(t *testing.T) {
	// Heavy coverage at the start: 9 copies of [0, 9] and one of
	// [10, 99]. Multiset: chronons 0..9 ×9 (90 elements) + 10..99 ×1
	// (90 elements). Median (rank 90) is chronon 9.
	in := ivs()
	for i := 0; i < 9; i++ {
		in = append(in, chronon.New(0, 9))
	}
	in = append(in, chronon.New(10, 99))
	got, err := coverageQuantiles(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("got %v, want [9]", got)
	}
}

func TestCoverageQuantilesDeduplicates(t *testing.T) {
	// All coverage on one chronon: every quantile is the same value and
	// must collapse to a single cut.
	in := []chronon.Interval{chronon.At(5), chronon.At(5), chronon.At(5), chronon.At(5)}
	got, err := coverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
}

func TestCoverageQuantilesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		in := make([]chronon.Interval, n)
		for i := range in {
			s := chronon.Chronon(rng.Intn(60))
			in[i] = chronon.New(s, s+chronon.Chronon(rng.Intn(30)))
		}
		k := 1 + rng.Intn(10)
		fast, err := coverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveCoverageQuantiles(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(naive) {
			t.Fatalf("trial %d (k=%d): fast %v vs naive %v", trial, k, fast, naive)
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("trial %d (k=%d): fast %v vs naive %v", trial, k, fast, naive)
			}
		}
	}
}

func TestCoverageQuantilesSortedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		var in []chronon.Interval
		for i := 0; i < 50; i++ {
			s := chronon.Chronon(rng.Intn(1000))
			in = append(in, chronon.New(s, s+chronon.Chronon(rng.Intn(500))))
		}
		got, err := coverageQuantiles(in, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("quantiles not strictly increasing: %v", got)
			}
		}
	}
}

// Ongoing intervals must not overflow the coverage computation: their
// ends are clamped to the sampling horizon (the largest finite
// endpoint), so the quantiles equal those of the explicitly clamped
// set and stay inside the data-dense region.
func TestCoverageQuantilesOngoing(t *testing.T) {
	in := []chronon.Interval{
		chronon.New(0, 99),
		chronon.New(100, 199),
		chronon.NewOngoing(50),
		chronon.NewOngoing(150),
	}
	got, err := coverageQuantiles(in, 4)
	if err != nil {
		t.Fatalf("ongoing intervals broke the sweep: %v", err)
	}
	want, err := coverageQuantiles(ivs(0, 99, 100, 199, 50, 199, 150, 199), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, c := range got {
		if c > 199 {
			t.Fatalf("cut %d beyond the finite horizon 199 (in %v)", c, got)
		}
	}
	naive, err := NaiveCoverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != len(got) {
		t.Fatalf("naive %v, fast %v", naive, got)
	}
	for i := range naive {
		if naive[i] != got[i] {
			t.Fatalf("naive %v, fast %v", naive, got)
		}
	}
}

// When every sampled interval is ongoing the horizon is the largest
// start: coverage degenerates to the starts' staircase and the sweep
// still terminates with in-range cuts.
func TestCoverageQuantilesAllOngoing(t *testing.T) {
	in := []chronon.Interval{
		chronon.NewOngoing(0),
		chronon.NewOngoing(100),
		chronon.NewOngoing(200),
		chronon.NewOngoing(300),
	}
	got, err := coverageQuantiles(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c > 300 {
			t.Fatalf("cut %d beyond the largest ongoing start (in %v)", c, got)
		}
	}
}

// TestCoverageQuantilesDifferential pins Coverage.Quantiles, for every
// k from 1 to 64 against one coverage, to the sort-per-call oracle and
// to the literal materialization, over random samples of fixed,
// long-lived, ongoing, all-ongoing and null intervals, empty samples
// included.
func TestCoverageQuantilesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	at := func(span int64) chronon.Chronon { return chronon.Chronon(rng.Int63n(span)) }
	shapes := map[string]func() chronon.Interval{
		"fixed": func() chronon.Interval {
			s := at(120)
			return chronon.New(s, s+at(4))
		},
		"longlived": func() chronon.Interval {
			s := at(60)
			if rng.Intn(4) == 0 {
				return chronon.New(s, s+60+at(30))
			}
			return chronon.At(s + 30)
		},
		"ongoing": func() chronon.Interval {
			s := at(100)
			if rng.Intn(4) == 0 {
				return chronon.NewOngoing(s)
			}
			return chronon.New(s, s+at(20))
		},
		"allongoing": func() chronon.Interval { return chronon.NewOngoing(at(80)) },
		"null": func() chronon.Interval {
			if rng.Intn(3) == 0 {
				return chronon.Null()
			}
			s := at(100)
			return chronon.New(s, s+at(10))
		},
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trial := 0; trial < 40; trial++ {
			in := make([]chronon.Interval, rng.Intn(25))
			for i := range in {
				in[i] = shapes[name]()
			}
			cov, err := NewCoverage(in)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 64; k++ {
				got, err := cov.Quantiles(k)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := sortPerCallQuantiles(in, k)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := NaiveCoverageQuantiles(in, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, oracle) || !slices.Equal(got, naive) {
					t.Fatalf("%s trial %d k=%d on %v:\n got    %v\n oracle %v\n naive  %v",
						name, trial, k, in, got, oracle, naive)
				}
			}
		}
	}

	huge := make([]chronon.Interval, 9)
	for i := range huge {
		huge[i] = chronon.New(chronon.Beginning, chronon.Forever)
	}
	if _, err := NewCoverage(huge); err == nil {
		t.Fatal("NewCoverage accepted a multiset beyond 2^62 chronons")
	}
	if _, err := sortPerCallQuantiles(huge, 4); err == nil {
		t.Fatal("oracle accepted a multiset beyond 2^62 chronons")
	}
}
