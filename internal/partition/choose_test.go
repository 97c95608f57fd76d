package partition

import (
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/sampling"
)

func mustCoverage(t *testing.T, sample []chronon.Interval) *sampling.Coverage {
	t.Helper()
	c, err := sampling.NewCoverage(sample)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChooseIntervalsUniform(t *testing.T) {
	// 1000 unit tuples uniformly over [0, 999]: 4 partitions should cut
	// near the quartiles.
	var in []chronon.Interval
	for i := 0; i < 1000; i++ {
		in = append(in, chronon.At(chronon.Chronon(i)))
	}
	p, err := ChooseIntervals(mustCoverage(t, in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 {
		t.Fatalf("N = %d, want 4", p.N())
	}
	cuts := p.Cuts()
	wantNear := []chronon.Chronon{249, 499, 749}
	for i, c := range cuts {
		if c < wantNear[i]-1 || c > wantNear[i]+1 {
			t.Fatalf("cut %d = %d, want near %d", i, c, wantNear[i])
		}
	}
}

func TestChooseIntervalsBalancesSkew(t *testing.T) {
	// 900 tuples clustered at [0, 99], 100 spread over [100, 999].
	var in []chronon.Interval
	for i := 0; i < 900; i++ {
		in = append(in, chronon.At(chronon.Chronon(i%100)))
	}
	for i := 0; i < 100; i++ {
		in = append(in, chronon.At(chronon.Chronon(100+i*9)))
	}
	p, err := ChooseIntervals(mustCoverage(t, in), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Count tuples per partition: the spread should be far tighter than
	// the 9:1 density skew of the time-line itself.
	counts := make([]int, p.N())
	for _, iv := range in {
		counts[p.Last(iv)]++
	}
	for i, c := range counts {
		if c < 150 || c > 400 {
			t.Fatalf("partition %d holds %d of 1000 tuples; partitioning did not balance skew (%v)", i, c, counts)
		}
	}
}

func TestChooseIntervalsDegenerate(t *testing.T) {
	// All tuples at one chronon: only one boundary is supportable.
	in := []chronon.Interval{chronon.At(7), chronon.At(7), chronon.At(7)}
	p, err := ChooseIntervals(mustCoverage(t, in), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() > 2 {
		t.Fatalf("N = %d, want <= 2 for single-chronon coverage", p.N())
	}
	// Empty sample: trivial partitioning.
	p, err = ChooseIntervals(mustCoverage(t, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1 {
		t.Fatalf("empty sample: N = %d", p.N())
	}
	if _, err := ChooseIntervals(mustCoverage(t, in), 0); err == nil {
		t.Fatal("numPartitions=0 accepted")
	}
}

func TestEstimateCacheSizes(t *testing.T) {
	p := mustCuts(t, 9, 19, 29) // partitions ...-9, 10-19, 20-29, 30-...
	// Sample: two short tuples (no cache) and two long-lived ones.
	sample := []chronon.Interval{
		chronon.New(0, 5),   // partition 0 only
		chronon.New(12, 15), // partition 1 only
		chronon.New(5, 25),  // overlaps partitions 0,1,2; cached in 0 and 1
		chronon.New(15, 35), // overlaps 1,2,3; cached in 1 and 2
	}
	// Sample fraction 0.5 (sample of 4 from a relation of 8),
	// 2 tuples per page.
	cache, err := EstimateCacheSizes(sample, 0.5, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache) != 4 {
		t.Fatalf("%d entries", len(cache))
	}
	// Partition 0: 1 sampled long-lived tuple -> 2 estimated tuples -> 1 page.
	// Partition 1: 2 sampled -> 4 estimated -> 2 pages.
	// Partition 2: 1 sampled -> 2 estimated -> 1 page.
	// Partition 3: stored tuples only -> 0.
	want := []float64{1, 2, 1, 0}
	for i := range want {
		if cache[i] != want[i] {
			t.Fatalf("cache[%d] = %g, want %g (all: %v)", i, cache[i], want[i], cache)
		}
	}
	if got := CachePagesTotal(cache); got != 4 {
		t.Fatalf("CachePagesTotal = %d, want 4", got)
	}
}

func TestEstimateCacheSizesValidation(t *testing.T) {
	p := Single()
	if _, err := EstimateCacheSizes(nil, 0.5, p, 0); err == nil {
		t.Fatal("zero tuplesPerPage accepted")
	}
	// Zero sample fraction: all-zero estimates, no error.
	cache, err := EstimateCacheSizes(nil, 0, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache) != 1 || cache[0] != 0 {
		t.Fatalf("cache = %v", cache)
	}
}

func TestCachePagesTotalRoundsUp(t *testing.T) {
	if got := CachePagesTotal([]float64{0.2, 1.5, 0}); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}
