package partition

import (
	"fmt"
	"math"

	"vtjoin/internal/chronon"
	"vtjoin/internal/sampling"
)

// ChooseIntervals is the paper's chooseIntervals (Appendix A.3): derive
// a partitioning of the valid-time line from the timestamps of sampled
// tuples so that each partition covers approximately the same number of
// tuples. Cut chronons are equi-depth quantiles of the multiset of
// chronons covered by the sample, read from its coverage (see
// sampling.Coverage), which callers build once per sample. Fewer than
// numPartitions partitions may result when the sample cannot support
// that many distinct boundaries.
func ChooseIntervals(sample *sampling.Coverage, numPartitions int) (Partitioning, error) {
	if numPartitions < 1 {
		return Partitioning{}, fmt.Errorf("partition: numPartitions must be >= 1, got %d", numPartitions)
	}
	cuts, err := sample.Quantiles(numPartitions)
	if err != nil {
		return Partitioning{}, err
	}
	// Quantiles at the extreme ends of the representable line cannot be
	// interior cuts.
	filtered := cuts[:0]
	for _, c := range cuts {
		if c > chronon.Beginning && c < chronon.Forever {
			filtered = append(filtered, c)
		}
	}
	return FromCuts(filtered)
}

// EstimateCacheSizes is the paper's estimateCacheSizes (Appendix A.4):
// estimate, for each partition, the number of tuple-cache pages its
// evaluation will need. A sampled tuple that overlaps partitions
// j..last occupies the cache of partitions j..last-1 (it is stored in
// partition `last` and migrates backwards through the cache). Counts
// are scaled from the sample to the full relation by 1/sampleFraction
// and converted to pages with tuplesPerPage.
//
// The returned slice has one entry per partition: the estimated cache
// size in pages (fractional; callers round up when budgeting).
func EstimateCacheSizes(sampleIntervals []chronon.Interval, sampleFraction float64,
	part Partitioning, tuplesPerPage float64) ([]float64, error) {
	if tuplesPerPage <= 0 {
		return nil, fmt.Errorf("partition: tuplesPerPage must be positive, got %g", tuplesPerPage)
	}
	counts := make([]int64, part.N())
	for _, iv := range sampleIntervals {
		first, last := part.Range(iv)
		for i := first; i < last; i++ {
			counts[i]++
		}
	}
	out := make([]float64, part.N())
	if sampleFraction <= 0 {
		// No sample: no basis for estimation; report zero cache.
		return out, nil
	}
	for i, c := range counts {
		estTuples := float64(c) / sampleFraction
		out[i] = estTuples / tuplesPerPage
	}
	return out, nil
}

// CachePagesTotal sums the (rounded-up) per-partition cache sizes,
// counting only partitions that need a cache at all.
func CachePagesTotal(cachePages []float64) int {
	total := 0
	for _, c := range cachePages {
		if c > 0 {
			total += int(math.Ceil(c))
		}
	}
	return total
}
