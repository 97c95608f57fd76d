package sampling

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vtjoin/internal/chronon"
)

// The paper's chooseIntervals (Appendix A.3) collects the multiset of
// every chronon covered by any sampled tuple, sorts it, and picks
// equi-depth positions as partitioning chronons. Materializing that
// multiset is infeasible for long-lived tuples (a single tuple may
// cover millions of chronons), so a Coverage computes the same
// quantiles exactly from the interval endpoints: between two
// consecutive endpoint events the coverage count is constant, so the
// sorted multiset is a staircase whose ranks can be walked. NewCoverage
// sorts the E endpoint events once per sample, in O(E log E); each
// Quantiles call then walks the staircase in O(E), so the planner,
// which scores many candidate partition counts against one sample,
// sorts once per sample rather than once per candidate.
// TestCoverageQuantilesMatchesNaive verifies equivalence against the
// literal materialization.

// CoverageSize returns the size of the covered-chronon multiset, i.e.
// the sum of the durations of the given intervals (null intervals
// contribute nothing). It errors on overflow.
func CoverageSize(intervals []chronon.Interval) (int64, error) {
	var total int64
	for _, iv := range intervals {
		d := iv.Duration()
		if total > (1<<62)-d {
			return 0, fmt.Errorf("sampling: coverage multiset exceeds 2^62 chronons")
		}
		total += d
	}
	return total, nil
}

// boundOngoing clamps ongoing interval ends to the sampling horizon:
// the largest finite endpoint present (or the largest ongoing start,
// when every interval is ongoing). A cut chronon beyond the last
// finite endpoint cannot separate any two tuples — every ongoing
// tuple covers all of them alike — while counting the ~2^62 chronons
// up to the Now sentinel would overflow CoverageSize and push every
// equi-depth rank into empty space. Ongoing tuples are stored in the
// final partition whatever cuts are chosen, so clamping only affects
// where the boundaries land, never which partition holds a tuple.
// The input is returned unchanged when nothing is ongoing.
func boundOngoing(intervals []chronon.Interval) []chronon.Interval {
	horizon := chronon.Beginning
	ongoing := 0
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		if iv.IsOngoing() {
			ongoing++
			if iv.Start > horizon {
				horizon = iv.Start
			}
		} else if iv.End > horizon {
			horizon = iv.End
		}
	}
	if ongoing == 0 {
		return intervals
	}
	out := make([]chronon.Interval, len(intervals))
	for i, iv := range intervals {
		if iv.IsOngoing() {
			iv = chronon.New(iv.Start, horizon)
		}
		out[i] = iv
	}
	return out
}

// Coverage is the covered-chronon multiset of a sample of intervals,
// held as the staircase its endpoints form.
type Coverage struct {
	// steps is sorted by chronon: every chronon in
	// [steps[i].at, steps[i+1].at) is covered steps[i].n times. The
	// last step is where the coverage returns to zero.
	steps []step
	size  int64 // multiset size: the sum of the clamped durations
}

type step struct {
	at chronon.Chronon
	n  int64
}

// NewCoverage builds the coverage of the given intervals. Null
// intervals contribute nothing, and ongoing intervals participate with
// their ends clamped to the sampling horizon (see boundOngoing). It
// errors when the multiset exceeds 2^62 chronons.
func NewCoverage(intervals []chronon.Interval) (*Coverage, error) {
	intervals = boundOngoing(intervals)
	size, err := CoverageSize(intervals)
	if err != nil {
		return nil, err
	}
	// Sweep events: coverage rises by one at each start and falls by
	// one just past each end.
	events := make([]step, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		events = append(events, step{iv.Start, 1}, step{iv.End + 1, -1})
	}
	slices.SortFunc(events, func(a, b step) int { return cmp.Compare(a.at, b.at) })
	// Fold the events in place into steps, one per distinct chronon,
	// each holding the running coverage.
	steps := events[:0]
	var coverage int64
	for _, e := range events {
		coverage += e.n
		if len(steps) > 0 && steps[len(steps)-1].at == e.at {
			steps[len(steps)-1].n = coverage
		} else {
			steps = append(steps, step{e.at, coverage})
		}
	}
	return &Coverage{steps: steps, size: size}, nil
}

// Quantiles returns the k-1 equi-depth quantile chronons of the
// coverage: the elements at ranks floor(j*N/k) for j = 1..k-1, where N
// is the multiset size. Duplicates are removed, so fewer than k-1
// chronons may be returned (e.g. when a few chronons dominate the
// coverage). An empty result means the coverage cannot support more
// than one partition.
func (c *Coverage) Quantiles(k int) ([]chronon.Chronon, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: need at least one partition, got %d", k)
	}
	if c.size == 0 || k == 1 {
		return nil, nil
	}
	// rank is the 1-based rank of the j-th quantile within the sorted
	// multiset.
	rank := func(j int) int64 { return max(int64(j)*c.size/int64(k), 1) }

	var out []chronon.Chronon
	var consumed int64
	j := 1
	for i := 0; i+1 < len(c.steps) && j < k; i++ {
		at, coverage := c.steps[i].at, c.steps[i].n
		if coverage == 0 {
			continue
		}
		block := coverage * int64(c.steps[i+1].at-at) // multiset elements in [at, next)
		for ; j < k && rank(j) <= consumed+block; j++ {
			q := at + chronon.Chronon((rank(j)-consumed-1)/coverage)
			if len(out) == 0 || out[len(out)-1] != q {
				out = append(out, q)
			}
		}
		consumed += block
	}
	return out, nil
}

// NaiveCoverageQuantiles is the paper's literal algorithm: materialize
// the multiset, sort it, index equi-depth positions. Exponentially
// slower than Coverage.Quantiles; retained as the test oracle.
func NaiveCoverageQuantiles(intervals []chronon.Interval, k int) ([]chronon.Chronon, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: need at least one partition, got %d", k)
	}
	intervals = boundOngoing(intervals)
	var multiset []chronon.Chronon
	for _, iv := range intervals {
		if iv.IsNull() {
			continue
		}
		for t := iv.Start; t <= iv.End; t++ {
			multiset = append(multiset, t)
		}
	}
	if len(multiset) == 0 || k == 1 {
		return nil, nil
	}
	sort.Slice(multiset, func(i, j int) bool { return multiset[i] < multiset[j] })
	var out []chronon.Chronon
	n := int64(len(multiset))
	for j := 1; j < k; j++ {
		rank := int64(j) * n / int64(k)
		if rank < 1 {
			rank = 1
		}
		c := multiset[rank-1]
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out, nil
}
