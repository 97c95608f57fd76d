package partition

import (
	"math/rand"
	"slices"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/sampling"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

func drawViaSampling(r *relation.Relation, m int, w cost.Weights) (*sampling.Sample, error) {
	return sampling.Draw(r, m, w, rand.New(rand.NewSource(4)))
}

// buildDistinctTimes builds a relation whose tuples all carry distinct
// timestamps, so a duplicate interval start in a sample pinpoints a
// duplicated draw.
func buildDistinctTimes(t *testing.T, d *disk.Disk, n int) *relation.Relation {
	t.Helper()
	r := relation.Create(d, testSchema)
	b := r.NewBuilder()
	for i := 0; i < n; i++ {
		if err := b.Append(tuple.New(chronon.At(chronon.Chronon(i)), value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIncrementalSamplerNoDuplicatesAcrossTopUps is the regression
// test for the planner's duplicate-sample bug: ensure used to draw
// each top-up without replacement only within itself, so the
// cumulative sample repeated tuples and biased every later candidate's
// quantiles. The taken-set now spans the drawer's lifetime.
func TestIncrementalSamplerNoDuplicatesAcrossTopUps(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := buildDistinctTimes(t, d, 1000)
	// Make the scan strategy unreachable so every top-up goes through
	// the per-sample random drawer.
	w := cost.Weights{Rand: 1, Seq: 1e9}
	s, err := newIncrementalSampler(r, w, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var sample []chronon.Interval
	for _, m := range []int{10, 50, 200} {
		sample, err = s.ensure(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample) != m {
			t.Fatalf("ensure(%d) returned %d samples", m, len(sample))
		}
	}
	seen := make(map[chronon.Chronon]bool)
	for _, iv := range sample {
		if seen[iv.Start] {
			t.Fatalf("timestamp %v sampled twice across top-ups", iv.Start)
		}
		seen[iv.Start] = true
	}
	if s.scanned {
		t.Fatal("sampler scanned despite prohibitive scan cost")
	}
	if s.topUps != 3 {
		t.Fatalf("topUps = %d, want 3", s.topUps)
	}
}

// TestSamplerPredicateBoundary pins the documented tie-break of the
// scan-vs-random decision on all three aligned paths: at exact cost
// equality (serving the outstanding demand by random reads costs
// exactly one scan) the random strategy is kept; one more sample tips
// it to the scan.
func TestSamplerPredicateBoundary(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := buildDistinctTimes(t, d, 1000)
	pages := mustPages(t, r)
	// With Rand == Seq, scanCost = pages * Rand: demanding exactly
	// `pages` samples is the tie.
	w := cost.Ratio(1)

	// ensure: tie stays random.
	s, err := newIncrementalSampler(r, w, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ensure(pages); err != nil {
		t.Fatal(err)
	}
	if s.scanned {
		t.Fatalf("ensure(%d) scanned on the tie", pages)
	}
	// ensure: one past the tie scans.
	s, err = newIncrementalSampler(r, w, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ensure(pages + 1); err != nil {
		t.Fatal(err)
	}
	if !s.scanned {
		t.Fatalf("ensure(%d) did not scan", pages+1)
	}

	// planAhead: same boundary on the look-ahead path.
	s, err = newIncrementalSampler(r, w, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.planAhead(pages); err != nil {
		t.Fatal(err)
	}
	if s.scanned {
		t.Fatalf("planAhead(%d) scanned on the tie", pages)
	}
	if err := s.planAhead(pages + 1); err != nil {
		t.Fatal(err)
	}
	if !s.scanned {
		t.Fatalf("planAhead(%d) did not scan", pages+1)
	}

	// sampling.Draw (via the one-shot path the ablation uses): ties keep
	// the random strategy there too — asserted through the counters,
	// since a scan would show sequential reads.
	d.ResetCounters()
	smp, err := drawViaSampling(r, pages, w)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Sequential {
		t.Fatalf("sampling.Draw(%d) scanned on the tie", pages)
	}
	smp, err = drawViaSampling(r, pages+1, w)
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Sequential {
		t.Fatalf("sampling.Draw(%d) did not scan", pages+1)
	}
}

// TestSamplerCoverageFollowsSample pins when the planner's sampler
// builds a coverage: once per change of the sample (each random top-up,
// the scan), never again for candidates that get the same sample. It
// also checks that the coverage handed out is the returned sample's.
func TestSamplerCoverageFollowsSample(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := buildDistinctTimes(t, d, 1000)
	pages := mustPages(t, r)
	sample := func(s *incrementalSampler, m int) ([]chronon.Interval, *sampling.Coverage) {
		t.Helper()
		set, cov, err := s.sample(m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sampling.NewCoverage(set)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := cov.Quantiles(16)
		want, _ := fresh.Quantiles(16)
		if !slices.Equal(got, want) {
			t.Fatalf("sample(%d): coverage quantiles %v, want those of the returned sample %v", m, got, want)
		}
		return set, cov
	}

	// Random draws only: each top-up changes the sample.
	s, err := newIncrementalSampler(r, cost.Weights{Rand: 1, Seq: 1e9}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	_, c10 := sample(s, 10)
	if _, c := sample(s, 10); c != c10 {
		t.Fatal("coverage rebuilt although the sample did not change")
	}
	if _, c := sample(s, 50); c == c10 {
		t.Fatal("coverage kept across a top-up")
	}

	// The scan inside ensure first returns a prefix of the shuffled
	// relation, then the whole relation to every later request.
	s, err = newIncrementalSampler(r, cost.Ratio(1), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	set, prefix := sample(s, pages+1)
	if !s.scanned || len(set) != pages+1 {
		t.Fatalf("ensure(%d): scanned=%t, %d samples", pages+1, s.scanned, len(set))
	}
	set, whole := sample(s, pages+1)
	if len(set) != 1000 || whole == prefix {
		t.Fatalf("after the scan: %d samples, coverage rebuilt=%t", len(set), whole != prefix)
	}
	for _, m := range []int{1, pages, 1000} {
		if _, c := sample(s, m); c != whole {
			t.Fatalf("sample(%d) after the scan rebuilt the coverage", m)
		}
	}
}
