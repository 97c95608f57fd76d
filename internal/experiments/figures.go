package experiments

import (
	"fmt"
	"math/rand"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/trace"
)

// Algorithm names used across all figure rows.
const (
	AlgoNestedLoop = "nested-loops"
	AlgoSortMerge  = "sort-merge"
	AlgoPartition  = "partition-join"
)

// Row is one measured point of a figure: a cost at a parameter
// combination. Fields not varied by a figure are left at their fixed
// values.
type Row struct {
	Algorithm string
	MemoryMB  int
	Ratio     float64
	LongLived int // paper-scale long-lived tuple count
	Cost      float64
}

// buildPair constructs the two input relations for one run.
func buildPair(p Params, longLivedScaled int) (*disk.Disk, *relation.Relation, *relation.Relation, error) {
	d := disk.New(p.PageSize)
	r, err := p.Spec(longLivedScaled, p.Seed+1).Build(d)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := p.Spec(longLivedScaled, p.Seed+2).Build(d)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, r, s, nil
}

// runJoin executes algo once under spec and returns its phase report;
// audit runs the invariant audits alongside (a nil tracer is a no-op,
// so the join runs identically either way). Sort-merge counters are
// ratio-independent, so the figures weight them per ratio afterwards;
// the weights steer the partition join's plan, so each ratio is a
// separate partition run.
func runJoin(algo join.Algorithm, r, s *relation.Relation, spec join.Spec, audit bool) (*cost.Report, error) {
	if audit {
		spec.Tracer = trace.New(r.Disk(), algo.Label(), trace.Options{Audit: true})
	}
	var sink relation.CountSink
	rep, err := join.Run(algo, r, s, &sink, spec)
	if err != nil {
		return nil, err
	}
	if _, err := spec.Tracer.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// joinSpec configures a figure's join with memoryPages of buffer; the
// weights w and a sampler seeded with seed steer the partition join.
func (p Params) joinSpec(memoryPages int, w cost.Weights, seed int64) join.Spec {
	return join.Spec{Ctx: p.Ctx, MemoryPages: memoryPages, Weights: w, Rng: rand.New(rand.NewSource(seed))}
}

// Figure6MemoryMB and Figure6Ratios are the sweep axes of Figure 6.
var (
	Figure6MemoryMB = []int{1, 2, 4, 8, 16, 32}
	Figure6Ratios   = []float64{2, 5, 10}
)

// RunFigure6 reproduces Figure 6: evaluation cost versus main-memory
// allocation (log-scaled 1–32 MiB) for all three algorithms at
// random:sequential cost ratios 2:1, 5:1 and 10:1. The workload is
// 262144 one-chronon tuples per relation, uniform over the lifespan —
// no long-lived tuples, isolating the memory effect (Section 4.2).
func RunFigure6(p Params) ([]Row, error) {
	// Each memory point is a self-contained task: it builds its own
	// (identically seeded) relation pair on its own device, so points
	// evaluate concurrently under p.Workers with identical rows.
	perPoint, err := mapTasks(p.Ctx, p.Workers, len(Figure6MemoryMB), func(pi int) ([]Row, error) {
		mb := Figure6MemoryMB[pi]
		_, r, s, err := buildPair(p, 0)
		if err != nil {
			return nil, err
		}
		rPages, err := r.Pages()
		if err != nil {
			return nil, err
		}
		sPages, err := s.Pages()
		if err != nil {
			return nil, err
		}
		m := p.MemoryPages(mb)
		var rows []Row

		// Nested loops: the paper used analytical results.
		for _, ratio := range Figure6Ratios {
			rows = append(rows, Row{
				Algorithm: AlgoNestedLoop, MemoryMB: mb, Ratio: ratio,
				Cost: join.NestedLoopCost(rPages, sPages, m, cost.Ratio(ratio)),
			})
		}

		// Sort-merge: one run; re-weight the counters per ratio.
		smRep, err := runJoin(join.AlgorithmSortMerge, r, s, join.Spec{Ctx: p.Ctx, MemoryPages: m}, p.Audit)
		if err != nil {
			return nil, fmt.Errorf("figure 6: sort-merge at %d MB: %w", mb, err)
		}
		for _, ratio := range Figure6Ratios {
			rows = append(rows, Row{
				Algorithm: AlgoSortMerge, MemoryMB: mb, Ratio: ratio,
				Cost: smRep.Cost(cost.Ratio(ratio)),
			})
		}

		// Partition join: the plan depends on the ratio, so run each.
		for _, ratio := range Figure6Ratios {
			pjRep, err := runJoin(join.AlgorithmPartition, r, s,
				p.joinSpec(m, cost.Ratio(ratio), p.Seed+int64(mb*100)+int64(ratio)), p.Audit)
			if err != nil {
				return nil, fmt.Errorf("figure 6: partition join at %d MB %g:1: %w", mb, ratio, err)
			}
			rows = append(rows, Row{
				Algorithm: AlgoPartition, MemoryMB: mb, Ratio: ratio,
				Cost: pjRep.Cost(cost.Ratio(ratio)),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, rs := range perPoint {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// Figure7LongLived is the sweep axis of Figure 7 at paper scale:
// 8000 to 128000 long-lived tuples in 8000-tuple steps.
func Figure7LongLived() []int {
	var out []int
	for n := 8000; n <= 128000; n += 8000 {
		out = append(out, n)
	}
	return out
}

// Figure7MemoryMB and Figure7Ratio fix the non-varied axes: 8 MiB was
// "the memory size at which all three algorithms performed most
// closely in the previous experiment", and the cost ratio is 5:1.
const (
	Figure7MemoryMB = 8
	Figure7Ratio    = 5.0
)

// RunFigure7 reproduces Figure 7: evaluation cost versus the number of
// long-lived tuples for all three algorithms. Long-lived tuples start
// uniformly in the first half of the lifespan and live for half the
// lifespan; the rest are one-chronon tuples (Section 4.3).
func RunFigure7(p Params) ([]Row, error) {
	m := p.MemoryPages(Figure7MemoryMB)
	w := cost.Ratio(Figure7Ratio)
	lls := Figure7LongLived()
	perPoint, err := mapTasks(p.Ctx, p.Workers, len(lls), func(pi int) ([]Row, error) {
		ll := lls[pi]
		_, r, s, err := buildPair(p, p.ScaleCount(ll))
		if err != nil {
			return nil, err
		}
		rPages, err := r.Pages()
		if err != nil {
			return nil, err
		}
		sPages, err := s.Pages()
		if err != nil {
			return nil, err
		}
		var rows []Row
		rows = append(rows, Row{
			Algorithm: AlgoNestedLoop, MemoryMB: Figure7MemoryMB, Ratio: Figure7Ratio, LongLived: ll,
			Cost: join.NestedLoopCost(rPages, sPages, m, w),
		})
		smRep, err := runJoin(join.AlgorithmSortMerge, r, s, join.Spec{Ctx: p.Ctx, MemoryPages: m}, p.Audit)
		if err != nil {
			return nil, fmt.Errorf("figure 7: sort-merge at %d long-lived: %w", ll, err)
		}
		rows = append(rows, Row{
			Algorithm: AlgoSortMerge, MemoryMB: Figure7MemoryMB, Ratio: Figure7Ratio, LongLived: ll,
			Cost: smRep.Cost(w),
		})
		pjRep, err := runJoin(join.AlgorithmPartition, r, s, p.joinSpec(m, w, p.Seed+int64(ll)), p.Audit)
		if err != nil {
			return nil, fmt.Errorf("figure 7: partition join at %d long-lived: %w", ll, err)
		}
		rows = append(rows, Row{
			Algorithm: AlgoPartition, MemoryMB: Figure7MemoryMB, Ratio: Figure7Ratio, LongLived: ll,
			Cost: pjRep.Cost(w),
		})
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, rs := range perPoint {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// Figure8LongLived and Figure8MemoryMB are the sweep axes of Figure 8:
// 16000–128000 long-lived tuples in 16000 steps, across 1–32 MiB.
func Figure8LongLived() []int {
	var out []int
	for n := 16000; n <= 128000; n += 16000 {
		out = append(out, n)
	}
	return out
}

var Figure8MemoryMB = []int{1, 2, 4, 8, 16, 32}

// RunFigure8 reproduces Figure 8: partition-join cost versus memory
// for increasing long-lived densities, measuring the relative effects
// of main-memory size and tuple caching (Section 4.4). The cost ratio
// is fixed at 5:1.
func RunFigure8(p Params) ([]Row, error) {
	w := cost.Ratio(5)
	lls := Figure8LongLived()
	perPoint, err := mapTasks(p.Ctx, p.Workers, len(lls), func(pi int) ([]Row, error) {
		ll := lls[pi]
		_, r, s, err := buildPair(p, p.ScaleCount(ll))
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, mb := range Figure8MemoryMB {
			rep, err := runJoin(join.AlgorithmPartition, r, s, p.joinSpec(p.MemoryPages(mb), w, p.Seed+int64(ll+mb)), p.Audit)
			if err != nil {
				return nil, fmt.Errorf("figure 8: %d long-lived at %d MB: %w", ll, mb, err)
			}
			rows = append(rows, Row{
				Algorithm: AlgoPartition, MemoryMB: mb, Ratio: 5, LongLived: ll,
				Cost: rep.Cost(w),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, rs := range perPoint {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// Figure4Point is one candidate partition size with its estimated cost
// components — the curves of Figure 4.
type Figure4Point struct {
	PartSize    int
	Csample     float64
	CachePaging float64
	Total       float64
	Chosen      bool
}

// RunFigure4 reproduces Figure 4: the sampling-cost versus tuple-cache-
// paging trade-off over candidate partition sizes, for the Figure 7
// workload at 8 MiB and 5:1 (25% long-lived tuples so the cache curve
// is visible).
func RunFigure4(p Params) ([]Figure4Point, error) {
	_, r, _, err := buildPair(p, p.TuplesPerRelation/4)
	if err != nil {
		return nil, err
	}
	plan, cands, err := partition.DeterminePartIntervals(r, partition.PlanConfig{
		Ctx:      p.Ctx,
		BuffSize: p.MemoryPages(Figure7MemoryMB) - 3,
		Weights:  cost.Ratio(Figure7Ratio),
		Rng:      rand.New(rand.NewSource(p.Seed + 4)),
	})
	if err != nil {
		return nil, err
	}
	out := make([]Figure4Point, len(cands))
	for i, c := range cands {
		out[i] = Figure4Point{
			PartSize:    c.PartSize,
			Csample:     c.Csample,
			CachePaging: c.CachePaging,
			Total:       c.Csample + c.Cjoin,
			Chosen:      c.PartSize == plan.PartSize,
		}
	}
	return out, nil
}
