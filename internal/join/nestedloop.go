package join

import (
	"fmt"
	"math"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/execctx"
	"vtjoin/internal/page"
	"vtjoin/internal/prefetch"
	"vtjoin/internal/relation"
	"vtjoin/internal/tuple"
)

// NestedLoop evaluates r ⋈V s by block nested loops: each block of
// M-2 outer pages is loaded and the inner relation is scanned once per
// block. Its measured I/O equals NestedLoopCost exactly (a property
// the tests assert), which is how the paper produced its analytical
// nested-loop numbers.
func NestedLoop(r, s *relation.Relation, sink relation.Sink, cfg Spec) (*cost.Report, error) {
	if cfg.MemoryPages < 3 {
		return nil, fmt.Errorf("join: nested loop needs at least 3 buffer pages, got %d", cfg.MemoryPages)
	}
	plan, err := specPlan(r, s, cfg)
	if err != nil {
		return nil, err
	}
	pred, err := normalizePredicate(cfg.TimePredicate)
	if err != nil {
		return nil, err
	}
	d := r.Disk()
	meter := cost.NewMeter(d, "nested-loop")

	blockPages := cfg.MemoryPages - 2
	depth := prefetch.DepthFor(cfg.MemoryPages)
	if cfg.Sequential {
		depth = 0
	}
	pool := page.NewPool(d.PageSize())

	rPages, err := r.Pages()
	if err != nil {
		return nil, err
	}
	sPages, err := s.Pages()
	if err != nil {
		return nil, err
	}
	tr := cfg.Tracer
	tr.Begin("join")
	tr.SetAttr("blockPages", blockPages)
	tr.SetAttr("prefetchDepth", depth)
	tr.SetAttr("kernel", cfg.Kernel.String())

	// The outer batch and matcher reuse their allocations across blocks.
	var outer []tuple.Tuple
	m := newKernelMatcher(plan, pred, cfg.Kernel, nil)
	for lo := 0; lo < rPages; lo += blockPages {
		if err := execctx.Check(cfg.Ctx, "join: nested loop"); err != nil {
			return nil, err
		}
		hi := lo + blockPages
		if hi > rPages {
			hi = rPages
		}
		tr.Begin(fmt.Sprintf("block[%d..%d)", lo, hi))
		// Load the outer block (1 random + (hi-lo-1) sequential reads),
		// prefetching its pages ahead of the decode.
		outer = outer[:0]
		err := forEachPage(cfg.Ctx, pool, hi-lo, depth,
			func(idx int, dst *page.Page) error { return r.ReadPage(lo+idx, dst) },
			func(ts []tuple.Tuple) error {
				outer = append(outer, ts...)
				return nil
			})
		if err != nil {
			return nil, err
		}
		m.reset(outer)
		var cov []chronon.Set
		if cfg.LeftFragments != nil {
			cov = make([]chronon.Set, len(outer))
		}
		emit := func(i int32, z tuple.Tuple) error {
			if cov != nil {
				cov[i] = cov[i].Add(z.V)
			}
			return sink.Append(z)
		}

		// One full scan of the inner relation per block, prefetched
		// ahead of the probing.
		err = forEachPage(cfg.Ctx, pool, sPages, depth,
			func(idx int, dst *page.Page) error { return s.ReadPage(idx, dst) },
			func(ts []tuple.Tuple) error { return m.probeBatch(ts, emit) })
		if err != nil {
			return nil, err
		}

		// The block has seen every inner tuple: emit its unmatched
		// fragments.
		if cov != nil {
			for i, x := range outer {
				for _, frag := range chronon.NewSet(x.V).Subtract(cov[i]).Intervals() {
					if err := cfg.LeftFragments.Append(PadLeft(plan, x, frag)); err != nil {
						return nil, err
					}
				}
			}
		}
		tr.SetAttr("outerTuples", len(outer))
		tr.End()
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	if cfg.LeftFragments != nil {
		if err := cfg.LeftFragments.Flush(); err != nil {
			return nil, err
		}
	}
	tr.SetAttr("kernelSweepBatches", m.sweepBatches)
	tr.SetAttr("kernelProbeBatches", m.probeBatches)
	tr.End()
	meter.EndPhase("join")
	return meter.Report(), nil
}

// NestedLoopCost is the closed-form I/O cost of NestedLoop: with
// B = M-2 outer pages per block and k = ceil(|r|/B) blocks, the outer
// relation is read once straight through (one random seek, then
// sequential — Section 4.2: "if a' pages of the outer relation are
// read, this requires a single random read followed by a'-1 sequential
// reads"), and each block triggers one inner scan costing one random
// plus |s|-1 sequential reads.
func NestedLoopCost(rPages, sPages, memoryPages int, w cost.Weights) float64 {
	if rPages <= 0 || sPages < 0 || memoryPages < 3 {
		return 0
	}
	blockPages := memoryPages - 2
	blocks := int(math.Ceil(float64(rPages) / float64(blockPages)))
	// Outer: one straight-through read.
	c := w.Rand + float64(rPages-1)*w.Seq
	// Inner: one scan per block.
	if sPages > 0 {
		c += float64(blocks) * (w.Rand + float64(sPages-1)*w.Seq)
	}
	return c
}
