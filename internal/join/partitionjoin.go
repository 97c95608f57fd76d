package join

import (
	"context"
	"fmt"

	"vtjoin/internal/buffer"
	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/prefetch"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/trace"
	"vtjoin/internal/tuple"
)

// PartitionStats describes one partition-join execution.
type PartitionStats struct {
	Partitions     int   // number of partitioning intervals used
	PartSize       int   // planned outer partition size, pages
	SamplesDrawn   int   // sample size backing the plan
	CacheWrites    int64 // tuple-cache pages written
	CacheReads     int64 // tuple-cache pages read
	CachePagesPeak int   // largest spill file any partition handed over, in pages
	OverflowPages  int   // worst-case pages by which the outer area overflowed
	ThrashIO       int64 // spill/reload accesses caused by overflow
}

// Partition evaluates r ⋈V s with the paper's partition-join algorithm
// (Section 3, Figure 2): determinePartIntervals chooses partitioning
// intervals by sampling the outer relation; doPartitioning Grace-
// partitions both inputs, storing every tuple in the last partition it
// overlaps; joinPartitions then evaluates r_n ⋈V s_n down to
// r_1 ⋈V s_1, retaining long-lived outer tuples in memory and migrating
// long-lived inner tuples backwards through a one-page tuple cache that
// spills to disk (Figure 9 / Appendix A.1).
//
// Unlike the replication strategy of Leung & Muntz, no tuple is ever
// stored twice; and each result pair is emitted exactly once (pairs are
// joined only in the last partition both tuples overlap).
func Partition(r, s *relation.Relation, sink relation.Sink, cfg Spec) (*cost.Report, *PartitionStats, error) {
	if cfg.MemoryPages < 4 {
		return nil, nil, fmt.Errorf("join: partition join needs at least 4 buffer pages, got %d", cfg.MemoryPages)
	}
	plan, err := specPlan(r, s, cfg)
	if err != nil {
		return nil, nil, err
	}
	pred, err := normalizePredicate(cfg.TimePredicate)
	if err != nil {
		return nil, nil, err
	}
	d := r.Disk()
	tr := cfg.Tracer
	meter := cost.NewMeter(d, "partition-join")
	stats := &PartitionStats{}
	buffSize := cfg.MemoryPages - 3

	// Phase 1: determine the partitioning intervals (Appendix A.2).
	tr.Begin("plan")
	var parting partition.Partitioning
	var cacheEstPages []float64
	if cfg.Partitioning != nil {
		parting = *cfg.Partitioning
		stats.PartSize = buffSize
		tr.SetAttr("preset", true)
	} else {
		if cfg.Rng == nil {
			return nil, nil, fmt.Errorf("join: Spec.Rng is required when no partitioning is given")
		}
		plan, _, err := partition.DeterminePartIntervals(r, partition.PlanConfig{
			Ctx:      cfg.Ctx,
			BuffSize: buffSize,
			Weights:  cfg.Weights,
			Rng:      cfg.Rng,
			Tracer:   tr,
		})
		if err != nil {
			return nil, nil, err
		}
		parting = plan.Partitioning
		stats.PartSize = plan.PartSize
		stats.SamplesDrawn = plan.SamplesDrawn
		cacheEstPages = plan.CachePages
	}
	stats.Partitions = parting.N()
	tr.AuditNow("partitioning-structure", parting.Validate)
	tr.End()
	meter.EndPhase("sample")

	// Phase 2: Grace-partition both relations (Section 3.2). The two
	// passes read disjoint inputs and write disjoint partition files,
	// so they run concurrently with identical I/O accounting.
	tr.Begin("partition")
	engine := "concurrent"
	if cfg.Sequential {
		engine = "sequential"
	}
	tr.SetAttr("engine", engine)
	var rp, sp *partition.Partitioned
	if cfg.Sequential {
		rp, err = partition.DoPartitioning(cfg.Ctx, r, parting)
		if err != nil {
			return nil, nil, err
		}
		sp, err = partition.DoPartitioning(cfg.Ctx, s, parting)
		if err != nil {
			_ = rp.Drop()
			return nil, nil, err
		}
	} else {
		rp, sp, err = partition.DoPartitioningPair(cfg.Ctx, r, s, parting)
		if err != nil {
			return nil, nil, err
		}
	}
	defer rp.Drop()
	defer sp.Drop()
	recordPartitionTrace(tr, parting, rp, sp)
	// Coverage/disjointness: last-overlap placement stores every tuple
	// in exactly one partition, so the partition files must hold exactly
	// the input cardinalities — no tuple lost, none replicated.
	tr.AuditNow("partition-coverage", func() error {
		if got, want := rp.TotalTuples(), r.Tuples(); got != want {
			return fmt.Errorf("outer partitions hold %d tuples, relation has %d", got, want)
		}
		if got, want := sp.TotalTuples(), s.Tuples(); got != want {
			return fmt.Errorf("inner partitions hold %d tuples, relation has %d", got, want)
		}
		return nil
	})
	tr.End()
	meter.EndPhase("partition")

	// Phase 3: join the partitions (Appendix A.1).
	depth := prefetch.DepthFor(cfg.MemoryPages)
	if cfg.Sequential {
		depth = 0
	}
	tr.Begin("join")
	tr.SetAttr("prefetchDepth", depth)
	tr.SetAttr("kernel", cfg.Kernel.String())
	if err := joinPartitions(cfg.Ctx, plan, pred, cfg.Kernel, d, parting, rp, sp, sink, cfg.LeftFragments, cfg.MemoryPages, depth, stats, tr); err != nil {
		return nil, nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, nil, err
	}
	if cfg.LeftFragments != nil {
		if err := cfg.LeftFragments.Flush(); err != nil {
			return nil, nil, err
		}
	}
	tr.SetAttr("cacheWrites", stats.CacheWrites)
	tr.SetAttr("cacheReads", stats.CacheReads)
	tr.SetAttr("cachePagesPeak", stats.CachePagesPeak)
	if est := maxFloat(cacheEstPages); est >= 0 {
		// High-water vs. the plan's per-partition estimate: recorded for
		// inspection (the estimate is statistical, not a bound).
		tr.SetAttr("cacheEstPagesMax", est)
	}
	tr.SetAttr("overflowPages", stats.OverflowPages)
	tr.SetAttr("thrashIO", stats.ThrashIO)
	tr.End()
	// Cache paging symmetry: every spilled cache page is written once
	// and read back exactly once in the following partition.
	tr.AuditAtFinish("cache-paging-symmetry", func() error {
		if stats.CacheReads != stats.CacheWrites {
			return fmt.Errorf("tuple cache wrote %d pages but read %d", stats.CacheWrites, stats.CacheReads)
		}
		return nil
	})
	meter.EndPhase("join")
	return meter.Report(), stats, nil
}

// recordPartitionTrace attaches per-partition page/tuple counts to the
// partitioning span.
func recordPartitionTrace(tr *trace.Tracer, parting partition.Partitioning, rp, sp *partition.Partitioned) {
	if !tr.Enabled() {
		return
	}
	n := parting.N()
	outerPages := make([]int, n)
	innerPages := make([]int, n)
	outerTuples := make([]int64, n)
	innerTuples := make([]int64, n)
	for i := 0; i < n; i++ {
		outerPages[i] = rp.Pages(i)
		innerPages[i] = sp.Pages(i)
		outerTuples[i] = rp.Tuples(i)
		innerTuples[i] = sp.Tuples(i)
	}
	tr.SetAttr("partitions", n)
	tr.SetAttr("outerPages", outerPages)
	tr.SetAttr("innerPages", innerPages)
	tr.SetAttr("outerTuples", outerTuples)
	tr.SetAttr("innerTuples", innerTuples)
}

// maxFloat returns the maximum of xs, or -1 when empty.
func maxFloat(xs []float64) float64 {
	m := -1.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// outerArea models the in-memory outer-relation partition buffer of
// Figure 3: the current partition's tuples plus retained long-lived
// tuples, with page-granular occupancy accounting so overflow beyond
// the budget is detected (and charged as spill I/O).
type outerArea struct {
	tuples  []tuple.Tuple
	bytes   int         // modeled page bytes per tuple under the area's codec
	pageCap int         // usable payload bytes per page
	format  page.Format // page codec the occupancy model assumes
	// cov, when coverage tracking is on, holds the union of matched
	// overlaps per resident tuple (aligned with tuples).
	cov      []chronon.Set
	trackCov bool
}

func newOuterArea(pageSize int, f page.Format) *outerArea {
	// Each record's footprint is codec-dependent: under v1 its encoding
	// plus one slot on top of the fixed header, under v2 the modeled
	// delta-encoded record bytes.
	return &outerArea{pageCap: pageSize - page.Overhead(f), format: f}
}

func (o *outerArea) add(t tuple.Tuple) {
	o.tuples = append(o.tuples, t)
	o.bytes += page.TupleFootprint(o.format, t)
	if o.trackCov {
		o.cov = append(o.cov, chronon.NewSet())
	}
}

// purge drops tuples not overlapping iv, keeping order. Dropped tuples
// have been joined against every partition they overlap, so when
// coverage is tracked their final (tuple, coverage) pairs are passed to
// retire before removal. A null iv drops everything (end of sweep).
func (o *outerArea) purge(iv chronon.Interval, retire func(t tuple.Tuple, cov chronon.Set) error) error {
	kept := o.tuples[:0]
	keptCov := o.cov[:0]
	bytes := 0
	for i, t := range o.tuples {
		if !iv.IsNull() && t.V.Overlaps(iv) {
			kept = append(kept, t)
			bytes += page.TupleFootprint(o.format, t)
			if o.trackCov {
				keptCov = append(keptCov, o.cov[i])
			}
			continue
		}
		if retire != nil {
			var c chronon.Set
			if o.trackCov {
				c = o.cov[i]
			}
			if err := retire(t, c); err != nil {
				return err
			}
		}
	}
	// Zero the tail so retained backing array entries can be collected.
	for i := len(kept); i < len(o.tuples); i++ {
		o.tuples[i] = tuple.Tuple{}
	}
	o.tuples = kept
	o.bytes = bytes
	if o.trackCov {
		for i := len(keptCov); i < len(o.cov); i++ {
			o.cov[i] = chronon.Set{}
		}
		o.cov = keptCov
	}
	return nil
}

func (o *outerArea) pages() int {
	if o.bytes == 0 {
		return 0
	}
	return (o.bytes + o.pageCap - 1) / o.pageCap
}

// tupleCache is the one-page in-memory tuple cache plus its disk
// spill file (Figure 3). Long-lived inner tuples retained for the next
// partition are appended; when the in-memory page fills it is flushed.
type tupleCache struct {
	d     *disk.Disk
	page  *page.Page
	file  disk.FileID
	pages int
	stats *PartitionStats
}

func newTupleCache(d *disk.Disk, f page.Format, stats *PartitionStats) *tupleCache {
	return &tupleCache{d: d, page: page.MustNewFormat(d.PageSize(), f), stats: stats}
}

// add retains y for the next partition's evaluation.
func (c *tupleCache) add(y tuple.Tuple) error {
	ok, err := c.page.AppendTuple(y)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	if err := c.flush(); err != nil {
		return err
	}
	ok, err = c.page.AppendTuple(y)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("join: cache tuple does not fit an empty page")
	}
	return nil
}

func (c *tupleCache) flush() error {
	if c.file == 0 {
		c.file = c.d.Create()
	}
	if _, err := c.d.Append(c.file, c.page); err != nil {
		return err
	}
	c.pages++
	if c.pages > c.stats.CachePagesPeak {
		c.stats.CachePagesPeak = c.pages
	}
	c.stats.CacheWrites++
	c.page.Reset()
	return nil
}

// memTuples returns the tuples currently on the in-memory cache page.
func (c *tupleCache) memTuples() ([]tuple.Tuple, error) { return c.page.Tuples() }

// readSpilled reads spilled cache page idx into dst.
func (c *tupleCache) readSpilled(idx int, dst *page.Page) error {
	c.stats.CacheReads++
	return c.d.Read(c.file, idx, dst)
}

// drop releases the spill file.
func (c *tupleCache) drop() error {
	if c.file == 0 {
		return nil
	}
	err := c.d.Remove(c.file)
	c.file = 0
	return err
}

// joinPartitions is the paper's joinPartitions (Figure 9), evaluated
// from the last partition down to the first. Result pairs are emitted
// exactly once: carried outer tuples are joined only against *new*
// inner tuples (the s_i pages), and cached (carried) inner tuples are
// joined only against *new* outer tuples — a pair in which both sides
// are carried was already joined in a later partition. (The paper's
// pseudocode joins the whole outer area against the cache, which would
// emit carried×carried pairs once per shared partition; restricting the
// cache join to new outer tuples removes the duplicates without losing
// any pair: the pair (x, y) is produced exactly at
// i = min(last(x), last(y)), where at least one side is new.)
func joinPartitions(ctx context.Context, plan *schema.JoinPlan, pred Predicate, kernel Kernel, d *disk.Disk, parting partition.Partitioning,
	rp, sp *partition.Partitioned, sink relation.Sink, leftFrag relation.Sink, memoryPages, depth int, stats *PartitionStats, tr *trace.Tracer) error {

	budget := buffer.MustBudget(memoryPages)
	// Budget balance is only checkable after the deferred region
	// releases below have run, i.e. once this function has returned.
	tr.AuditAtFinish("buffer-budget-balance", budget.CheckBalanced)
	buffSize := memoryPages - 3
	outerRegion, err := budget.Reserve("outer partition", buffSize)
	if err != nil {
		return err
	}
	defer outerRegion.Close()
	for _, name := range []string{"inner page", "tuple cache", "result page"} {
		reg, err := budget.Reserve(name, 1)
		if err != nil {
			return err
		}
		defer reg.Close()
	}

	n := parting.N()
	outer := newOuterArea(d.PageSize(), rp.Format())
	outer.trackCov = leftFrag != nil
	// The cache carries tuples from partition i+1 into i; it stores inner
	// tuples, so it inherits the inner partitioning's codec.
	cache := newTupleCache(d, sp.Format(), stats)

	// pool recycles the page buffers of the prefetch pipelines (and the
	// thrash scratch page) across partitions.
	pool := page.NewPool(d.PageSize())

	// On any early error return, release the cache's current spill file
	// and, mid-handover, the previous partition's spill file — a probe
	// failing mid-partition must not leak spill files on the device.
	var oldSpill disk.FileID
	defer func() {
		_ = cache.drop()
		if oldSpill != 0 {
			_ = d.Remove(oldSpill)
		}
	}()

	// retire emits the unmatched fragments of a left tuple leaving the
	// outer area; by then every partition it overlaps has been joined.
	var retire func(t tuple.Tuple, cov chronon.Set) error
	if leftFrag != nil {
		retire = func(t tuple.Tuple, cov chronon.Set) error {
			for _, frag := range chronon.NewSet(t.V).Subtract(cov).Intervals() {
				if err := leftFrag.Append(PadLeft(plan, t, frag)); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// The matchers and the spill staging slice are rebuilt every
	// partition but reuse their allocations (hash buckets, index
	// slices) across iterations.
	matchNew := newKernelMatcher(plan, pred, kernel, nil)
	matchAll := newKernelMatcher(plan, pred, kernel, nil)
	var spillFileTuples []tuple.Tuple

	for i := n - 1; i >= 0; i-- {
		if err := execctx.Check(ctx, "join: partitions"); err != nil {
			return err
		}
		tr.Begin(fmt.Sprintf("p[%d]", i))
		tr.SetAttr("outerPages", rp.Pages(i))
		tr.SetAttr("innerPages", sp.Pages(i))
		tr.SetAttr("cacheSpillPagesIn", cache.pages)
		pi := parting.Interval(i)
		var prev chronon.Interval // p_{i-1}; null for the first partition
		if i > 0 {
			prev = parting.Interval(i - 1)
		}
		retain := func(y tuple.Tuple) (bool, error) {
			if prev.IsNull() || !y.V.Overlaps(prev) {
				return false, nil
			}
			return true, cache.add(y)
		}

		// Purge outer tuples that do not overlap p_i; the survivors are
		// the carried tuples. Then read r_i from disk into the area,
		// prefetching its pages ahead of the decode.
		if err := outer.purge(pi, retire); err != nil {
			return err
		}
		carried := len(outer.tuples)
		err := forEachPage(ctx, pool, rp.Pages(i), depth,
			func(idx int, dst *page.Page) error { return rp.ReadPage(i, idx, dst) },
			func(ts []tuple.Tuple) error {
				for _, t := range ts {
					outer.add(t)
				}
				return nil
			})
		if err != nil {
			return err
		}

		// Overflow beyond the buffer budget does not affect correctness
		// (Section 3.4) but costs spill-and-reload I/O; model it by
		// writing the excess pages to scratch and reading them back.
		if over := outer.pages() - buffSize; over > 0 {
			if over > stats.OverflowPages {
				stats.OverflowPages = over
			}
			if err := chargeThrash(d, pool, over, stats); err != nil {
				return err
			}
		}

		newOuter := outer.tuples[carried:]
		matchNew.reset(newOuter)
		matchAll.reset(outer.tuples)

		// Sinks that also fold each match's overlap into the left
		// tuple's coverage when outer-join tracking is on.
		emitNew := func(i int32, z tuple.Tuple) error {
			if outer.trackCov {
				gi := carried + int(i)
				outer.cov[gi] = outer.cov[gi].Add(z.V)
			}
			return sink.Append(z)
		}
		emitAll := func(i int32, z tuple.Tuple) error {
			if outer.trackCov {
				outer.cov[i] = outer.cov[i].Add(z.V)
			}
			return sink.Append(z)
		}

		// Join the carried inner tuples (the tuple cache) against the
		// new outer tuples, retaining cache tuples that also overlap
		// p_{i-1}. The in-memory cache page is handled first, then the
		// spilled pages are staged through a prefetch stream (reusing
		// the staging slice across partitions).
		memCached, err := cache.memTuples()
		if err != nil {
			return err
		}
		spillFileTuples = spillFileTuples[:0]
		err = forEachPage(ctx, pool, cache.pages, depth, cache.readSpilled,
			func(ts []tuple.Tuple) error {
				spillFileTuples = append(spillFileTuples, ts...)
				return nil
			})
		if err != nil {
			return err
		}
		// Reset the cache for the next partition before re-adding
		// survivors: the new cache must not mix with the old spill
		// file, which is dropped once its tuples have been probed.
		oldSpill = cache.file
		cache.file, cache.pages = 0, 0
		cache.page.Reset()

		// The probes are CPU-only and the retains run afterwards in the
		// same storage order as before, so the cache's page packing —
		// and with it every I/O counter — is independent of the kernel.
		for _, group := range [][]tuple.Tuple{memCached, spillFileTuples} {
			if err := matchNew.probeBatch(group, emitNew); err != nil {
				return err
			}
			for _, y := range group {
				if _, err := retain(y); err != nil {
					return err
				}
			}
		}
		if oldSpill != 0 {
			f := oldSpill
			oldSpill = 0
			if err := d.Remove(f); err != nil {
				return err
			}
		}

		// Join each page of s_i against the whole outer area, retaining
		// long-lived inner tuples into the (new) tuple cache. The pages
		// of s_i prefetch ahead of the probing.
		err = forEachPage(ctx, pool, sp.Pages(i), depth,
			func(idx int, dst *page.Page) error { return sp.ReadPage(i, idx, dst) },
			func(ts []tuple.Tuple) error {
				if err := matchAll.probeBatch(ts, emitAll); err != nil {
					return err
				}
				for _, y := range ts {
					if _, err := retain(y); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			return err
		}
		tr.SetAttr("carriedOuterTuples", carried)
		tr.End()
	}
	// Retire every remaining outer tuple: the sweep is complete.
	if err := outer.purge(chronon.Null(), retire); err != nil {
		return err
	}
	tr.SetAttr("kernelSweepBatches", matchNew.sweepBatches+matchAll.sweepBatches)
	tr.SetAttr("kernelProbeBatches", matchNew.probeBatches+matchAll.probeBatches)
	return cache.drop()
}

// forEachPage streams pages [0, n) of one file through a bounded
// prefetch pipeline, invoking fn with each page's decoded tuples in
// storage order. The stream checks ctx before every page read. It is
// always closed before returning — worker joined, buffers recovered —
// so the underlying file is quiescent afterwards (safe to remove).
func forEachPage(ctx context.Context, pool *page.Pool, n, depth int, read prefetch.ReadFunc, fn func(ts []tuple.Tuple) error) error {
	s := prefetch.NewStream(ctx, pool, n, depth, read)
	defer s.Close()
	for {
		pg, err := s.Next()
		if err != nil {
			return err
		}
		if pg == nil {
			return nil
		}
		ts, err := pg.Tuples()
		s.Release(pg) // decode copies; the buffer can recycle immediately
		if err != nil {
			return err
		}
		if err := fn(ts); err != nil {
			return err
		}
	}
}

// chargeThrash models outer-area overflow: the excess pages are written
// to scratch and immediately read back (one random seek plus sequential
// accesses each way), the minimal price of not fitting the partition in
// memory. The counters flow through the ordinary disk accounting.
func chargeThrash(d *disk.Disk, pool *page.Pool, pages int, stats *PartitionStats) error {
	f := d.Create()
	defer d.Remove(f)
	scratch := pool.Get()
	defer pool.Put(scratch)
	before := d.Counters()
	for i := 0; i < pages; i++ {
		if _, err := d.Append(f, scratch); err != nil {
			return err
		}
	}
	for i := 0; i < pages; i++ {
		if err := d.Read(f, i, scratch); err != nil {
			return err
		}
	}
	stats.ThrashIO += d.Counters().Sub(before).Total()
	return nil
}
