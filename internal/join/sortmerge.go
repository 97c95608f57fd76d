package join

import (
	"context"
	"fmt"
	"sort"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/extsort"
	"vtjoin/internal/page"
	"vtjoin/internal/prefetch"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
)

// SortMergeStats reports merge-phase behaviour: how much backing up
// the long-lived tuples forced.
type SortMergeStats struct {
	InnerPageReads   int64 // input page fetches during the merge (both sides)
	InnerPageRereads int64 // spill-file fetches (pages revisited after eviction)
	SpillPagesPeak   int   // largest spill file seen, in pages
	// LiveIndexActivations counts how often a live window's key index
	// switched on (the sweep kernel's window-size/key-repetition guard).
	LiveIndexActivations int64
}

// SortMerge evaluates r ⋈V s by sorting both relations on valid-time
// start and merging them in a single interleaved pass: tuples are
// consumed in global start order, each probing the other side's window
// of still-live tuples. With interval timestamps a tuple stays "alive"
// until the merge passes its end time, so long-lived tuples accumulate;
// when the windows exceed memory the overflow spills to disk and every
// later tuple must be checked against it — re-reading previously
// processed data, the backing up of Section 4.3. The inputs are not
// assumed sorted and no access paths exist (the weakest assumptions of
// Section 4.1), so both sorts are charged to the join.
func SortMerge(r, s *relation.Relation, sink relation.Sink, cfg Spec) (*cost.Report, *SortMergeStats, error) {
	if cfg.LeftFragments != nil || cfg.Plan != nil {
		return nil, nil, fmt.Errorf("join: outer joins are not supported by sort-merge (its spill files cannot carry match coverage); use partition or nested-loop")
	}
	if cfg.MemoryPages < 4 {
		return nil, nil, fmt.Errorf("join: sort-merge needs at least 4 buffer pages, got %d", cfg.MemoryPages)
	}
	plan, err := planFor(r, s)
	if err != nil {
		return nil, nil, err
	}
	pred, err := normalizePredicate(cfg.TimePredicate)
	if err != nil {
		return nil, nil, err
	}
	d := r.Disk()
	meter := cost.NewMeter(d, "sort-merge")

	tr := cfg.Tracer
	depth := prefetch.DepthFor(cfg.MemoryPages)
	if cfg.Sequential {
		depth = 0
	}
	tr.Begin("sort outer")
	sortedR, err := extsort.SortDepthTrace(cfg.Ctx, r, extsort.ByStartTime, cfg.MemoryPages, depth, tr)
	if err != nil {
		return nil, nil, err
	}
	defer sortedR.Drop()
	tr.End()
	meter.EndPhase("sort outer")

	tr.Begin("sort inner")
	sortedS, err := extsort.SortDepthTrace(cfg.Ctx, s, extsort.ByStartTime, cfg.MemoryPages, depth, tr)
	if err != nil {
		return nil, nil, err
	}
	defer sortedS.Drop()
	tr.End()
	meter.EndPhase("sort inner")

	stats := &SortMergeStats{}
	// The live-window budget and pending-probe threshold model page
	// occupancy under the outer relation's codec (per-tuple footprints
	// are format-dependent: v2 pages have a larger header but no slot
	// array and delta-encoded intervals).
	format := r.Format()
	pageCap := d.PageSize() - page.Overhead(format)
	liveBudget := (cfg.MemoryPages - 4) * pageCap
	if liveBudget < pageCap {
		liveBudget = pageCap // floor of one page keeps tiny budgets sane
	}
	m := &merger{
		ctx:        cfg.Ctx,
		plan:       plan,
		pred:       pred,
		kernel:     cfg.Kernel.resolve(),
		d:          d,
		sink:       sink,
		stats:      stats,
		liveBudget: liveBudget,
		pageCap:    pageCap,
		format:     format,
	}
	m.sides[0] = newMergeSide(sortedR, d)
	m.sides[1] = newMergeSide(sortedS, d)
	// A merge that stops early — error or abort — leaves both sides'
	// spill files on disk (the normal drain drops them at end of
	// stream); release them unconditionally, a no-op after a full run.
	defer func() {
		_ = m.dropSpill(m.sides[0])
		_ = m.dropSpill(m.sides[1])
	}()
	if m.kernel == KernelSweep && len(plan.LeftJoinIdx) > 0 {
		// The sweep kernel buckets each live window by join-key hash so
		// a merge step probes only its own key's bucket instead of
		// scanning the whole window. The pruning, eviction, and spill
		// bookkeeping — everything that determines I/O — is untouched.
		m.sides[0].liveIdx = newLiveIndex(plan.LeftJoinIdx)
		m.sides[1].liveIdx = newLiveIndex(plan.RightJoinIdx)
	}
	tr.Begin("merge")
	if err := m.run(); err != nil {
		return nil, nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, nil, err
	}
	tr.SetAttr("kernel", cfg.Kernel.String())
	tr.SetAttr("liveBudgetBytes", liveBudget)
	tr.SetAttr("inputPageReads", stats.InnerPageReads)
	tr.SetAttr("spillPageRereads", stats.InnerPageRereads)
	tr.SetAttr("spillPagesPeak", stats.SpillPagesPeak)
	tr.SetAttr("liveIndexActivations", stats.LiveIndexActivations)
	tr.End()
	meter.EndPhase("merge")
	return meter.Report(), stats, nil
}

// tupleBytes is the modeled page footprint of one tuple under the
// merger's page format (for v1, encoded bytes plus one slot entry).
func (m *merger) tupleBytes(t tuple.Tuple) int { return page.TupleFootprint(m.format, t) }

// mergeSide is one input stream of the merge plus its live window,
// spill file, and the probes pending against that spill.
type mergeSide struct {
	sorted *extsort.Sorted
	d      *disk.Disk
	pg     *page.Page

	// cursor state
	nextPage int
	buf      []tuple.Tuple
	bufPos   int
	done     bool

	// live window: tuples from this side that later tuples of the
	// other side may still match.
	live      []tuple.Tuple
	liveBytes int
	// liveIdx, under the sweep kernel of a keyed join, buckets the live
	// window by join-key hash with lazy gapless compaction. It lags
	// behind prune (pruned tuples linger in their buckets until a probe
	// walks past them — the probe horizon also excludes them, so they
	// can never emit) and is rebuilt after evictions, which remove
	// tuples the lazy criterion cannot see. idxActive gates it by
	// window size and key repetition: a window below liveIndexMin
	// tuples — or one whose join keys are mostly unique, leaving
	// singleton buckets — scans faster than it can pay the per-step
	// map churn. The index activates only when the window grows past
	// the threshold with repeating keys (rebuilding from the window)
	// and retires when it shrinks well below it; idxRetry defers the
	// next activation attempt after a uniqueness rejection.
	liveIdx   *liveIndex
	idxActive bool
	idxRetry  int

	// spill: live tuples evicted from memory.
	spillFile   disk.FileID
	spillPages  int
	spillMaxEnd chronon.Chronon

	// pending: tuples from the *other* side queued to probe this
	// side's spill. Invariant: the spill does not change while probes
	// are pending (they are flushed before any eviction grows it), so
	// a pending probe sees exactly the spill state from when it was
	// queued.
	pending      []tuple.Tuple
	pendingBytes int
}

func newMergeSide(s *extsort.Sorted, d *disk.Disk) *mergeSide {
	return &mergeSide{sorted: s, d: d, pg: page.MustNew(d.PageSize())}
}

// head returns the next tuple without consuming it; ok is false at end
// of stream. Reading a new page is a counted I/O.
func (s *mergeSide) head(stats *SortMergeStats) (tuple.Tuple, bool, error) {
	for !s.done && s.bufPos >= len(s.buf) {
		if s.nextPage >= s.sorted.NumPages() {
			s.done = true
			break
		}
		if err := s.sorted.Rel.ReadPage(s.nextPage, s.pg); err != nil {
			return tuple.Tuple{}, false, err
		}
		stats.InnerPageReads++
		s.nextPage++
		ts, err := s.pg.Tuples()
		if err != nil {
			return tuple.Tuple{}, false, err
		}
		s.buf, s.bufPos = ts, 0
	}
	if s.done && s.bufPos >= len(s.buf) {
		return tuple.Tuple{}, false, nil
	}
	return s.buf[s.bufPos], true, nil
}

func (s *mergeSide) pop() tuple.Tuple {
	t := s.buf[s.bufPos]
	s.bufPos++
	return t
}

// merger runs the symmetric stream merge.
type merger struct {
	ctx        context.Context
	plan       *schema.JoinPlan
	pred       Predicate
	kernel     Kernel // resolved
	d          *disk.Disk
	sink       relation.Sink
	stats      *SortMergeStats
	sides      [2]*mergeSide
	liveBudget int // shared byte budget across both live windows
	pageCap    int
	format     page.Format // codec for spill pages and footprint modeling
}

// emit combines a left tuple and a right tuple under the plan and
// predicate.
func (m *merger) emit(left, right tuple.Tuple) error {
	if m.pred != chronon.MaskIntersects && !m.pred.Holds(left.V, right.V) {
		return nil
	}
	z, ok := tuple.Combine(m.plan, left, right)
	if !ok {
		return nil
	}
	return m.sink.Append(z)
}

// emitOriented routes (z from side b, w from side 1-b) into plan order.
func (m *merger) emitOriented(b int, z, w tuple.Tuple) error {
	if b == 0 {
		return m.emit(z, w)
	}
	return m.emit(w, z)
}

// mergeStepCheckEvery is how many merge steps go by between
// cancellation checks — about one page's worth of tuples, so a long
// CPU-only stretch between page reads still notices an abort within
// roughly one page boundary.
const mergeStepCheckEvery = 32

func (m *merger) run() error {
	for steps := 0; ; steps++ {
		if steps%mergeStepCheckEvery == 0 {
			if err := execctx.Check(m.ctx, "join: merge"); err != nil {
				return err
			}
		}
		h0, ok0, err := m.sides[0].head(m.stats)
		if err != nil {
			return err
		}
		h1, ok1, err := m.sides[1].head(m.stats)
		if err != nil {
			return err
		}
		var b int
		switch {
		case !ok0 && !ok1:
			// Drain remaining pending spill probes and finish.
			for i := 0; i < 2; i++ {
				if err := m.flushPending(i); err != nil {
					return err
				}
				if err := m.dropSpill(m.sides[i]); err != nil {
					return err
				}
			}
			return nil
		case !ok0:
			b = 1
		case !ok1:
			b = 0
		case h1.V.Start < h0.V.Start:
			b = 1
		default:
			b = 0 // ties go to side 0; side 1's equal-start tuples then see it live
		}
		if err := m.step(b); err != nil {
			return err
		}
	}
}

// step consumes one tuple from side b: probes the other side's live
// window, queues a probe against the other side's spill, and joins the
// live windows' bookkeeping.
func (m *merger) step(b int) error {
	z := m.sides[b].pop()
	other := m.sides[1-b]

	// Prune the other side's live window: z.V.Start is a lower bound on
	// every future start, so tuples ending before it are dead for good.
	other.prune(z.V.Start, m.tupleBytes)

	other.retireIndexIfSmall()

	// Probe the other side's in-memory live window: the sweep kernel
	// touches only z's key bucket (compacting it in place); the scan
	// kernel walks the whole window.
	if other.idxActive {
		keyIdx := m.plan.LeftJoinIdx
		if b == 1 {
			keyIdx = m.plan.RightJoinIdx
		}
		err := other.liveIdx.probe(tuple.HashAt(z, keyIdx), z.V.Start, func(w tuple.Tuple) error {
			if w.V.Start > z.V.End {
				return nil
			}
			return m.emitOriented(b, z, w)
		})
		if err != nil {
			return err
		}
	} else {
		for _, w := range other.live {
			if w.V.End < z.V.Start || w.V.Start > z.V.End {
				continue
			}
			if err := m.emitOriented(b, z, w); err != nil {
				return err
			}
		}
	}

	// Queue z against the other side's spill, flushing at page
	// granularity so each backing-up pass is amortized.
	if other.spillPages > 0 {
		if other.spillMaxEnd < z.V.Start {
			// Nothing in the spill can match z or anything after it;
			// settle the probes already queued, then discard it.
			if err := m.flushPending(1 - b); err != nil {
				return err
			}
			if err := m.dropSpill(other); err != nil {
				return err
			}
		} else {
			other.pending = append(other.pending, z)
			other.pendingBytes += m.tupleBytes(z)
			if other.pendingBytes >= m.pageCap {
				if err := m.flushPending(1 - b); err != nil {
					return err
				}
			}
		}
	}

	// Retain z for future tuples of the other side.
	return m.addLive(b, z)
}

// liveIndexMin is the window size at which the live index activates;
// below it, scanning the window beats the index's map churn.
const liveIndexMin = 64

// retireIndexIfSmall drops the live index when the window has shrunk
// far below the activation threshold (hysteresis avoids thrashing at
// the boundary).
func (s *mergeSide) retireIndexIfSmall() {
	if s.idxActive && len(s.live) < liveIndexMin/2 {
		s.liveIdx.rebuild(nil)
		s.idxActive = false
		// Size retirement, not a uniqueness rejection: the window's
		// keys were repeating, so reactivate as soon as it regrows.
		s.idxRetry = 0
	}
}

// prune drops dead tuples from the live window; footprint is the
// merger's per-tuple page-byte model.
func (s *mergeSide) prune(minStart chronon.Chronon, footprint func(tuple.Tuple) int) {
	kept := s.live[:0]
	bytes := 0
	for _, y := range s.live {
		if y.V.End >= minStart {
			kept = append(kept, y)
			bytes += footprint(y)
		}
	}
	for i := len(kept); i < len(s.live); i++ {
		s.live[i] = tuple.Tuple{}
	}
	s.live, s.liveBytes = kept, bytes
}

// addLive retains z in side b's window, evicting the longest-surviving
// tuples to the side's spill file when the shared budget is exceeded.
func (m *merger) addLive(b int, z tuple.Tuple) error {
	s := m.sides[b]
	s.live = append(s.live, z)
	s.liveBytes += m.tupleBytes(z)
	if s.idxActive {
		s.liveIdx.add(z)
	} else if s.liveIdx != nil && len(s.live) >= liveIndexMin && len(s.live) >= s.idxRetry {
		// Activate only when keys actually repeat in the window (the
		// average bucket holds at least two tuples): on a unique-key
		// window every probe's bucket is a singleton, so the index can
		// only add map churn to what a plain scan already does. After
		// a failed attempt, don't retry until the window has doubled.
		if distinct := s.liveIdx.rebuild(s.live); len(s.live) >= 2*distinct {
			s.idxActive = true
			m.stats.LiveIndexActivations++
		} else {
			s.liveIdx.rebuild(nil)
			s.idxRetry = 2 * len(s.live)
		}
	}
	if m.sides[0].liveBytes+m.sides[1].liveBytes <= m.liveBudget {
		return nil
	}
	// Evict from the larger window, down to 3/4 of its share: the
	// tuples with the largest end chronons stay alive longest and are
	// spilled first.
	victim := m.sides[0]
	if m.sides[1].liveBytes > m.sides[0].liveBytes {
		victim = m.sides[1]
	}
	sort.Slice(victim.live, func(i, j int) bool { return victim.live[i].V.End < victim.live[j].V.End })
	target := victim.liveBytes * 3 / 4
	cut := len(victim.live)
	bytes := victim.liveBytes
	for cut > 0 && bytes > target {
		cut--
		bytes -= m.tupleBytes(victim.live[cut])
	}
	evicted := make([]tuple.Tuple, len(victim.live)-cut)
	copy(evicted, victim.live[cut:])
	for i := cut; i < len(victim.live); i++ {
		victim.live[i] = tuple.Tuple{}
	}
	victim.live = victim.live[:cut]
	victim.liveBytes = bytes
	if victim.idxActive {
		// Eviction removed window tuples the lazy bucket compaction
		// cannot detect (their ends are the largest, not the smallest);
		// without a rebuild they would emit twice — once from their
		// stale bucket and once from the spill-file probes.
		victim.liveIdx.rebuild(victim.live)
		victim.retireIndexIfSmall()
	}

	// Flush probes pending on this spill before it grows, preserving
	// the stable-spill invariant.
	vi := 0
	if victim == m.sides[1] {
		vi = 1
	}
	if err := m.flushPending(vi); err != nil {
		return err
	}
	return m.spillTuples(victim, evicted)
}

// flushPending probes every queued tuple against side si's spill file
// (one backing-up pass), compacting the file when mostly dead.
func (m *merger) flushPending(si int) error {
	s := m.sides[si]
	if len(s.pending) == 0 {
		return nil
	}
	pending := s.pending
	s.pending = nil
	s.pendingBytes = 0
	if s.spillPages == 0 {
		return nil
	}

	// Index the pending batch by join key for O(1) probes per spilled
	// tuple; pending tuples come from side 1-si.
	batch := newOrientedBatch(m.plan, pending, 1-si)

	minStart := pending[0].V.Start // pending is in start order
	var survivors []tuple.Tuple
	total := 0
	pg := page.MustNew(m.d.PageSize())
	for i := 0; i < s.spillPages; i++ {
		if err := m.d.Read(s.spillFile, i, pg); err != nil {
			return err
		}
		m.stats.InnerPageReads++
		m.stats.InnerPageRereads++
		ts, err := pg.Tuples()
		if err != nil {
			return err
		}
		total += len(ts)
		for _, w := range ts {
			if w.V.End < minStart {
				continue // dead for every pending and future tuple
			}
			survivors = append(survivors, w)
			err := batch.forCandidates(w, func(z tuple.Tuple) error {
				return m.emitOriented(1-si, z, w)
			})
			if err != nil {
				return err
			}
		}
	}
	// Compact when mostly dead so future passes read less.
	if len(survivors) <= total/2 {
		if err := m.dropSpill(s); err != nil {
			return err
		}
		return m.spillTuples(s, survivors)
	}
	return nil
}

// orientedBatch indexes a batch of tuples from the given side by join
// key (or start order for keyless joins).
type orientedBatch struct {
	plan  *schema.JoinPlan
	side  int // which side the batch tuples come from
	batch []tuple.Tuple
	byKey map[uint64][]int32
}

func newOrientedBatch(plan *schema.JoinPlan, batch []tuple.Tuple, side int) *orientedBatch {
	ob := &orientedBatch{plan: plan, side: side, batch: batch}
	if len(plan.LeftJoinIdx) > 0 {
		idx := plan.LeftJoinIdx
		if side == 1 {
			idx = plan.RightJoinIdx
		}
		ob.byKey = make(map[uint64][]int32, len(batch))
		for i, t := range batch {
			h := tuple.HashAt(t, idx)
			ob.byKey[h] = append(ob.byKey[h], int32(i))
		}
	}
	return ob
}

// forCandidates calls fn for each batch tuple that may match w (exact
// checks happen in Combine), hashing w's key in place — no allocation
// per spilled tuple.
func (ob *orientedBatch) forCandidates(w tuple.Tuple, fn func(z tuple.Tuple) error) error {
	if ob.byKey == nil {
		for _, z := range ob.batch {
			if err := fn(z); err != nil {
				return err
			}
		}
		return nil
	}
	idx := ob.plan.RightJoinIdx
	if ob.side == 1 {
		idx = ob.plan.LeftJoinIdx
	}
	for _, p := range ob.byKey[tuple.HashAt(w, idx)] {
		if err := fn(ob.batch[p]); err != nil {
			return err
		}
	}
	return nil
}

// spillTuples appends tuples to side s's spill file.
func (m *merger) spillTuples(s *mergeSide, ts []tuple.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	if s.spillFile == 0 {
		s.spillFile = m.d.Create()
		s.spillPages = 0
		s.spillMaxEnd = chronon.Beginning
	}
	pg := page.MustNewFormat(m.d.PageSize(), m.format)
	flush := func() error {
		if pg.Count() == 0 {
			return nil
		}
		if _, err := m.d.Append(s.spillFile, pg); err != nil {
			return err
		}
		s.spillPages++
		pg.Reset()
		return nil
	}
	for _, y := range ts {
		ok, err := pg.AppendTuple(y)
		if err != nil {
			return err
		}
		if !ok {
			if err := flush(); err != nil {
				return err
			}
			if ok, err = pg.AppendTuple(y); err != nil || !ok {
				return fmt.Errorf("join: spill tuple does not fit an empty page (err=%v)", err)
			}
		}
		if y.V.End > s.spillMaxEnd {
			s.spillMaxEnd = y.V.End
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if s.spillPages > m.stats.SpillPagesPeak {
		m.stats.SpillPagesPeak = s.spillPages
	}
	return nil
}

func (m *merger) dropSpill(s *mergeSide) error {
	if s.spillFile == 0 {
		return nil
	}
	err := m.d.Remove(s.spillFile)
	s.spillFile = 0
	s.spillPages = 0
	s.spillMaxEnd = chronon.Beginning
	s.pending = nil
	s.pendingBytes = 0
	return err
}
