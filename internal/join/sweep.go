// The sweeping interval-join kernel (KernelSweep).
//
// Both algorithms that funnel through the matcher — and the sort-merge
// live windows, which have their own structure below — spend their CPU
// matching an outer batch against streams of inner tuples. The scan
// kernel probes per inner tuple: hash the key, walk the whole outer
// bucket (or, for pure time-joins, rescan the start-ordered outer
// prefix). The sweep kernel instead processes an inner batch as one
// forward plane sweep over the start-ordered event sequences of both
// sides, keeping gapless, cache-friendly active-tuple lists per
// join-key bucket (after Piatov, Helmer, Dignös & Persia,
// "Cache-Efficient Sweeping-Based Interval Joins", PAPERS.md): a tuple
// enters its bucket when the sweep passes its start and is compacted
// out the first time a probe finds it dead, so each output pair costs
// O(1) amortized work and dead outer tuples are never rescanned.
//
// The kernel is CPU-only: it performs no I/O and emits exactly the
// pairs the scan kernel emits (in a different order), so results and
// I/O counters are byte-identical across kernels — the determinism
// tests assert it.
package join

import (
	"sort"

	"vtjoin/internal/chronon"
	"vtjoin/internal/tuple"
)

// sweepScratch is the reusable state of one matcher's sweep kernel.
// All slices and map buckets are truncated in place between batches,
// so steady-state sweeps allocate nothing.
type sweepScratch struct {
	// order holds the inner batch positions sorted by start chronon
	// (ties by position); innerHash the per-position key hashes.
	order     []int32
	innerHash []uint64
	sorter    startSorter
	// Active sets of the two-sided sweep: tuples whose start the sweep
	// has passed, bucketed by join-key hash (keyed joins) or kept in a
	// single flat list (pure time-joins). Values are positions into the
	// outer batch / inner batch respectively. touched records which
	// buckets the current batch dirtied, so the next batch resets only
	// those.
	activeOut  map[uint64][]int32
	activeIn   map[uint64][]int32
	touchedOut []uint64
	touchedIn  []uint64
	flatOut    []int32
	flatIn     []int32
}

func (sw *sweepScratch) init() {
	sw.activeOut = make(map[uint64][]int32)
	sw.activeIn = make(map[uint64][]int32)
}

// begin prepares the scratch for a new inner batch: the batch order is
// (re)built and sorted, and the active sets of the previous batch are
// truncated in place.
func (sw *sweepScratch) begin(ys []tuple.Tuple, keyed bool, rightIdx []int) {
	sw.order = sw.order[:0]
	for i := range ys {
		sw.order = append(sw.order, int32(i))
	}
	sw.sorter.idx, sw.sorter.ts = sw.order, ys
	sort.Sort(&sw.sorter)
	sw.sorter.ts = nil
	if !keyed {
		sw.flatOut = sw.flatOut[:0]
		sw.flatIn = sw.flatIn[:0]
		return
	}
	sw.innerHash = sw.innerHash[:0]
	for i := range ys {
		sw.innerHash = append(sw.innerHash, tuple.HashAt(ys[i], rightIdx))
	}
	for _, h := range sw.touchedOut {
		sw.activeOut[h] = sw.activeOut[h][:0]
	}
	sw.touchedOut = sw.touchedOut[:0]
	for _, h := range sw.touchedIn {
		sw.activeIn[h] = sw.activeIn[h][:0]
	}
	sw.touchedIn = sw.touchedIn[:0]
}

// sweepKeyed joins the inner batch ys against the outer batch by a
// two-sided plane sweep over start-ordered events. Each pair is
// emitted exactly once, at the event of its later-starting tuple
// (ties resolved to the outer side, whose events precede): when an
// outer tuple starts it probes the active inner tuples, and when an
// inner tuple starts it probes the active outer tuples. A probed
// bucket is compacted gaplessly in place, dropping tuples that ended
// before the probe's start — starts are non-decreasing, so dropped
// tuples are dead for the rest of the batch.
func (m *matcher) sweepKeyed(ys []tuple.Tuple, emit func(outerIdx int32, z tuple.Tuple) error) error {
	if m.byStartStale {
		m.buildByStart()
	}
	sw := &m.sw
	sw.begin(ys, true, m.plan.RightJoinIdx)

	oc, ic := 0, 0
	maxOutEnd, maxInEnd := chronon.Beginning, chronon.Beginning
	for {
		hasOut, hasIn := oc < len(m.byStart), ic < len(sw.order)
		var takeOut bool
		switch {
		case !hasOut && !hasIn:
			return nil
		case !hasIn:
			// Only active inner tuples can still match; none reaches
			// past the largest admitted end chronon.
			if m.outer[m.byStart[oc]].V.Start > maxInEnd {
				return nil
			}
			takeOut = true
		case !hasOut:
			if ys[sw.order[ic]].V.Start > maxOutEnd {
				return nil
			}
			takeOut = false
		default:
			takeOut = m.outer[m.byStart[oc]].V.Start <= ys[sw.order[ic]].V.Start
		}

		if takeOut {
			xi := m.byStart[oc]
			oc++
			x := m.outer[xi]
			if x.V.End > maxOutEnd {
				maxOutEnd = x.V.End
			}
			h := m.outerHash[xi]
			b := sw.activeOut[h]
			if len(b) == 0 {
				sw.touchedOut = append(sw.touchedOut, h)
			}
			sw.activeOut[h] = append(b, xi)
			ib := sw.activeIn[h]
			if len(ib) == 0 {
				continue
			}
			kept := ib[:0]
			for _, yj := range ib {
				y := ys[yj]
				if y.V.End < x.V.Start {
					continue // dead for every remaining event
				}
				kept = append(kept, yj)
				if !m.accepts(x, y) {
					continue
				}
				if z, ok := tuple.Combine(m.plan, x, y); ok {
					if err := emit(xi, z); err != nil {
						return err
					}
				}
			}
			sw.activeIn[h] = kept
			continue
		}

		yj := sw.order[ic]
		ic++
		y := ys[yj]
		if y.V.End > maxInEnd {
			maxInEnd = y.V.End
		}
		h := sw.innerHash[yj]
		b := sw.activeIn[h]
		if len(b) == 0 {
			sw.touchedIn = append(sw.touchedIn, h)
		}
		sw.activeIn[h] = append(b, yj)
		ob := sw.activeOut[h]
		if len(ob) == 0 {
			continue
		}
		kept := ob[:0]
		for _, xi := range ob {
			x := m.outer[xi]
			if x.V.End < y.V.Start {
				continue
			}
			kept = append(kept, xi)
			if !m.accepts(x, y) {
				continue
			}
			if z, ok := tuple.Combine(m.plan, x, y); ok {
				if err := emit(xi, z); err != nil {
					return err
				}
			}
		}
		sw.activeOut[h] = kept
	}
}

// sweepTime is sweepKeyed for the pure time-join (no shared
// attributes): one flat active list per side instead of key buckets.
// Every surviving active tuple overlaps the probing tuple, so each
// output pair is touched exactly once — where the scan kernel rescans
// the start-ordered outer prefix from the beginning for every inner
// tuple.
func (m *matcher) sweepTime(ys []tuple.Tuple, emit func(outerIdx int32, z tuple.Tuple) error) error {
	sw := &m.sw
	sw.begin(ys, false, nil)

	oc, ic := 0, 0
	maxOutEnd, maxInEnd := chronon.Beginning, chronon.Beginning
	for {
		hasOut, hasIn := oc < len(m.byStart), ic < len(sw.order)
		var takeOut bool
		switch {
		case !hasOut && !hasIn:
			return nil
		case !hasIn:
			if m.outer[m.byStart[oc]].V.Start > maxInEnd {
				return nil
			}
			takeOut = true
		case !hasOut:
			if ys[sw.order[ic]].V.Start > maxOutEnd {
				return nil
			}
			takeOut = false
		default:
			takeOut = m.outer[m.byStart[oc]].V.Start <= ys[sw.order[ic]].V.Start
		}

		if takeOut {
			xi := m.byStart[oc]
			oc++
			x := m.outer[xi]
			if x.V.End > maxOutEnd {
				maxOutEnd = x.V.End
			}
			sw.flatOut = append(sw.flatOut, xi)
			kept := sw.flatIn[:0]
			for _, yj := range sw.flatIn {
				y := ys[yj]
				if y.V.End < x.V.Start {
					continue
				}
				kept = append(kept, yj)
				if !m.accepts(x, y) {
					continue
				}
				if z, ok := tuple.Combine(m.plan, x, y); ok {
					if err := emit(xi, z); err != nil {
						return err
					}
				}
			}
			sw.flatIn = kept
			continue
		}

		yj := sw.order[ic]
		ic++
		y := ys[yj]
		if y.V.End > maxInEnd {
			maxInEnd = y.V.End
		}
		sw.flatIn = append(sw.flatIn, yj)
		kept := sw.flatOut[:0]
		for _, xi := range sw.flatOut {
			x := m.outer[xi]
			if x.V.End < y.V.Start {
				continue
			}
			kept = append(kept, xi)
			if !m.accepts(x, y) {
				continue
			}
			if z, ok := tuple.Combine(m.plan, x, y); ok {
				if err := emit(xi, z); err != nil {
					return err
				}
			}
		}
		sw.flatOut = kept
	}
}

// liveIndex is the sweep kernel's view of a sort-merge live window
// (sortmerge.go): the window's tuples bucketed by join-key hash, so a
// probing tuple touches only its own key's bucket instead of scanning
// the whole window. That pays off on any window past a few dozen
// tuples, nearly unique keys included: a singleton bucket costs one
// map lookup where a scan tests every window tuple. The merge consumes
// tuples in global start order, so probe horizons are monotone and
// buckets compact lazily: a tuple ending before the current probe's
// start can never match again and is dropped gaplessly the first time
// a probe walks past it. Eviction to the spill file removes live
// tuples the lazy criterion cannot see, so the merger rebuilds the
// index from the surviving window after each eviction.
type liveIndex struct {
	idx     []int // join-key positions for this side's tuples
	buckets map[uint64][]tuple.Tuple
}

func newLiveIndex(idx []int) *liveIndex {
	return &liveIndex{idx: idx, buckets: make(map[uint64][]tuple.Tuple)}
}

// add registers a tuple that entered the live window.
func (li *liveIndex) add(t tuple.Tuple) {
	h := tuple.HashAt(t, li.idx)
	li.buckets[h] = append(li.buckets[h], t)
}

// rebuild resets the index to exactly the given window (on activation,
// and after an eviction changed the window beyond the lazy criterion).
// It clears the map rather than keeping an empty bucket for every key
// the window has ever held.
func (li *liveIndex) rebuild(live []liveEntry) {
	clear(li.buckets)
	for _, e := range live {
		li.add(e.t)
	}
}

// probe calls fn for every indexed tuple with z's key hash that is
// still alive at horizon (= z's start chronon, non-decreasing across
// probes), compacting dead tuples out of the bucket in place.
func (li *liveIndex) probe(keyHash uint64, horizon chronon.Chronon, fn func(w tuple.Tuple) error) error {
	b := li.buckets[keyHash]
	if len(b) == 0 {
		return nil
	}
	kept := b[:0]
	for _, w := range b {
		if w.V.End < horizon {
			continue
		}
		kept = append(kept, w)
		if err := fn(w); err != nil {
			return err
		}
	}
	for i := len(kept); i < len(b); i++ {
		b[i] = tuple.Tuple{} // release retained values
	}
	li.buckets[keyHash] = kept
	return nil
}
