package partition

import (
	"context"
	"fmt"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
)

// Partitioned is a relation physically divided into partition files,
// one per partitioning interval. Each tuple is stored exactly once, in
// the last partition it overlaps (Section 3.3) — long-lived tuples are
// not replicated; the join migrates them at evaluation time.
type Partitioned struct {
	Part   Partitioning
	Schema *schema.Schema

	d      *disk.Disk
	format page.Format // page codec of the partition files (inherited from the source relation)
	files  []disk.FileID
	pages  []int
	tuples []int64
	// minStart[i] is the smallest valid-time start among tuples stored
	// in partition i (Forever when empty). Because tuples are placed by
	// their *last* overlapping partition, a tuple relevant to a given
	// time range may be stored arbitrarily far to the right; minStart
	// lets incremental delta-joins skip partitions whose every stored
	// tuple begins after the probe interval ends.
	minStart []chronon.Chronon
}

// DoPartitioning is the paper's doPartitioning: Grace-partition r using
// the given partitioning. The relation is scanned once; each tuple is
// routed to the in-memory bucket page of its last overlapping
// partition, and bucket pages are flushed to that partition's file as
// they fill (Kitsuregawa et al. 1983). Following Section 3.2, one
// buffer page is reserved for the input scan and one bucket page per
// partition is assumed to fit in memory ("we assume that the number of
// partitions is small, and therefore, that sufficient main memory is
// available to perform the partitioning").
//
// The pass checks ctx between input pages (nil = never cancelled) and
// aborts with an *execctx.AbortError; an aborted or failed pass drops
// every partition file it created before returning.
func DoPartitioning(ctx context.Context, r *relation.Relation, part Partitioning) (*Partitioned, error) {
	p := newPartitioned(r, part)
	if err := p.fill(ctx, r); err != nil {
		// Release the partition files: a failed pass must not leak
		// device space.
		_ = p.Drop()
		return nil, err
	}
	return p, nil
}

// DoPartitioningPair Grace-partitions r and s under the same
// partitioning. When r and s are different files the two passes run
// concurrently: they scan disjoint input files and flush to disjoint
// partition files, so their per-file access sequences (and therefore
// the counted I/O) are identical to two back-to-back sequential passes.
// A self-join (r and s the same file on the same device) runs the
// passes back to back instead, because interleaved scans of one file
// would turn its sequential reads into random ones. Both sets of
// partition files are created up front on the caller's goroutine, which
// keeps file-ID assignment deterministic regardless of scheduling.
// Each pass checks ctx between input pages and recovers its own panics,
// so a cancelled or crashing pass returns cleanly: the error surfaces
// on the caller's goroutine, and all partition files of both sides are
// dropped.
func DoPartitioningPair(ctx context.Context, r, s *relation.Relation, part Partitioning) (*Partitioned, *Partitioned, error) {
	rp := newPartitioned(r, part)
	sp := newPartitioned(s, part)
	pass := func(p *Partitioned, rel *relation.Relation) (err error) {
		defer execctx.RecoverTo("partition: fill", &err)
		return p.fill(ctx, rel)
	}
	var err error
	if r.Disk() == s.Disk() && r.File() == s.File() {
		if err = pass(rp, r); err == nil {
			err = pass(sp, s)
		}
	} else {
		sErr := make(chan error, 1)
		go func() { sErr <- pass(sp, s) }()
		err = pass(rp, r)
		if e := <-sErr; err == nil {
			err = e
		}
	}
	if err != nil {
		_ = rp.Drop()
		_ = sp.Drop()
		return nil, nil, err
	}
	return rp, sp, nil
}

// newPartitioned allocates the partition files and bookkeeping for one
// Grace pass. Files are created here, before any concurrent work, so
// IDs are assigned in a deterministic order.
func newPartitioned(r *relation.Relation, part Partitioning) *Partitioned {
	d := r.Disk()
	n := part.N()
	p := &Partitioned{
		Part:     part,
		Schema:   r.Schema(),
		d:        d,
		format:   r.Format(),
		files:    make([]disk.FileID, n),
		pages:    make([]int, n),
		tuples:   make([]int64, n),
		minStart: make([]chronon.Chronon, n),
	}
	for i := range p.minStart {
		p.minStart[i] = chronon.Forever
	}
	for i := range p.files {
		p.files[i] = d.Create()
	}
	return p
}

// fill runs the Grace scan: route every record of r to the in-memory
// bucket page of its last overlapping partition, flushing bucket pages
// as they fill. fill only touches r's file (reads, in storage order)
// and p's own partition files (appends), so concurrent fills over
// disjoint relations never share a file.
func (p *Partitioned) fill(ctx context.Context, r *relation.Relation) error {
	d := p.d
	n := p.Part.N()
	buckets := make([]*page.Page, n)
	for i := range buckets {
		buckets[i] = page.MustNewFormat(d.PageSize(), p.format)
	}
	in := page.MustNew(d.PageSize())
	ps := r.ScanPages()
	for {
		if err := execctx.Check(ctx, "partition: fill"); err != nil {
			return err
		}
		ok, err := ps.Next(in)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for s := 0; s < in.Count(); s++ {
			iv, err := in.RecordInterval(s)
			if err != nil {
				return fmt.Errorf("partition: page record %d: %w", s, err)
			}
			i := p.Part.Last(iv)
			ok, err := in.CopyRecordTo(s, buckets[i])
			if err != nil {
				return err
			}
			if !ok {
				if err := p.flushBucket(i, buckets[i]); err != nil {
					return err
				}
				if ok, err = in.CopyRecordTo(s, buckets[i]); err != nil {
					return err
				} else if !ok {
					return fmt.Errorf("partition: record %d does not fit an empty page", s)
				}
			}
			p.tuples[i]++
			if iv.Start < p.minStart[i] {
				p.minStart[i] = iv.Start
			}
		}
	}
	for i, b := range buckets {
		if b.Count() > 0 {
			if err := p.flushBucket(i, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Partitioned) flushBucket(i int, b *page.Page) error {
	if _, err := p.d.Append(p.files[i], b); err != nil {
		return err
	}
	p.pages[i]++
	b.Reset()
	return nil
}

// N returns the number of partitions.
func (p *Partitioned) N() int { return len(p.files) }

// Format returns the page codec of the partition files (inherited from
// the source relation at partitioning time).
func (p *Partitioned) Format() page.Format { return p.format }

// Pages returns the number of disk pages in partition i.
func (p *Partitioned) Pages(i int) int { return p.pages[i] }

// Tuples returns the number of tuples stored in partition i.
func (p *Partitioned) Tuples(i int) int64 { return p.tuples[i] }

// TotalTuples returns the number of tuples across all partitions.
func (p *Partitioned) TotalTuples() int64 {
	var t int64
	for _, n := range p.tuples {
		t += n
	}
	return t
}

// TotalPages returns the number of pages across all partitions.
func (p *Partitioned) TotalPages() int {
	t := 0
	for _, n := range p.pages {
		t += n
	}
	return t
}

// ReadPage reads page idx of partition i into dst (a counted I/O).
func (p *Partitioned) ReadPage(i, idx int, dst *page.Page) error {
	return p.d.Read(p.files[i], idx, dst)
}

// ReadAll materializes every tuple of partition i (counted I/O: one
// random seek plus sequential reads).
func (p *Partitioned) ReadAll(i int) ([]tuple.Tuple, error) {
	out := make([]tuple.Tuple, 0, p.tuples[i])
	pg := page.MustNew(p.d.PageSize())
	for idx := 0; idx < p.pages[i]; idx++ {
		if err := p.ReadPage(i, idx, pg); err != nil {
			return nil, err
		}
		ts, err := pg.Tuples()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// MinStart returns the smallest valid-time start among partition i's
// stored tuples (Forever when the partition is empty).
func (p *Partitioned) MinStart(i int) chronon.Chronon { return p.minStart[i] }

// Insert appends tuple t to its last overlapping partition, filling the
// partition's trailing page if there is room (read-modify-write) and
// appending a fresh page otherwise. The base-relation simplicity of
// updates under no-replication placement is one of the paper's stated
// advantages over the replication strategy of Leung & Muntz.
func (p *Partitioned) Insert(t tuple.Tuple) error {
	if err := t.CheckAgainst(p.Schema); err != nil {
		return err
	}
	i := p.Part.Last(t.V)
	pg := page.MustNewFormat(p.d.PageSize(), p.format)
	if p.pages[i] > 0 {
		last := p.pages[i] - 1
		if err := p.d.Read(p.files[i], last, pg); err != nil {
			return err
		}
		ok, err := pg.AppendTuple(t)
		if err != nil {
			return err
		}
		if ok {
			if err := p.d.Write(p.files[i], last, pg); err != nil {
				return err
			}
			p.noteInsert(i, t)
			return nil
		}
		pg.Reset()
	}
	ok, err := pg.AppendTuple(t)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("partition: tuple does not fit an empty page")
	}
	if _, err := p.d.Append(p.files[i], pg); err != nil {
		return err
	}
	p.pages[i]++
	p.noteInsert(i, t)
	return nil
}

func (p *Partitioned) noteInsert(i int, t tuple.Tuple) {
	p.tuples[i]++
	if t.V.Start < p.minStart[i] {
		p.minStart[i] = t.V.Start
	}
}

// Drop removes all partition files. Removal is best-effort across the
// whole set — one failing file must not strand the rest — and the first
// failure is reported. Dropping twice is a no-op.
func (p *Partitioned) Drop() error {
	var first error
	for _, f := range p.files {
		if err := p.d.Remove(f); err != nil && first == nil {
			first = err
		}
	}
	p.files = nil
	return first
}
