package main

import (
	"fmt"
	"math/rand"
	"time"

	"vtjoin"
	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/shard"
	"vtjoin/internal/tuple"
)

// joinStep is one library join of a join op.
type joinStep struct {
	label  string // span and metric name: partition, sortmerge, nestedloop or shard
	algo   vtjoin.Algorithm
	shards int
}

type joinParams struct {
	gen    genSpec
	format page.Format
	memory int // buffer pages per join
	steps  []joinStep
	ops    opCounts
}

// join-overlap: the library JoinInto on a high-overlap keyed pair, so
// the sweep kernel and the v2 codec do most of the work (~262k result
// rows per op, ~45 v2 pages per relation against a 32-page budget).
func newJoinOverlap(cfg config) bench {
	p := joinParams{
		gen:    genSpec{tuples: 8192, longLived: 2048, keys: 64, lifespan: 1_000_000, pad: 96},
		format: page.FormatV2,
		memory: 32,
		steps:  []joinStep{{"partition", vtjoin.AlgorithmPartition, 0}},
		ops:    opCounts{PerEpisode: 6, Warmup: 1, Seconds: 1.55},
	}
	if cfg.tiny {
		p.gen.tuples, p.gen.longLived, p.memory = 512, 128, 8
		p.ops.PerEpisode = 2
	}
	return &joinBench{cfg: cfg, p: p}
}

// join-longlived: the paper's Figure 7 point (2,000 of 8,192 tuples
// long-lived, 128-byte v1 records, memory 4x smaller than the input)
// with a nearly unique key, so the result is small and the planner,
// Grace partitioning, external sort, merge window and shard split
// dominate. One op is one cycle through every dispatch path.
func newJoinLongLived(cfg config) bench {
	p := joinParams{
		gen:    genSpec{tuples: 8192, longLived: 2000, keys: 8192, lifespan: 1_000_000, pad: 91},
		format: page.FormatV1,
		memory: 64,
		steps: []joinStep{
			{"partition", vtjoin.AlgorithmPartition, 0},
			{"sortmerge", vtjoin.AlgorithmSortMerge, 0},
			{"nestedloop", vtjoin.AlgorithmNestedLoop, 0},
			{"shard", vtjoin.AlgorithmPartition, 4},
		},
		ops: opCounts{PerEpisode: 1, Warmup: 1, Seconds: 1.22},
	}
	if cfg.tiny {
		p.gen.tuples, p.gen.longLived, p.gen.keys, p.memory = 512, 125, 512, 16
	}
	return &joinBench{cfg: cfg, p: p}
}

type joinBench struct {
	cfg  config
	p    joinParams
	r, s []tuple.Tuple // the latest episode's inputs, for the layer probes
}

func (b *joinBench) warmEach() bool   { return false }
func (b *joinBench) counts() opCounts { return b.p.ops }

type joinEpisode struct {
	b    *joinBench
	tr   *tracer
	plan *schema.JoinPlan
	want checksum
	// Untraced runs drive the public library; traced runs call the
	// engine entry points with the same settings, because only those
	// return the per-phase cost.Report.
	db   *vtjoin.DB
	r, s *vtjoin.Relation
	d    *disk.Disk
	ri   *relation.Relation
	si   *relation.Relation
}

func (b *joinBench) setup(tr *tracer, seed int64) (episode, error) {
	rt, st := b.p.gen.pair(seed)
	ls, rs := b.p.gen.schemas()
	plan, err := schema.PlanNaturalJoin(ls, rs)
	if err != nil {
		return nil, err
	}
	e := &joinEpisode{b: b, tr: tr, plan: plan}
	b.r, b.s = rt, st
	if tr == nil {
		e.db = vtjoin.Open(vtjoin.WithPageFormat(b.p.format))
		if e.r, err = e.db.Load(ls, rt); err != nil {
			return nil, err
		}
		if e.s, err = e.db.Load(rs, st); err != nil {
			return nil, err
		}
		return e, nil
	}
	e.d = newDevice(b.p.format)
	if e.ri, err = relation.FromTuples(e.d, ls, rt); err != nil {
		return nil, err
	}
	if e.si, err = relation.FromTuples(e.d, rs, st); err != nil {
		return nil, err
	}
	tr.dev = e.d
	return e, nil
}

// pageSize is the device page size of every workload, the library's
// default and the configuration of the paper's experiments.
const pageSize = 4096

func newDevice(f page.Format) *disk.Disk {
	d := disk.New(pageSize)
	d.SetPageFormat(f)
	return d
}

func (e *joinEpisode) oracle() error {
	e.want = referenceChecksum(e.plan, e.b.r, e.b.s)
	return nil
}

func (e *joinEpisode) warm() error {
	for i := 0; i < e.b.p.ops.Warmup; i++ {
		if _, _, err := e.op(-1); err != nil {
			return err
		}
	}
	return nil
}

func (e *joinEpisode) measure(rec *recorder) error {
	for i := 0; i < e.b.p.ops.PerEpisode; i++ {
		rec.begin()
		t0 := time.Now()
		sums, io, err := e.op(i)
		lat := time.Since(t0)
		rec.end()
		if err != nil {
			return err
		}
		rec.io += io
		failed := false
		for k, got := range sums {
			if e.b.cfg.corrupt && i == 0 && k == 0 {
				got.sum++ // stands in for one wrong result row
			}
			failed = failed || got != e.want
		}
		rec.op(lat, failed)
	}
	return nil
}

// op runs one join op (every step once) and returns each step's result
// checksum and the op's weighted I/O. i < 0 marks a warm-up op.
func (e *joinEpisode) op(i int) ([]checksum, float64, error) {
	sums := make([]checksum, len(e.b.p.steps))
	var io float64
	if e.tr == nil {
		for k, st := range e.b.p.steps {
			phases, err := vtjoin.JoinInto(e.r, e.s, vtjoin.Options{
				Algorithm:   st.algo,
				MemoryPages: e.b.p.memory,
				RandomCost:  5,
				Kernel:      vtjoin.KernelSweep,
				Shards:      st.shards,
			}, sums[k].Append)
			if err != nil {
				return nil, 0, fmt.Errorf("%s join: %w", st.label, err)
			}
			for _, ph := range phases {
				io += ph.Cost
			}
		}
		return sums, io, nil
	}

	root := e.tr.begin("op", i, -1)
	defer e.tr.end(root)
	for k, st := range e.b.p.steps {
		id := e.tr.begin("join."+st.label, i, root)
		c0 := e.d.Counters()
		rep, err := engineJoin(st, e.ri, e.si, &sums[k], e.b.p.memory)
		moved := e.d.Counters().Sub(c0)
		e.tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("%s join: %w", st.label, err)
		}
		e.tr.phases("join."+st.label, i, id, rep)
		// The engine's phases must account for exactly the device's
		// movement. A sharded join also moves pages on private shard
		// devices, which the shared device does not see.
		if st.shards == 0 && rep.Total() != moved {
			return nil, 0, fmt.Errorf("%s join: phases report %v, device moved %v", st.label, rep.Total(), moved)
		}
		io += rep.Cost(weights)
	}
	return sums, io, nil
}

// engineJoin runs one step through the engine entry point the library
// dispatches it to, with the settings vtjoin.JoinInto passes.
func engineJoin(st joinStep, r, s *relation.Relation, sink relation.Sink, memory int) (*cost.Report, error) {
	pred := chronon.MaskIntersects
	if st.shards > 1 {
		rep, _, err := shard.Join(shard.AlgorithmPartition, r, s, sink, shard.Config{
			Shards: st.shards, MemoryPages: memory, Weights: weights, Seed: 1, TimePredicate: pred, Kernel: join.KernelSweep,
		})
		return rep, err
	}
	switch st.algo {
	case vtjoin.AlgorithmSortMerge:
		rep, _, err := join.SortMerge(r, s, sink, join.SortMergeConfig{MemoryPages: memory, TimePredicate: pred, Kernel: join.KernelSweep})
		return rep, err
	case vtjoin.AlgorithmNestedLoop:
		return join.NestedLoop(r, s, sink, join.NestedLoopConfig{MemoryPages: memory, TimePredicate: pred, Kernel: join.KernelSweep})
	}
	rep, _, err := join.Partition(r, s, sink, join.PartitionConfig{
		MemoryPages: memory, Weights: weights, Rng: rand.New(rand.NewSource(1)), TimePredicate: pred, Kernel: join.KernelSweep,
	})
	return rep, err
}

func (e *joinEpisode) close() error {
	if e.db != nil {
		return e.db.Close()
	}
	return nil
}

// layers reads the engine phases of the traced ops and runs the engine
// layer probes on the workload's inputs.
func (b *joinBench) layers(tr *tracer, m map[string]float64) error {
	for _, phase := range []string{"join.partition.sample", "join.partition.partition", "join.partition.join",
		"join.sortmerge.merge", "join.nestedloop.join"} {
		m[phase+"_ms"], m[phase+"_io"] = tr.medianMS(phase), tr.medianIO(phase)
	}
	// Sort-merge sorts each input in its own phase; the metric is both.
	for _, side := range []string{"outer", "inner"} {
		m["join.sortmerge.sort_ms"] += tr.medianMS("join.sortmerge.sort " + side)
		m["join.sortmerge.sort_io"] += tr.medianIO("join.sortmerge.sort " + side)
	}
	if len(tr.named("join.shard")) > 0 {
		m["shard.plan_ms"] = tr.medianMS("join.shard.shard plan")
		m["shard.split_io"] = tr.medianIO("join.shard.split")
		m["shard.join_io"] = tr.medianIO("join.shard.join")
		sharded, unsharded := pagesOf(tr, "join.shard"), pagesOf(tr, "join.partition")
		m["shard.sharded_pages"], m["shard.unsharded_pages"] = sharded, unsharded
		if unsharded > 0 {
			m["shard.io_ratio"] = sharded / unsharded
		}
	}
	m["disk.bytes_per_op"] = tr.medianBytes("op")

	ls, rs := b.p.gen.schemas()
	return probeEngine(tr, m, engineInputs{
		ls: ls, rs: rs, r: b.r, s: b.s, format: b.p.format, memory: b.p.memory,
	})
}

// pagesOf is the median page-access count (unweighted) over the
// engine phases of the spans called name.
func pagesOf(tr *tracer, name string) float64 {
	var xs []float64
	for i, s := range tr.spans {
		if s.Name != name {
			continue
		}
		var pages int64
		for _, c := range tr.spans {
			if c.Parent == i {
				pages += c.Pages
			}
		}
		xs = append(xs, float64(pages))
	}
	return median(xs)
}
