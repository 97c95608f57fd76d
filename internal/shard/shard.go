// Package shard implements time-sharded join execution: the valid-time
// line is split into K shards (a coarsening of the sampling-based
// partitioning of internal/partition), each shard's full join pipeline
// runs against a private device so shards share no locks, and shard
// outputs merge through a deterministic order-preserving stage into the
// caller's sink.
//
// Tuple placement follows the paper's last-overlapping-partition rule
// lifted to shards: a tuple is *owned* by the shard containing its
// interval's end. The backward migration the paper performs between
// partitions becomes a boundary exchange at split time — every tuple is
// additionally replicated into each earlier shard its interval
// overlaps, so each shard holds exactly the tuples a tuple-cache
// migration would have delivered to it and shard pipelines stay fully
// independent. A result pair (x, y) carries the overlap interval z;
// since z.End = min(x.End, y.End), exactly one shard contains z.End,
// and both x and y are provably present there (their intervals overlap
// that shard). Each shard therefore runs the complete, unmodified join
// over its local inputs and emits a result only when its interval
// contains the result's end chronon — results are byte-identical to the
// unsharded reference, in a deterministic order (shards merge in time
// order; each pipeline emits deterministically).
//
// The memory budget is carved upfront: each shard pipeline receives
// MemoryPages / Shards pages from a shared buffer.Budget, reserved and
// released on the driver goroutine and audited through the tracer.
// Per-shard traces are recorded against the shard devices and adopted
// into the global trace as foreign-device subtrees (trace.Adopt).
package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"vtjoin/internal/buffer"
	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/join"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/trace"
)

const AlgorithmPartition = join.AlgorithmPartition // Deprecated: kept for bench/; delete once it calls join.Run.

// Config configures a sharded join execution.
type Config struct {
	// Ctx cancels the execution cooperatively at page granularity in
	// every phase on every shard. Nil means never cancelled.
	Ctx context.Context
	// Shards is the requested shard count K (>= 1). The effective count
	// may be lower when the planned partitioning has fewer intervals
	// than K (e.g. tiny or empty inputs).
	Shards int
	// Workers bounds how many shard pipelines run concurrently. Zero
	// selects min(Shards, NumCPU); Sequential forces 1.
	Workers int
	// MemoryPages is the global buffer budget, carved evenly across the
	// K requested shards; each pipeline must receive at least 4 pages.
	MemoryPages int
	// Weights is the access cost model used for shard planning. The
	// zero value selects the paper's 5:1 ratio.
	Weights cost.Weights
	// Seed drives the boundary-planning sampler.
	Seed int64
	// TimePredicate restricts matches to pairs whose intervals satisfy
	// the mask (zero: intersection, the valid-time natural join).
	TimePredicate join.Predicate
	// Kernel selects the in-memory matching kernel for every pipeline.
	Kernel join.Kernel
	// Sequential disables all intra- and inter-shard concurrency: the
	// pipelines run inline, one after the other, with their own
	// concurrency disabled too. Results and counters are identical to a
	// concurrent run; per-device I/O ordinals become deterministic.
	Sequential bool
	// Tracer records plan/split/join/merge spans against the *global*
	// device and adopts the per-shard traces as foreign-device
	// subtrees. Audits extend to every shard: counter attribution,
	// temp-file reclamation and buffer-budget balance per shard.
	Tracer *trace.Tracer
	// NewDevice supplies shard j's private device (for fault injection
	// and instrumentation in tests). Nil selects a fresh in-memory
	// device with the input's page size. Devices must use the input's
	// page size.
	NewDevice func(shard int) *disk.Disk
}

// ShardStats describes one shard of an execution.
type ShardStats struct {
	// Interval is the slice of the valid-time line this shard owns.
	Interval chronon.Interval
	// OwnLeft/OwnRight count input tuples owned by the shard (interval
	// end inside it); ReplicatedLeft/ReplicatedRight count boundary
	// copies received from later shards' tuples that overlap this one.
	OwnLeft, ReplicatedLeft   int64
	OwnRight, ReplicatedRight int64
	// Results counts tuples this shard emitted (after the ownership
	// filter).
	Results int64
	// IO is the shard device's counter movement during the join phase
	// alone (splitting writes and merge reads excluded) — directly
	// comparable to an unsharded run over the same local inputs.
	IO disk.Counters
}

// Stats describes a sharded execution.
type Stats struct {
	// Shards is the effective shard count (<= Config.Shards).
	Shards int
	// Boundaries are the interior shard cuts (len Shards-1), each
	// coinciding with a cut of the planned fine partitioning.
	Boundaries []chronon.Chronon
	// LocalParts[j] is the fine partitioning restricted to shard j,
	// preset into shard j's partition-join pipeline (unused by the
	// other algorithms).
	LocalParts []partition.Partitioning
	// PerShard holds one entry per effective shard.
	PerShard []ShardStats
}

// Join evaluates the valid-time natural join of r and s (both on the
// same device) time-sharded across private per-shard devices, streaming
// the merged result to sink in deterministic order. The returned report
// aggregates I/O over the global and all shard devices by phase.
func Join(algo join.Algorithm, r, s *relation.Relation, sink relation.Sink, cfg Config) (*cost.Report, *Stats, error) {
	if !slices.Contains(join.Algorithms, algo) {
		return nil, nil, fmt.Errorf("shard: unknown algorithm %d", algo)
	}
	if r.Disk() != s.Disk() {
		return nil, nil, fmt.Errorf("shard: relations on different devices")
	}
	if cfg.Shards < 1 {
		return nil, nil, fmt.Errorf("shard: need at least one shard, got %d", cfg.Shards)
	}
	perShard := cfg.MemoryPages / cfg.Shards
	if perShard < 4 {
		return nil, nil, fmt.Errorf("shard: %d buffer pages across %d shards leaves %d per shard; every pipeline needs >= 4",
			cfg.MemoryPages, cfg.Shards, perShard)
	}
	if cfg.Weights == (cost.Weights{}) {
		cfg.Weights = cost.Ratio(5)
	}
	if err := execctx.Check(cfg.Ctx, "shard: join"); err != nil {
		return nil, nil, err
	}

	global := r.Disk()
	tr := cfg.Tracer
	rep := &cost.Report{Algorithm: "sharded " + algo.Label()}

	// Phase metering sums the global device and every shard device, so
	// the report covers all I/O the execution caused anywhere.
	var devs []*disk.Disk
	type mark struct {
		g    disk.Counters
		dev  []disk.Counters
		wall time.Time
		cpu  time.Duration
	}
	take := func() mark {
		m := mark{g: global.Counters(), wall: time.Now(), cpu: cost.ProcessCPUTime()}
		for _, d := range devs {
			m.dev = append(m.dev, d.Counters())
		}
		return m
	}
	endPhase := func(name string, prev mark) mark {
		cur := take()
		c := cur.g.Sub(prev.g)
		for i := range prev.dev {
			c = c.Add(cur.dev[i].Sub(prev.dev[i]))
		}
		rep.AddPhase(cost.Phase{Name: name, Counters: c, Wall: cur.wall.Sub(prev.wall), CPU: cur.cpu - prev.cpu})
		return cur
	}

	// Plan: choose shard boundaries by coarsening a sampled fine
	// partitioning of r (one planning pass, reused by every shard).
	m := take()
	tr.Begin("shard plan")
	bounds, locals, err := planShards(r, cfg, perShard)
	tr.End()
	if err != nil {
		return nil, nil, err
	}
	k := bounds.N()
	stats := &Stats{
		Shards:     k,
		Boundaries: bounds.Cuts(),
		LocalParts: locals,
		PerShard:   make([]ShardStats, k),
	}
	for j := 0; j < k; j++ {
		stats.PerShard[j].Interval = bounds.Interval(j)
	}
	m = endPhase("shard plan", m)

	// Private devices, one per effective shard.
	pageSize := global.PageSize()
	for j := 0; j < k; j++ {
		var d *disk.Disk
		if cfg.NewDevice != nil {
			d = cfg.NewDevice(j)
		} else {
			d = disk.New(pageSize)
			// Shard-local temporaries default to the parent device's codec.
			d.SetPageFormat(global.PageFormat())
		}
		if d == nil || d.PageSize() != pageSize {
			return nil, nil, fmt.Errorf("shard: device %d must use the input page size %d", j, pageSize)
		}
		devs = append(devs, d)
	}

	outSchema, err := outputSchema(r, s)
	if err != nil {
		return nil, nil, err
	}

	// Split: route both inputs onto the shard devices (ownership plus
	// backward boundary replication), and pre-create each shard's
	// result relation so every file a pipeline must reclaim on abort is
	// one it created itself.
	tr.Begin("split")
	rLoc, sLoc, err := split(cfg.Ctx, r, s, devs, bounds, stats)
	tr.End()
	resLoc := make([]*relation.Relation, k)
	locals2 := locals // keep the preset addressable per shard
	if err == nil {
		for j := 0; j < k; j++ {
			resLoc[j] = relation.Create(devs[j], outSchema)
		}
	}
	dropAll := func(rels []*relation.Relation) {
		for _, rel := range rels {
			if rel != nil {
				_ = rel.Drop()
			}
		}
	}
	defer dropAll(resLoc)
	defer dropAll(sLoc)
	defer dropAll(rLoc)
	if err != nil {
		return nil, nil, err
	}
	m = endPhase("split", m)

	// Carve the buffer budget: K regions of perShard pages, reserved
	// and released here on the driver (buffer.Budget is not
	// thread-safe) and audited once every pipeline has closed.
	bud, err := buffer.NewBudget(cfg.MemoryPages)
	if err != nil {
		return nil, nil, err
	}
	regions := make([]*buffer.Region, k)
	for j := 0; j < k; j++ {
		if regions[j], err = bud.Reserve(fmt.Sprintf("shard[%d]", j), perShard); err != nil {
			return nil, nil, err
		}
	}
	tr.AuditAtFinish("shard buffer budget", bud.CheckBalanced)

	// Join: every shard pipeline on its own device, on a bounded worker
	// pool. Per-shard traces are finished inside the worker (the shard
	// device is touched by exactly one goroutine during this phase, so
	// attribution stays exact) and adopted in shard order below.
	workers := cfg.Workers
	if cfg.Sequential {
		workers = 1
	} else if workers <= 0 {
		workers = runtime.NumCPU()
	}
	spans := make([]*trace.Span, k)
	tr.Begin("join")
	err = runPool(cfg.Ctx, workers, k, func(j int) error {
		return runShard(algo, j, rLoc[j], sLoc[j], resLoc[j], devs[j], bounds, &locals2[j], perShard, cfg, spans, stats)
	})
	for _, sp := range spans {
		if sp != nil {
			tr.Adopt(sp)
		}
	}
	tr.End()
	for _, reg := range regions {
		reg.Close()
	}
	if err != nil {
		return nil, nil, err
	}
	m = endPhase("join", m)

	// Merge: concatenate shard outputs in time order on the driver.
	// Shards own disjoint slices of the line and each emitted exactly
	// the results ending in its slice, so concatenation *is* the
	// order-preserving merge, and its order is deterministic.
	tr.Begin("merge")
	err = func() error {
		for j := 0; j < k; j++ {
			sc := resLoc[j].Scan()
			for {
				if err := execctx.Check(cfg.Ctx, "shard: merge"); err != nil {
					return err
				}
				t, ok, err := sc.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := sink.Append(t); err != nil {
					return err
				}
			}
		}
		return sink.Flush()
	}()
	tr.End()
	if err != nil {
		return nil, nil, err
	}
	endPhase("merge", m)
	return rep, stats, nil
}

// runShard executes one shard's pipeline against its private device.
func runShard(algo join.Algorithm, j int, r, s, res *relation.Relation, dev *disk.Disk,
	bounds partition.Partitioning, local *partition.Partitioning, memory int,
	cfg Config, spans []*trace.Span, stats *Stats) error {
	var shtr *trace.Tracer
	if cfg.Tracer.Enabled() {
		shtr = trace.New(dev, fmt.Sprintf("shard[%d]", j), trace.Options{Audit: cfg.Tracer.Auditing()})
	}
	base := dev.Counters()
	bs := &boundSink{next: res.NewBuilder(), bounds: bounds, shard: j}
	_, err := join.Run(algo, r, s, bs, join.Spec{
		Ctx: cfg.Ctx, MemoryPages: memory, Weights: cfg.Weights,
		Partitioning: local, TimePredicate: cfg.TimePredicate,
		Sequential: cfg.Sequential, Kernel: cfg.Kernel, Tracer: shtr,
	})
	span, auditErr := shtr.Finish()
	spans[j] = span
	stats.PerShard[j].IO = dev.Counters().Sub(base)
	stats.PerShard[j].Results = bs.emitted
	if err != nil {
		return fmt.Errorf("shard %d: %w", j, err)
	}
	if auditErr != nil {
		return fmt.Errorf("shard %d: %w", j, auditErr)
	}
	return nil
}

// outputSchema derives the join's result schema, matching what the
// underlying algorithms emit.
func outputSchema(r, s *relation.Relation) (*schema.Schema, error) {
	plan, err := schema.PlanNaturalJoin(r.Schema(), s.Schema())
	if err != nil {
		return nil, err
	}
	return plan.Output, nil
}
