package vtjoin

import (
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/join"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/shard"
	"vtjoin/internal/trace"
)

// Algorithm selects a join evaluation strategy.
type Algorithm int

// The available evaluation strategies.
const (
	// AlgorithmAuto picks PartitionJoin, the paper's algorithm, which
	// dominates or matches the alternatives across the evaluated
	// configurations.
	AlgorithmAuto Algorithm = iota
	AlgorithmPartition
	AlgorithmSortMerge
	AlgorithmNestedLoop
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a < AlgorithmAuto || a > AlgorithmNestedLoop {
		return "invalid"
	}
	return [...]string{"auto", "partition-join", "sort-merge", "nested-loop"}[a]
}

// Predicate selects the temporal condition tuple pairs must satisfy,
// beyond agreeing on their shared attributes. Every predicate implies
// interval intersection, so the result timestamp — the maximal overlap
// — is always defined.
type Predicate int

// The supported temporal predicates. These realize the other
// valid-time joins the paper surveys in Section 4.1 (contain-join,
// intersect-join, overlap-join of Leung & Muntz) within the same three
// evaluation frameworks.
const (
	// PredicateIntersects matches tuples whose intervals share at
	// least one chronon — the valid-time natural join (default).
	PredicateIntersects Predicate = iota
	// PredicateContains matches when the left interval contains the
	// right one.
	PredicateContains
	// PredicateContainedIn matches when the left interval lies within
	// the right one.
	PredicateContainedIn
	// PredicateEqualIntervals matches only identical intervals.
	PredicateEqualIntervals
)

// String names the predicate.
func (p Predicate) String() string {
	switch p {
	case PredicateIntersects:
		return "intersects"
	case PredicateContains:
		return "contains"
	case PredicateContainedIn:
		return "contained-in"
	case PredicateEqualIntervals:
		return "equal-intervals"
	}
	return "invalid"
}

func (p Predicate) mask() (chronon.Mask, error) {
	switch p {
	case PredicateIntersects:
		return chronon.MaskIntersects, nil
	case PredicateContains:
		return chronon.MaskContains, nil
	case PredicateContainedIn:
		return chronon.MaskContainedIn, nil
	case PredicateEqualIntervals:
		return chronon.MaskEqual, nil
	}
	return 0, fmt.Errorf("vtjoin: unknown predicate %d", p)
}

// Kernel selects the in-memory matching kernel every algorithm uses to
// join tuples once they are resident. Results and I/O counters are
// identical across kernels; only CPU time differs.
type Kernel int

// The available kernels.
const (
	// KernelAuto picks the sweep kernel.
	KernelAuto Kernel = iota
	// KernelSweep matches batches by an endpoint-sorted forward plane
	// sweep with gapless active-tuple lists per join-key bucket (after
	// Piatov et al., "Cache-Efficient Sweeping-Based Interval Joins").
	KernelSweep
	// KernelScan probes tuple by tuple against a hash index of the
	// resident batch — the baseline the sweep kernel is measured
	// against.
	KernelScan
)

// String names the kernel.
func (k Kernel) String() string { return k.internal().String() }

func (k Kernel) internal() join.Kernel {
	switch k {
	case KernelScan:
		return join.KernelScan
	default:
		return join.KernelSweep
	}
}

// JoinType selects inner or outer join semantics.
type JoinType int

// The supported join types. Outer joins emit, in addition to the
// inner-join results, one null-padded tuple per maximal sub-interval
// of an input tuple's timestamp not covered by any match — the
// valid-time analogue of SQL outer joins (cf. the TE-outerjoin of
// Segev & Gunadhi cited in Section 4.1). Outer joins are evaluated by
// the partition or nested-loop algorithms (the merge's spill files
// cannot carry coverage); a full outer join runs two passes.
const (
	JoinInner JoinType = iota
	JoinLeftOuter
	JoinRightOuter
	JoinFullOuter
)

// String names the join type.
func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "inner"
	case JoinLeftOuter:
		return "left-outer"
	case JoinRightOuter:
		return "right-outer"
	case JoinFullOuter:
		return "full-outer"
	}
	return "invalid"
}

// Options configures a join evaluation. The zero value asks for the
// inner partition join with 256 pages (1 MiB at the default page
// size) of buffer, a 5:1 random:sequential cost model, and a fixed
// seed.
type Options struct {
	// Algorithm selects the evaluation strategy (default: partition).
	Algorithm Algorithm
	// Type selects inner or outer join semantics (default: inner).
	Type JoinType
	// Predicate selects the temporal condition (default: intersecting
	// intervals, the valid-time natural join).
	Predicate Predicate
	// MemoryPages is the total buffer budget M in pages (default 256).
	// Every algorithm stays within it: the partition join splits it
	// per the paper's Figure 3, sort-merge sorts and windows with it,
	// nested loop blocks the outer relation by it.
	MemoryPages int
	// RandomCost is the cost of a random page access relative to a
	// sequential access (default 5, one of the paper's ratios). It
	// weights cost reports and guides the partition join's planning.
	RandomCost float64
	// Seed drives the partition join's sampling (default 1).
	Seed int64
	// Kernel selects the in-memory matching kernel (default: sweep).
	// Join results and every I/O counter are identical across kernels;
	// the knob exists for benchmarking and differential testing.
	Kernel Kernel
	// Shards, when > 1, time-shards the execution: the valid-time line
	// is split into Shards slices along planned partition boundaries,
	// each slice's full pipeline runs against a private in-memory
	// device on its own goroutine with MemoryPages/Shards buffer pages,
	// and the outputs merge deterministically. Results are identical to
	// the unsharded run; only wall-clock time changes (inner joins
	// only). 0 or 1 runs unsharded.
	Shards int
	// Trace collects a hierarchical execution trace of the run — per
	// phase (and per partition / block / merge pass) spans carrying
	// exact I/O counter deltas, wall and CPU time, the planner's
	// candidate cost curve and kernel decisions. Retrieve it from
	// Result.Trace (Join); JoinInto honors the flag but discards the
	// spans. Tracing changes neither join results nor I/O counters.
	Trace bool
	// TraceAudit implies Trace and additionally runs the invariant
	// audits during evaluation: per-span I/O must sum exactly to the
	// device's counter movement, partitions must cover the input
	// exactly, the buffer budget must balance on close, and tuple-cache
	// paging must be symmetric. Violations fail the join with a
	// descriptive error.
	TraceAudit bool
}

func (o Options) withDefaults() Options {
	if o.MemoryPages == 0 {
		o.MemoryPages = 256
	}
	if o.RandomCost == 0 {
		o.RandomCost = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Algorithm == AlgorithmAuto {
		o.Algorithm = AlgorithmPartition
	}
	return o
}

// PhaseCost is one phase of an evaluation with its weighted I/O cost.
type PhaseCost struct {
	Name string
	Cost float64
	IO   IOCounters
}

// TraceSpan is one node of an execution trace: a named phase with its
// I/O counter delta, timings, attributes and child spans. See
// Options.Trace.
type TraceSpan = trace.Span

// Result holds a materialized join result and its execution report.
type Result struct {
	// Relation holds the result tuples, stored in the same DB.
	Relation *Relation
	// Algorithm that actually ran.
	Algorithm Algorithm
	// Cost is the total weighted I/O cost of the evaluation, excluding
	// the cost of writing the result (charged equally to every
	// algorithm, it is reported separately as ResultWriteCost).
	Cost float64
	// ResultWriteCost is the weighted cost of materializing the result.
	ResultWriteCost float64
	// Phases breaks Cost down by evaluation phase.
	Phases []PhaseCost
	// Trace is the execution trace (nil unless Options.Trace or
	// Options.TraceAudit was set).
	Trace *TraceSpan
}

// Join evaluates r ⋈V s — the valid-time natural join — materializing
// the result as a new relation in the same DB. Tuples match when they
// agree on all shared column names and their timestamps overlap; the
// result timestamp is the maximal overlap. The output schema is r's
// columns followed by s's non-shared columns.
func Join(r, s *Relation, opts Options) (*Result, error) {
	return JoinContext(context.Background(), r, s, opts)
}

// JoinContext is Join honoring a context: cancellation and deadline
// expiry are checked cooperatively at page-granularity boundaries in
// every phase of every algorithm, and an aborted join returns an error
// wrapping context.Canceled or context.DeadlineExceeded (test with
// errors.Is). The abort is clean: worker goroutines exit, every
// temporary file (partitions, sort runs, spill files) is removed, and
// buffer accounting balances — only the partially written output
// relation remains, and it is dropped here before returning.
func JoinContext(ctx context.Context, r, s *Relation, opts Options) (*Result, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("vtjoin: nil relation")
	}
	if r.db != s.db {
		return nil, fmt.Errorf("vtjoin: relations belong to different DBs")
	}
	o := opts.withDefaults()
	db := r.db

	outSchema, err := outputSchema(r, s)
	if err != nil {
		return nil, err
	}
	out := relation.Create(db.d, outSchema)
	sink := out.NewBuilder()

	rep, span, err := run(ctx, o, r, s, sink)
	if err != nil {
		_ = out.Drop()
		return nil, err
	}
	w := cost.Ratio(o.RandomCost)

	res := &Result{
		Relation:  &Relation{db: db, rel: out},
		Algorithm: o.Algorithm,
		Phases:    phaseCosts(rep, w),
		Trace:     span,
	}
	// Split out the result-write cost: the writes in the report that
	// went to the output relation. Conservatively, every write page of
	// the output was produced exactly once by the sink.
	outPages, err := out.Pages()
	if err != nil {
		return nil, err
	}
	res.ResultWriteCost = w.Seq * float64(outPages)
	res.Cost = rep.Cost(w)
	return res, nil
}

// JoinInto evaluates r ⋈V s streaming result tuples to fn instead of
// materializing them; fn must not retain the tuple's Values slice
// beyond the call unless it clones the tuple. It returns the per-phase
// cost report. Use this form for the paper's measurement configuration
// (result writing excluded) or for pipelined consumers.
func JoinInto(r, s *Relation, opts Options, fn func(Tuple) error) ([]PhaseCost, error) {
	return JoinIntoContext(context.Background(), r, s, opts, fn)
}

// JoinIntoContext is JoinInto honoring a context, with the same
// cancellation semantics as JoinContext.
func JoinIntoContext(ctx context.Context, r, s *Relation, opts Options, fn func(Tuple) error) ([]PhaseCost, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("vtjoin: nil relation")
	}
	if r.db != s.db {
		return nil, fmt.Errorf("vtjoin: relations belong to different DBs")
	}
	o := opts.withDefaults()
	rep, _, err := run(ctx, o, r, s, funcSink(fn))
	if err != nil {
		return nil, err
	}
	return phaseCosts(rep, cost.Ratio(o.RandomCost)), nil
}

// phaseCosts converts an engine report into the public per-phase costs
// under the weights w.
func phaseCosts(rep *cost.Report, w cost.Weights) []PhaseCost {
	var phases []PhaseCost
	for _, ph := range rep.Phases {
		phases = append(phases, PhaseCost{Name: ph.Name, Cost: w.Of(ph.Counters), IO: ioCounters(ph.Counters)})
	}
	return phases
}

type funcSink func(Tuple) error

func (f funcSink) Append(t Tuple) error { return f(t) }
func (f funcSink) Flush() error         { return nil }

func outputSchema(r, s *Relation) (*Schema, error) {
	plan, err := planPublic(r, s)
	if err != nil {
		return nil, err
	}
	return plan.Output, nil
}

// run dispatches the evaluation, wrapping it in an execution trace
// when requested. Audit violations surface as errors even when the
// evaluation itself succeeded.
func run(ctx context.Context, o Options, r, s *Relation, sink relation.Sink) (*cost.Report, *trace.Span, error) {
	var tr *trace.Tracer
	if o.Trace || o.TraceAudit {
		tr = trace.New(r.db.d, o.Algorithm.String(), trace.Options{Audit: o.TraceAudit})
	}
	rep, err := dispatch(ctx, o, r, s, sink, tr)
	span, auditErr := tr.Finish()
	if err != nil {
		return nil, nil, err
	}
	if auditErr != nil {
		return nil, nil, auditErr
	}
	return rep, span, nil
}

// dispatch hands the evaluation to shard.Join or join.Run. Outer joins
// compose the coverage-tracking passes that the partition and
// nested-loop engines provide; join.Run rejects them on sort-merge.
func dispatch(ctx context.Context, o Options, r, s *Relation, sink relation.Sink, tr *trace.Tracer) (*cost.Report, error) {
	mask, err := o.Predicate.mask()
	if err != nil {
		return nil, err
	}
	if o.Algorithm < AlgorithmPartition || o.Algorithm > AlgorithmNestedLoop {
		return nil, fmt.Errorf("vtjoin: unknown algorithm %d", o.Algorithm)
	}
	// The public algorithms after AlgorithmAuto follow join's order.
	algo := join.Algorithm(o.Algorithm - AlgorithmPartition)
	if o.Shards > 1 {
		if o.Type != JoinInner {
			return nil, fmt.Errorf("vtjoin: sharded execution supports inner joins only (outer coverage cannot be decided per shard)")
		}
		rep, _, err := shard.Join(algo, r.internal(), s.internal(), sink, shard.Config{
			Ctx:           ctx,
			Shards:        o.Shards,
			MemoryPages:   o.MemoryPages,
			Weights:       cost.Ratio(o.RandomCost),
			Seed:          o.Seed,
			TimePredicate: mask,
			Kernel:        o.Kernel.internal(),
			Tracer:        tr,
		})
		return rep, err
	}

	spec := join.Spec{
		Ctx:           ctx,
		MemoryPages:   o.MemoryPages,
		Weights:       cost.Ratio(o.RandomCost),
		TimePredicate: mask,
		Kernel:        o.Kernel.internal(),
		Tracer:        tr,
	}
	pass := func(left, right *Relation, plan *schema.JoinPlan, matches, frags relation.Sink, seed int64) (*cost.Report, error) {
		spec.Rng, spec.Plan, spec.LeftFragments = rand.New(rand.NewSource(seed)), plan, frags
		return join.Run(algo, left.internal(), right.internal(), matches, spec)
	}
	switch o.Type {
	case JoinInner:
		return pass(r, s, nil, sink, nil, o.Seed)
	case JoinLeftOuter:
		return pass(r, s, nil, sink, sink, o.Seed)
	case JoinRightOuter:
		plan, err := planPublic(r, s)
		if err != nil {
			return nil, err
		}
		return pass(s, r, plan.Swap(), sink, sink, o.Seed)
	case JoinFullOuter:
		// Pass 1: inner matches plus left fragments. Pass 2 (inputs
		// swapped): matches discarded (already emitted), right
		// fragments kept.
		tr.Begin("pass1")
		rep1, err := pass(r, s, nil, sink, sink, o.Seed)
		tr.End()
		if err != nil {
			return nil, err
		}
		plan, err := planPublic(r, s)
		if err != nil {
			return nil, err
		}
		var discard relation.CountSink
		tr.Begin("pass2")
		rep2, err := pass(s, r, plan.Swap(), &discard, sink, o.Seed+1)
		tr.End()
		if err != nil {
			return nil, err
		}
		combined := &cost.Report{Algorithm: rep1.Algorithm}
		for _, ph := range rep1.Phases {
			ph.Name = "pass1 " + ph.Name
			combined.AddPhase(ph)
		}
		for _, ph := range rep2.Phases {
			ph.Name = "pass2 " + ph.Name
			combined.AddPhase(ph)
		}
		return combined, nil
	}
	return nil, fmt.Errorf("vtjoin: unknown join type %d", o.Type)
}
