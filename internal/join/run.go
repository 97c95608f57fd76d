package join

import (
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/cost"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/trace"
)

// Algorithm selects one of the paper's three evaluation strategies.
// The zero value is the partition join.
type Algorithm uint8

// The algorithms Run dispatches to.
const (
	// AlgorithmPartition is the paper's partition join (Partition).
	AlgorithmPartition Algorithm = iota
	// AlgorithmSortMerge is sort-merge with backing up (SortMerge).
	AlgorithmSortMerge
	// AlgorithmNestedLoop is block nested loops (NestedLoop).
	AlgorithmNestedLoop
)

// Algorithms lists every algorithm; suites covering all of them range
// over it.
var Algorithms = []Algorithm{AlgorithmPartition, AlgorithmSortMerge, AlgorithmNestedLoop}

// algorithmNames holds each algorithm's query-language name (String)
// and its hyphenated label (Label).
var algorithmNames = [...][2]string{
	AlgorithmPartition:  {"partition", "partition"},
	AlgorithmSortMerge:  {"sortmerge", "sort-merge"},
	AlgorithmNestedLoop: {"nestedloop", "nested-loop"},
}

// String returns the query-language name ParseAlgorithm accepts.
func (a Algorithm) String() string { return a.name(0) }

// Label returns the hyphenated name sharded cost reports and the test
// suites print: partition, sort-merge or nested-loop.
func (a Algorithm) Label() string { return a.name(1) }

func (a Algorithm) name(i int) string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a][i]
	}
	return fmt.Sprintf("Algorithm(%d)", a)
}

// ParseAlgorithm parses partition, sortmerge or nestedloop.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("join: unknown algorithm %q", name)
}

// Spec configures one join evaluation. Every engine takes it and
// ignores the fields it has no use for, except that sort-merge rejects
// LeftFragments and Plan.
type Spec struct {
	// Ctx cancels the join cooperatively: every phase checks it at
	// page-granularity boundaries and aborts with an error wrapping
	// ctx.Err(), after removing the engine's temporary files. Nil means
	// never cancelled.
	Ctx context.Context
	// MemoryPages is the total buffer allocation M. The partition join
	// splits it per Figure 3: M-3 pages hold the outer partition and one
	// page each buffers the inner relation, the tuple cache and the
	// result. Sort-merge sorts both inputs with M pages and merges with
	// all but four of them as live windows, spilling the overflow (the
	// backing up of Section 4.3). Nested loop reads the outer relation
	// in blocks of M-2 pages.
	MemoryPages int
	// Weights is the random:sequential cost model the partition join
	// plans with. It changes which plan is chosen, not what is counted.
	Weights cost.Weights
	// Rng drives the partition join's sampling. The partition join
	// requires it unless Partitioning is set.
	Rng *rand.Rand
	// Partitioning, if non-nil, skips the partition join's planning and
	// uses the given partitioning directly (shard pipelines, incremental
	// evaluation and tests with adversarial partitionings).
	Partitioning *partition.Partitioning
	// TimePredicate restricts matches to pairs whose timestamps stand
	// in the given Allen relations (zero = intersecting intervals, the
	// natural join). It must imply intersection: partitioned and merged
	// evaluation rely on matching pairs co-existing in some partition or
	// window.
	TimePredicate Predicate
	// LeftFragments, when non-nil, turns the evaluation into the match
	// phase of a valid-time LEFT OUTER join: for every left (outer)
	// tuple, the maximal sub-intervals of its timestamp not covered by
	// any match are emitted to this sink as null-padded tuples. Coverage
	// is complete when the tuple leaves memory: the partition join keeps
	// it until every partition it overlaps has been joined, and nested
	// loop until its block has seen the whole inner relation.
	LeftFragments relation.Sink
	// Plan overrides the derived natural-join plan, to evaluate with
	// swapped inputs while keeping the original output layout (right
	// outer joins via schema.JoinPlan.Swap). Nil derives the plan from
	// the relation schemas.
	Plan *schema.JoinPlan
	// Sequential disables the engine's concurrency: the parallel Grace
	// passes, the page-prefetch pipelines and the sorts' run-formation
	// prefetch. Counters and results are byte-identical either way; the
	// knob stays for the determinism tests that assert it and for fault
	// plans whose count-based triggers depend on the global operation
	// order.
	Sequential bool
	// Kernel selects the in-memory matching kernel (default: sweep).
	// Results and I/O counters are identical across kernels; the scan
	// kernel stays as the reference the sweep kernel is tested and
	// benchmarked against.
	Kernel Kernel
	// Tracer, when non-nil, records per-phase spans (per partition, sort
	// pass or outer block) with their exact I/O deltas and the engines'
	// planner and kernel decisions; with trace.Options.Audit it also
	// runs the invariant audits. Tracing changes neither results nor
	// counters.
	Tracer *trace.Tracer
}

type PartitionConfig = Spec  // Deprecated: kept for bench/; delete once it calls Run.
type SortMergeConfig = Spec  // Deprecated: kept for bench/; delete once it calls Run.
type NestedLoopConfig = Spec // Deprecated: kept for bench/; delete once it calls Run.

// Run evaluates r ⋈V s with algo, streaming the results to sink. It is
// the one place that maps an algorithm onto its engine; callers that
// need an engine's own statistics call Partition or SortMerge.
func Run(algo Algorithm, r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error) {
	var rep *cost.Report
	var err error
	switch algo {
	case AlgorithmPartition:
		rep, _, err = Partition(r, s, sink, spec)
	case AlgorithmSortMerge:
		rep, _, err = SortMerge(r, s, sink, spec)
	case AlgorithmNestedLoop:
		rep, err = NestedLoop(r, s, sink, spec)
	default:
		err = fmt.Errorf("join: unknown algorithm %d", algo)
	}
	return rep, err
}

// specPlan returns spec.Plan, or derives the natural-join plan when it
// is nil; either way both inputs must share a device.
func specPlan(r, s *relation.Relation, spec Spec) (*schema.JoinPlan, error) {
	if spec.Plan == nil {
		return planFor(r, s)
	}
	if r.Disk() != s.Disk() {
		return nil, fmt.Errorf("join: input relations live on different devices")
	}
	return spec.Plan, nil
}
