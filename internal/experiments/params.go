// Package experiments regenerates every figure of the paper's
// evaluation (Section 4): the Figure 4 partition-size trade-off, the
// Figure 5 global parameter table, Figure 6's memory sweep, Figure 7's
// long-lived-tuple sweep, and Figure 8's memory-versus-caching matrix.
//
// Runs are deterministic given a seed, measured in weighted I/O
// operations exactly as the paper measures them, and scalable: Scale
// divides tuple counts and memory sizes together, preserving every
// ratio the experiments depend on while keeping runs laptop-fast. Use
// Scale=1 for the paper's full 32 MiB relations.
package experiments

import (
	"context"
	"fmt"

	"vtjoin/internal/workload"
)

// Params are the global experiment parameters (the paper's Figure 5).
// The source scan of the paper leaves some cells illegible; the values
// here are reconstructed from the prose: "Each database contained 32
// megabytes (262144 tuples)" fixes 128-byte tuples, and the evaluated
// random:sequential cost ratios are 2:1, 5:1 and 10:1. Page size is
// taken as 4 KiB, which makes the reported cost magnitudes line up
// with whole-relation scan counts.
type Params struct {
	// Ctx cancels a figure run cooperatively: it is threaded into every
	// join and partitioning pass, checked between data points and at
	// page-granularity inside them. Nil means never cancelled.
	Ctx               context.Context
	PageSize          int   // bytes per disk page
	RecordBytes       int   // encoded tuple size
	TuplesPerRelation int   // |r| = |s|
	Lifespan          int64 // relation lifespan in chronons
	Scale             int   // divisor applied to full-scale counts
	Seed              int64 // base RNG seed
	// Workers bounds how many figure data points evaluate concurrently
	// (0 or 1 = sequential). Every data point is self-contained — its
	// own simulated device, relations and seeds — so the emitted rows
	// are identical for every Workers setting; only wall-clock time
	// changes. The determinism tests assert the equality.
	Workers int
	// Audit runs every join under a tracing invariant audit (counter
	// attribution, partition coverage, buffer balance, cache-paging
	// symmetry); a violation fails the figure. Tracing changes neither
	// results nor counters, so the emitted figures are identical with
	// Audit on or off — it only converts silent accounting bugs into
	// errors.
	Audit bool
}

// FullScale are the paper's parameters at Scale 1.
func FullScale() Params {
	return Params{
		PageSize:          4096,
		RecordBytes:       128,
		TuplesPerRelation: 262144,
		Lifespan:          1_000_000,
		Scale:             1,
		Seed:              1994,
	}
}

// Scaled returns the parameters divided by scale (tuple counts and
// memory sizes shrink together; page and record sizes are physical
// constants and stay fixed).
func Scaled(scale int) (Params, error) {
	if scale < 1 {
		return Params{}, fmt.Errorf("experiments: scale must be >= 1, got %d", scale)
	}
	if scale > 4096 {
		return Params{}, fmt.Errorf("experiments: scale %d leaves no data", scale)
	}
	p := FullScale()
	p.TuplesPerRelation /= scale
	p.Scale = scale
	return p, nil
}

// MemoryPages converts a paper-scale memory size in MiB to a page
// budget at this scale.
func (p Params) MemoryPages(megabytes int) int {
	pages := megabytes * 1024 * 1024 / p.PageSize / p.Scale
	if pages < 4 {
		pages = 4 // floor: the algorithms need four pages to run at all
	}
	return pages
}

// ScaleCount converts a paper-scale tuple count (e.g. a long-lived
// tuple count from Figures 7/8) to this scale.
func (p Params) ScaleCount(fullScale int) int { return fullScale / p.Scale }

// Spec builds the workload.Spec for one relation of this experiment.
func (p Params) Spec(longLived int, seed int64) workload.Spec {
	return workload.Spec{
		Tuples:      p.TuplesPerRelation,
		LongLived:   longLived,
		Lifespan:    p.Lifespan,
		Keys:        0, // unique keys: isolate temporal I/O behaviour
		RecordBytes: p.RecordBytes,
		Seed:        seed,
	}
}

// ParameterRow is one row of the Figure 5 parameter table.
type ParameterRow struct {
	Name  string
	Value string
}

// ParameterTable renders Figure 5's global parameter values for this
// configuration.
func (p Params) ParameterTable() []ParameterRow {
	mb := p.TuplesPerRelation * p.RecordBytes / (1024 * 1024)
	return []ParameterRow{
		{"page size", fmt.Sprintf("%d bytes", p.PageSize)},
		{"tuple size", fmt.Sprintf("%d bytes", p.RecordBytes)},
		{"relation cardinality", fmt.Sprintf("%d tuples", p.TuplesPerRelation)},
		{"relation size", fmt.Sprintf("%d megabytes", mb)},
		{"relation lifespan", fmt.Sprintf("%d chronons", p.Lifespan)},
		{"random:sequential cost ratios", "2:1, 5:1, 10:1"},
		{"scale divisor", fmt.Sprintf("%d", p.Scale)},
	}
}
