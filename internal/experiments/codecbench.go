package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// The codec figure compares page format v1 (classic slotted pages)
// against v2 (delta-encoded intervals plus per-page value dictionaries)
// on three workloads chosen to span the codec's design space:
//
//   - high-overlap keyed: 64 shared key values, a heavy long-lived
//     population, and identical padding — the paper's hard case, and
//     the one the per-page dictionary is built for (each page stores
//     the repeated key and pad payloads once);
//   - time-join: the stock figure tuple mix with no shared attributes
//     (a pure time join), where only the shared padding and the delta
//     intervals compress;
//   - sparse: unique keys and per-tuple random padding, so the
//     dictionary can never pay and v2 must fall back to plain value
//     encoding — the regression guard.
//
// Every workload runs the same join under both formats and asserts the
// result checksums identical: a compression win bought with a wrong
// answer fails the figure.

// CodecPhase is one join phase of a codec run: simulated I/O (pages and
// bytes) next to real wall-clock and CPU time.
type CodecPhase struct {
	Name      string
	IOPages   int64
	IOBytes   int64
	Wall, CPU time.Duration
}

// CodecRow is one (workload, format) cell of the codec figure.
type CodecRow struct {
	Workload      string
	Format        page.Format
	InputTuples   int64 // tuples across both input relations
	InputPages    int   // pages across both input relations
	TuplesPerPage float64
	JoinIOPages   int64 // total page accesses during the join
	JoinIOBytes   int64 // total bytes moved during the join
	Results       int64
	Checksum      uint64
	Wall, CPU     time.Duration
	Phases        []CodecPhase
}

// CodecSummary aggregates one workload's v1/v2 pair.
type CodecSummary struct {
	Workload string
	// TuplesPerPageRatio is v2 occupancy over v1 occupancy (>1 means
	// v2 packs more tuples into each page).
	TuplesPerPageRatio float64
	// CompressionRatio is v1 input pages over v2 input pages.
	CompressionRatio float64
	// PageReduction is the fractional drop in input pages under v2
	// (0.35 = 35% fewer pages; negative would be a regression).
	PageReduction float64
}

// codecWorkloads are the figure's workload generators. Each returns the
// two input sides; the same tuples are loaded under both formats.
func codecWorkloads(p Params) []struct {
	Name string
	Gen  func() ([]tuple.Tuple, []tuple.Tuple)
} {
	return []struct {
		Name string
		Gen  func() ([]tuple.Tuple, []tuple.Tuple)
	}{
		{
			// The shard figure's keyed pair is exactly the high-overlap
			// regime: 64 shared keys, identical padding, long-lived mix.
			Name: "high-overlap keyed",
			Gen: func() ([]tuple.Tuple, []tuple.Tuple) {
				longLived := p.TuplesPerRelation / 4
				return genShardSide(p, longLived, p.Seed+1, 1),
					genShardSide(p, longLived, p.Seed+2, 2)
			},
		},
		{
			// The stock figure tuple mix: unique keys, shared zero
			// padding, the usual long-lived population. The sides carry
			// disjoint attribute names, so the natural join degenerates
			// to a pure time join.
			Name: "time-join",
			Gen: func() ([]tuple.Tuple, []tuple.Tuple) {
				longLived := p.ScaleCount(16384)
				l, err := p.Spec(longLived, p.Seed+1).Generate()
				if err != nil {
					panic(err) // Spec is validated by construction above
				}
				r, err := p.Spec(longLived, p.Seed+2).Generate()
				if err != nil {
					panic(err)
				}
				return l, r
			},
		},
		{
			Name: "sparse",
			Gen: func() ([]tuple.Tuple, []tuple.Tuple) {
				return genSparseSide(p, p.Seed+1, 1), genSparseSide(p, p.Seed+2, 2)
			},
		},
	}
}

// The time-join and sparse workloads use disjoint per-side attribute
// names: with no shared columns the natural join is a pure time join,
// which is what those workloads are meant to measure.
var (
	codecLeftSchema = schema.MustNew(
		schema.Column{Name: "lkey", Kind: value.KindInt},
		schema.Column{Name: "lid", Kind: value.KindInt},
		schema.Column{Name: "lpad", Kind: value.KindBytes},
	)
	codecRightSchema = schema.MustNew(
		schema.Column{Name: "rkey", Kind: value.KindInt},
		schema.Column{Name: "rid", Kind: value.KindInt},
		schema.Column{Name: "rpad", Kind: value.KindBytes},
	)
)

// genSparseSide generates the incompressible side: unique keys, short
// intervals scattered over the lifespan, and — unlike every other
// workload — fresh random padding per tuple, so no byte sequence ever
// repeats within a page and the v2 dictionary cannot pay.
func genSparseSide(p Params, seed, side int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	maxLen := p.Lifespan / 512
	if maxLen < 1 {
		maxLen = 1
	}
	out := make([]tuple.Tuple, 0, p.TuplesPerRelation)
	for i := 0; i < p.TuplesPerRelation; i++ {
		st := chronon.Chronon(rng.Int63n(p.Lifespan))
		iv := chronon.New(st, st+chronon.Chronon(rng.Int63n(maxLen)))
		pad := make([]byte, 96)
		rng.Read(pad)
		out = append(out, tuple.New(iv,
			value.Int(side<<32+int64(i)), value.Int(side<<40+int64(i)), value.Bytes(pad)))
	}
	return out
}

// RunFigureCodec measures both page formats on every codec workload:
// storage occupancy of the inputs, then a full partition join with
// per-phase I/O, bytes moved, and CPU. Result checksums are asserted
// identical across formats, and the sparse workload's v2 page count is
// asserted no worse than v1 (the dictionary fallback guard).
func RunFigureCodec(p Params) ([]CodecRow, []CodecSummary, error) {
	memoryPages := p.MemoryPages(4)
	var rows []CodecRow
	var sums []CodecSummary
	for _, w := range codecWorkloads(p) {
		left, right := w.Gen()
		var pair [2]CodecRow
		for i, format := range []page.Format{page.FormatV1, page.FormatV2} {
			row, err := runCodecCell(p, w.Name, format, left, right, memoryPages)
			if err != nil {
				return nil, nil, fmt.Errorf("codec %s/%s: %w", w.Name, format, err)
			}
			pair[i] = row
			rows = append(rows, row)
		}
		v1, v2 := pair[0], pair[1]
		if v1.Checksum != v2.Checksum || v1.Results != v2.Results {
			return nil, nil, fmt.Errorf(
				"codec %s: v2 diverged from v1: %d results (checksum %016x) vs %d (%016x)",
				w.Name, v2.Results, v2.Checksum, v1.Results, v1.Checksum)
		}
		if w.Name == "sparse" && v2.InputPages > v1.InputPages {
			return nil, nil, fmt.Errorf(
				"codec sparse: v2 stores %d input pages vs v1's %d — the dictionary fallback regressed",
				v2.InputPages, v1.InputPages)
		}
		sum := CodecSummary{Workload: w.Name}
		if v1.TuplesPerPage > 0 {
			sum.TuplesPerPageRatio = v2.TuplesPerPage / v1.TuplesPerPage
		}
		if v2.InputPages > 0 {
			sum.CompressionRatio = float64(v1.InputPages) / float64(v2.InputPages)
		}
		if v1.InputPages > 0 {
			sum.PageReduction = 1 - float64(v2.InputPages)/float64(v1.InputPages)
		}
		sums = append(sums, sum)
	}
	return rows, sums, nil
}

// runCodecCell loads the workload under one format and joins it.
func runCodecCell(p Params, name string, format page.Format, left, right []tuple.Tuple, memoryPages int) (CodecRow, error) {
	pf := p
	pf.PageFormat = format
	d := pf.NewDevice()
	lSchema, rSchema := shardLeftSchema, shardRightSchema
	if name != "high-overlap keyed" {
		lSchema, rSchema = codecLeftSchema, codecRightSchema
	}
	r, err := relation.FromTuples(d, lSchema, left)
	if err != nil {
		return CodecRow{}, err
	}
	s, err := relation.FromTuples(d, rSchema, right)
	if err != nil {
		return CodecRow{}, err
	}
	rPages, err := r.Pages()
	if err != nil {
		return CodecRow{}, err
	}
	sPages, err := s.Pages()
	if err != nil {
		return CodecRow{}, err
	}
	row := CodecRow{
		Workload:    name,
		Format:      format,
		InputTuples: r.Tuples() + s.Tuples(),
		InputPages:  rPages + sPages,
	}
	if row.InputPages > 0 {
		row.TuplesPerPage = float64(row.InputTuples) / float64(row.InputPages)
	}
	d.ResetCounters()
	var sink ChecksumSink
	wallStart, cpuStart := time.Now(), cost.ProcessCPUTime()
	rep, err := join.Run(join.AlgorithmPartition, r, s, &sink, join.Spec{
		Ctx:         p.Ctx,
		MemoryPages: memoryPages,
		Weights:     cost.Ratio(5),
		Rng:         rand.New(rand.NewSource(p.Seed + 7)),
	})
	if err != nil {
		return CodecRow{}, err
	}
	row.Wall, row.CPU = time.Since(wallStart), cost.ProcessCPUTime()-cpuStart
	row.Results, row.Checksum = sink.Count, sink.Sum
	for _, ph := range rep.Phases {
		row.Phases = append(row.Phases, CodecPhase{
			Name:    ph.Name,
			IOPages: ph.Counters.Total(),
			IOBytes: ph.Counters.BytesMoved,
			Wall:    ph.Wall,
			CPU:     ph.CPU,
		})
		row.JoinIOPages += ph.Counters.Total()
		row.JoinIOBytes += ph.Counters.BytesMoved
	}
	return row, nil
}

// RenderFigureCodec formats the codec comparison. The wall/CPU columns
// are real timings (nondeterministic); page counts, checksums and the
// derived ratios are deterministic.
func RenderFigureCodec(rows []CodecRow, sums []CodecSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Page codec comparison: v1 (slotted) vs v2 (delta intervals + per-page dictionary)\n\n")
	fmt.Fprintf(&b, "%-20s %-4s %10s %10s %10s %12s %14s %10s %18s\n",
		"workload", "fmt", "tuples", "pages", "tup/page", "join pages", "join bytes", "results", "checksum")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-4s %10d %10d %10.1f %12d %14d %10d   %016x\n",
			r.Workload, r.Format, r.InputTuples, r.InputPages, r.TuplesPerPage,
			r.JoinIOPages, r.JoinIOBytes, r.Results, r.Checksum)
	}
	fmt.Fprintf(&b, "\n%-20s %14s %14s %14s\n", "workload", "tup/page ratio", "compression", "page cut")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-20s %13.2fx %13.2fx %13.1f%%\n",
			s.Workload, s.TuplesPerPageRatio, s.CompressionRatio, 100*s.PageReduction)
	}
	fmt.Fprintf(&b, "\nresult checksums verified identical across formats on every workload\n")
	return b.String()
}
