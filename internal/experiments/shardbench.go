package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/join"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/shard"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// ChecksumSink folds every appended tuple into an order-insensitive
// checksum: per-tuple FNV-1a over the encoded bytes, summed mod 2^64.
// Two runs emitting the same multiset of tuples — in any order — agree;
// a single flipped byte, dropped tuple or duplicate diverges. It lets
// the sharded figure assert result identity against the unsharded
// reference without materializing either output.
type ChecksumSink struct {
	Sum   uint64
	Count int64
	buf   []byte
}

// Append folds one tuple into the checksum.
func (c *ChecksumSink) Append(t tuple.Tuple) error {
	var err error
	if c.buf, err = t.Append(c.buf[:0]); err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(c.buf)
	c.Sum += h.Sum64()
	c.Count++
	return nil
}

// Flush implements relation.Sink.
func (c *ChecksumSink) Flush() error { return nil }

// ShardRow is one point of the multi-core scaling figure. Shards == 0
// is the unsharded reference the speedups are measured against.
type ShardRow struct {
	Shards          int // requested K (0 = unsharded reference)
	EffectiveShards int
	Workers         int
	Wall, CPU       time.Duration
	IOPages         int64 // total page accesses across all devices
	Results         int64
	Checksum        uint64
	Speedup         float64 // unsharded wall / this wall
}

// ShardCounts is the K sweep of the scaling figure.
var ShardCounts = []int{1, 2, 4, 8}

// The scaling figure needs real result volume (the stock figure spec
// gives every tuple a unique key, isolating I/O but producing an empty
// join), so it builds its own keyed pair: a shared 64-value key column,
// per-side id columns so the natural join matches on the key, and the
// usual mix of chronon-length and long-lived intervals.
var (
	shardLeftSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "rid", Kind: value.KindInt},
		schema.Column{Name: "pad", Kind: value.KindBytes},
	)
	shardRightSchema = schema.MustNew(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "sid", Kind: value.KindInt},
		schema.Column{Name: "pad", Kind: value.KindBytes},
	)
)

const shardFigureKeys = 64

func genShardSide(p Params, longLived int, seed, side int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	pad := make([]byte, 96)
	out := make([]tuple.Tuple, 0, p.TuplesPerRelation)
	acc := 0
	for i := 0; i < p.TuplesPerRelation; i++ {
		long := false
		if longLived > 0 {
			acc += longLived
			if acc >= p.TuplesPerRelation {
				acc -= p.TuplesPerRelation
				long = true
			}
		}
		var iv chronon.Interval
		if long {
			st := chronon.Chronon(rng.Int63n(p.Lifespan / 2))
			iv = chronon.New(st, st+chronon.Chronon(p.Lifespan/2))
		} else {
			st := chronon.Chronon(rng.Int63n(p.Lifespan))
			iv = chronon.At(st)
		}
		key := rng.Int63n(shardFigureKeys)
		out = append(out, tuple.New(iv,
			value.Int(key), value.Int(side<<32+int64(i)), value.Bytes(pad)))
	}
	return out
}

// buildShardPair loads the figure's keyed input pair onto one device.
func buildShardPair(p Params, longLived int) (*relation.Relation, *relation.Relation, error) {
	d := p.NewDevice()
	r, err := relation.FromTuples(d, shardLeftSchema, genShardSide(p, longLived, p.Seed+1, 1))
	if err != nil {
		return nil, nil, err
	}
	s, err := relation.FromTuples(d, shardRightSchema, genShardSide(p, longLived, p.Seed+2, 2))
	if err != nil {
		return nil, nil, err
	}
	return r, s, nil
}

// RunFigureShards measures the time-sharded executor's multi-core
// scaling: the partition join unsharded, then sharded at K = 1, 2, 4, 8
// (capped at maxShards when positive), each shard pipeline on its own
// private device with MemoryPages/K buffer pages. Result checksums are
// asserted identical across every row — the figure refuses to report a
// speedup bought with a wrong answer.
func RunFigureShards(p Params, maxShards int) ([]ShardRow, error) {
	memoryPages := p.MemoryPages(4)
	longLived := p.ScaleCount(16384)
	r, s, err := buildShardPair(p, longLived)
	if err != nil {
		return nil, err
	}

	pageTotal := func(rep *cost.Report) int64 {
		var n int64
		for _, ph := range rep.Phases {
			c := ph.Counters
			n += c.RandReads + c.SeqReads + c.RandWrites + c.SeqWrites
		}
		return n
	}

	// Unsharded reference: the same algorithm, same budget, one device.
	var rows []ShardRow
	var refSink ChecksumSink
	wallStart, cpuStart := time.Now(), cost.ProcessCPUTime()
	refRep, err := join.Run(join.AlgorithmPartition, r, s, &refSink, join.Spec{
		Ctx:         p.Ctx,
		MemoryPages: memoryPages,
		Weights:     cost.Ratio(5),
		Rng:         rand.New(rand.NewSource(p.Seed + 7)),
	})
	if err != nil {
		return nil, fmt.Errorf("unsharded reference: %w", err)
	}
	ref := ShardRow{
		Shards: 0, EffectiveShards: 1, Workers: 1,
		Wall: time.Since(wallStart), CPU: cost.ProcessCPUTime() - cpuStart,
		IOPages: pageTotal(refRep), Results: refSink.Count,
		Checksum: refSink.Sum, Speedup: 1,
	}
	rows = append(rows, ref)

	for _, k := range ShardCounts {
		if maxShards > 0 && k > maxShards {
			continue
		}
		if memoryPages/k < 4 {
			// The budget cannot be carved this thin at this scale; report
			// the rows that fit rather than failing the figure.
			continue
		}
		var sink ChecksumSink
		wallStart, cpuStart := time.Now(), cost.ProcessCPUTime()
		rep, stats, err := shard.Join(join.AlgorithmPartition, r, s, &sink, shard.Config{
			Ctx: p.Ctx, Shards: k, MemoryPages: memoryPages, Seed: p.Seed + 7,
		})
		if err != nil {
			return nil, fmt.Errorf("sharded k=%d: %w", k, err)
		}
		row := ShardRow{
			Shards: k, EffectiveShards: stats.Shards, Workers: effectiveWorkers(k),
			Wall: time.Since(wallStart), CPU: cost.ProcessCPUTime() - cpuStart,
			IOPages: pageTotal(rep), Results: sink.Count,
			Checksum: sink.Sum,
		}
		if row.Wall > 0 {
			row.Speedup = float64(ref.Wall) / float64(row.Wall)
		}
		if row.Checksum != ref.Checksum || row.Results != ref.Results {
			return nil, fmt.Errorf(
				"sharded k=%d diverged from the unsharded reference: %d results (checksum %016x) vs %d (%016x)",
				k, row.Results, row.Checksum, ref.Results, ref.Checksum)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// effectiveWorkers is how many pipelines shard.Join actually runs
// concurrently for a K-shard execution with the default worker setting.
func effectiveWorkers(k int) int {
	h := Host()
	if k < h.GOMAXPROCS {
		return k
	}
	return h.GOMAXPROCS
}

// RenderFigureShards formats the scaling figure. Wall and CPU columns
// are real timings (nondeterministic); the checksum column is the
// determinism anchor — identical on every row by construction.
func RenderFigureShards(rows []ShardRow) string {
	var b strings.Builder
	h := Host()
	fmt.Fprintf(&b, "Time-sharded partition join: multi-core scaling\n")
	fmt.Fprintf(&b, "host: %s/%s, %d cores, GOMAXPROCS %d", h.OS, h.Arch, h.Cores, h.GOMAXPROCS)
	if h.SingleCoreHost {
		fmt.Fprintf(&b, "  [single_core_host: no parallel speedup possible]")
	}
	fmt.Fprintf(&b, "\n\n")
	fmt.Fprintf(&b, "%-10s %5s %8s %12s %12s %12s %10s %18s %8s\n",
		"config", "K", "workers", "wall", "cpu", "io pages", "results", "checksum", "speedup")
	for _, row := range rows {
		name := "unsharded"
		if row.Shards > 0 {
			name = "sharded"
		}
		fmt.Fprintf(&b, "%-10s %5d %8d %12s %12s %12d %10d %18s %7.2fx\n",
			name, row.Shards, row.Workers,
			row.Wall.Round(time.Microsecond), row.CPU.Round(time.Microsecond),
			row.IOPages, row.Results, fmt.Sprintf("%016x", row.Checksum), row.Speedup)
	}
	return b.String()
}
