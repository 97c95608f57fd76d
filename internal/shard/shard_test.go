package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

var (
	empSchema = schema.MustNew(
		schema.Column{Name: "emp", Kind: value.KindInt},
		schema.Column{Name: "salary", Kind: value.KindInt},
	)
	deptSchema = schema.MustNew(
		schema.Column{Name: "emp", Kind: value.KindInt},
		schema.Column{Name: "dept", Kind: value.KindInt},
	)
)

// workload produces paired tuple sets with controlled key selectivity
// and long-lived density (mirrors the join package's test workloads).
type workload struct {
	keys      int64
	n         int
	longEvery int // every k'th tuple is long-lived (0 = never)
	lifespan  int64
}

func (w workload) generate(rng *rand.Rand, side int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, w.n)
	for i := 0; i < w.n; i++ {
		var iv chronon.Interval
		if w.longEvery > 0 && i%w.longEvery == 0 {
			s := chronon.Chronon(rng.Int63n(w.lifespan/2 + 1))
			iv = chronon.New(s, s+chronon.Chronon(w.lifespan/2))
		} else {
			s := chronon.Chronon(rng.Int63n(w.lifespan))
			iv = chronon.New(s, s+chronon.Chronon(rng.Int63n(w.lifespan/20+1)))
		}
		key := rng.Int63n(w.keys)
		out = append(out, tuple.New(iv, value.Int(key), value.Int(int64(side*1000000+i))))
	}
	return out
}

// spanning generates tuples whose intervals all cover the full
// timeline, so every tuple overlaps every shard boundary — the
// adversarial worst case for the replication rule.
func spanning(rng *rand.Rand, keys int64, n, side int, lifespan int64) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		iv := chronon.New(0, chronon.Chronon(lifespan))
		key := rng.Int63n(keys)
		out = append(out, tuple.New(iv, value.Int(key), value.Int(int64(side*1000000+i))))
	}
	return out
}

func load(t testing.TB, d *disk.Disk, s *schema.Schema, ts []tuple.Tuple) *relation.Relation {
	t.Helper()
	r, err := relation.FromTuples(d, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func assertSameResult(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	join.Canonicalize(got)
	join.Canonicalize(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d result tuples, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: result %d differs:\n got %v\nwant %v", label, i, got[i], want[i])
		}
	}
}

// runSharded loads the inputs on a fresh device and runs one sharded
// execution, returning the merged result in emission order.
func runSharded(t *testing.T, algo join.Algorithm, rTuples, sTuples []tuple.Tuple, cfg Config) ([]tuple.Tuple, *Stats) {
	t.Helper()
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	var sink relation.CollectSink
	_, stats, err := Join(algo, r, s, &sink, cfg)
	if err != nil {
		t.Fatalf("sharded %s: %v", algo, err)
	}
	return sink.Tuples, stats
}

func oracle(t *testing.T, pred join.Predicate, rTuples, sTuples []tuple.Tuple) []tuple.Tuple {
	t.Helper()
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	if pred == 0 {
		return join.Reference(plan, rTuples, sTuples)
	}
	return join.ReferencePred(plan, pred, rTuples, sTuples)
}

// TestShardedMatchesReference checks every algorithm across shard
// counts against the reference oracle, and that the per-shard
// accounting adds up: owned inputs partition the input sets, and
// emitted results partition the output.
func TestShardedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	w := workload{keys: 12, n: 500, longEvery: 5, lifespan: 8000}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)
	want := oracle(t, 0, rTuples, sTuples)

	for _, algo := range join.Algorithms {
		for _, k := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", algo.Label(), k), func(t *testing.T) {
				got, stats := runSharded(t, algo, rTuples, sTuples, Config{
					Shards: k, MemoryPages: 8 * k, Seed: 42,
				})
				assertSameResult(t, fmt.Sprintf("%s k=%d", algo, k), got, want)

				if stats.Shards > k {
					t.Fatalf("effective shards %d exceeds requested %d", stats.Shards, k)
				}
				if len(stats.Boundaries) != stats.Shards-1 || len(stats.PerShard) != stats.Shards {
					t.Fatalf("inconsistent stats shape: %d shards, %d boundaries, %d per-shard entries",
						stats.Shards, len(stats.Boundaries), len(stats.PerShard))
				}
				var ownL, ownR, results int64
				for _, ps := range stats.PerShard {
					ownL += ps.OwnLeft
					ownR += ps.OwnRight
					results += ps.Results
				}
				if ownL != int64(len(rTuples)) || ownR != int64(len(sTuples)) {
					t.Errorf("ownership does not partition the inputs: %d/%d left, %d/%d right",
						ownL, len(rTuples), ownR, len(sTuples))
				}
				if results != int64(len(want)) {
					t.Errorf("per-shard results sum to %d, oracle has %d", results, len(want))
				}
			})
		}
	}
}

// TestShardPlanCoarsening pins the boundary rule: every shard boundary
// is a cut of the planned fine partitioning, and each shard's preset
// local partitioning is exactly the fine cuts falling inside it.
func TestShardPlanCoarsening(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := workload{keys: 6, n: 800, longEvery: 4, lifespan: 10000}
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, w.generate(rng, 1))

	cfg := Config{Shards: 4, MemoryPages: 32, Seed: 9}
	bounds, locals, err := planShards(r, cfg, cfg.MemoryPages/cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	k := bounds.N()
	if k < 2 {
		t.Fatalf("workload too small to exercise coarsening: %d effective shards", k)
	}
	if len(locals) != k {
		t.Fatalf("%d local partitionings for %d shards", len(locals), k)
	}

	// Re-derive the fine cuts the same way planShards did.
	fineBounds, _, err := planShards(r, Config{Shards: 1, MemoryPages: 32, Seed: 9}, cfg.MemoryPages/cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	_ = fineBounds
	fine := make(map[chronon.Chronon]bool)
	for _, loc := range locals {
		for _, c := range loc.Cuts() {
			fine[c] = true
		}
	}
	for _, b := range bounds.Cuts() {
		fine[b] = true
	}

	for j := 0; j < k; j++ {
		iv := bounds.Interval(j)
		for _, c := range locals[j].Cuts() {
			if c < iv.Start || c >= iv.End {
				t.Errorf("shard %d local cut %d outside its interval [%d, %d]", j, c, iv.Start, iv.End)
			}
		}
	}
	// Shard intervals tile the timeline in order.
	for j := 1; j < k; j++ {
		prev, cur := bounds.Interval(j-1), bounds.Interval(j)
		if prev.End+1 != cur.Start {
			t.Errorf("shard %d..%d not contiguous: [%d,%d] then [%d,%d]",
				j-1, j, prev.Start, prev.End, cur.Start, cur.End)
		}
	}
}

// TestEffectiveShardsCapped: a tiny input realizes fewer partitions
// than the requested shard count, and the executor degrades to the
// effective count without error.
func TestEffectiveShardsCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := workload{keys: 2, n: 6, longEvery: 0, lifespan: 100}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)
	want := oracle(t, 0, rTuples, sTuples)

	got, stats := runSharded(t, join.AlgorithmPartition, rTuples, sTuples, Config{
		Shards: 8, MemoryPages: 64, Seed: 3,
	})
	if stats.Shards > 8 {
		t.Fatalf("effective shards %d exceeds requested 8", stats.Shards)
	}
	assertSameResult(t, "tiny input", got, want)
}

// TestEmptyInputs: zero-tuple relations shard and join cleanly.
func TestEmptyInputs(t *testing.T) {
	for _, algo := range join.Algorithms {
		t.Run(algo.Label(), func(t *testing.T) {
			got, stats := runSharded(t, algo, nil, nil, Config{
				Shards: 4, MemoryPages: 32, Seed: 1,
			})
			if len(got) != 0 {
				t.Fatalf("empty join produced %d tuples", len(got))
			}
			if stats.Shards != 1 {
				t.Errorf("empty input should collapse to 1 effective shard, got %d", stats.Shards)
			}
		})
	}
}

// TestConfigValidation pins the error paths: unknown algorithm, inputs
// on different devices, non-positive shard counts, and a budget that
// leaves a pipeline under the 4-page floor.
func TestConfigValidation(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, nil)
	s := load(t, d, deptSchema, nil)
	var sink relation.CollectSink

	if _, _, err := Join(join.Algorithm(99), r, s, &sink, Config{Shards: 1, MemoryPages: 8}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := Join(join.AlgorithmPartition, r, s, &sink, Config{Shards: 0, MemoryPages: 8}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, _, err := Join(join.AlgorithmPartition, r, s, &sink, Config{Shards: 4, MemoryPages: 12}); err == nil {
		t.Error("3-pages-per-shard budget accepted; the floor is 4")
	} else if !strings.Contains(err.Error(), "4") {
		t.Errorf("budget error does not mention the floor: %v", err)
	}

	other := disk.New(page.DefaultSize)
	s2 := load(t, other, deptSchema, nil)
	if _, _, err := Join(join.AlgorithmPartition, r, s2, &sink, Config{Shards: 1, MemoryPages: 8}); err == nil {
		t.Error("inputs on different devices accepted")
	}
}

// TestShardDevicesReclaimed: after a successful run every shard device
// is empty again (locals and shard outputs dropped), and the global
// device still holds exactly the two inputs.
func TestShardDevicesReclaimed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := workload{keys: 8, n: 300, longEvery: 6, lifespan: 5000}
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, w.generate(rng, 1))
	s := load(t, d, deptSchema, w.generate(rng, 2))
	before := d.LiveFiles()

	var devs []*disk.Disk
	var sink relation.CollectSink
	_, _, err := Join(join.AlgorithmSortMerge, r, s, &sink, Config{
		Shards: 3, MemoryPages: 24, Seed: 8,
		NewDevice: func(int) *disk.Disk {
			nd := disk.New(page.DefaultSize)
			devs = append(devs, nd)
			return nd
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, sd := range devs {
		if live := sd.LiveFiles(); len(live) != 0 {
			t.Errorf("shard device %d leaked %d files: %v", j, len(live), live)
		}
	}
	if after := d.LiveFiles(); len(after) != len(before) {
		t.Errorf("global device: %d files before, %d after", len(before), len(after))
	}
}
