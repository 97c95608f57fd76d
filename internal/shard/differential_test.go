package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/tuple"
)

// predicates is every supported time-predicate shape, mirroring the
// kernel matrix in the join package.
var predicates = map[string]join.Predicate{
	"intersects":   chronon.MaskIntersects,
	"contains":     chronon.MaskContains,
	"contained-in": chronon.MaskContainedIn,
	"equal":        chronon.MaskEqual,
	"overlap-only": chronon.MaskOf(chronon.RelOverlaps, chronon.RelOverlappedBy),
	"starts":       chronon.MaskOf(chronon.RelStarts, chronon.RelStartedBy),
	"finishes":     chronon.MaskOf(chronon.RelFinishes, chronon.RelFinishedBy),
	"during-only":  chronon.MaskOf(chronon.RelDuring, chronon.RelContains),
}

// TestDifferentialFullMatrix is the sharded-vs-reference property over
// the full surface: every algorithm × kernel × predicate mask, on a
// mixed workload and on the adversarial workload where every tuple
// spans every shard boundary (maximal replication).
func TestDifferentialFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	w := workload{keys: 10, n: 240, longEvery: 4, lifespan: 6000}
	mixedR := w.generate(rng, 1)
	mixedS := w.generate(rng, 2)
	spanR := spanning(rng, 6, 40, 1, 6000)
	spanS := spanning(rng, 6, 40, 2, 6000)

	inputs := []struct {
		name string
		r, s []tuple.Tuple
	}{
		{"mixed", mixedR, mixedS},
		{"all-spanning", spanR, spanS},
	}

	for _, in := range inputs {
		for _, algo := range join.Algorithms {
			for _, kernel := range []join.Kernel{join.KernelSweep, join.KernelScan} {
				for name, pred := range predicates {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", in.name, algo.Label(), kernel, name), func(t *testing.T) {
						want := oracle(t, pred, in.r, in.s)
						got, stats := runSharded(t, algo, in.r, in.s, Config{
							Shards: 3, MemoryPages: 24, Seed: 77,
							TimePredicate: pred, Kernel: kernel,
						})
						assertSameResult(t, "sharded", got, want)
						var results int64
						for _, ps := range stats.PerShard {
							results += ps.Results
						}
						if results != int64(len(want)) {
							t.Errorf("per-shard results sum to %d, oracle has %d", results, len(want))
						}
					})
				}
			}
		}
	}
}

// TestAdversarialReplicationCount pins the replication arithmetic for
// the worst case: with every tuple overlapping every shard, each shard
// owns the tuples ending in it and receives a replica of every tuple
// owned by a later shard — K-1 boundary copies per all-spanning tuple
// in total.
func TestAdversarialReplicationCount(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 60
	rTuples := spanning(rng, 5, n, 1, 4000)
	sTuples := spanning(rng, 5, n, 2, 4000)

	_, stats := runSharded(t, join.AlgorithmSortMerge, rTuples, sTuples, Config{
		Shards: 4, MemoryPages: 32, Seed: 21,
	})
	k := stats.Shards
	if k < 2 {
		t.Skipf("workload realized only %d shard(s)", k)
	}
	var replL, replR, ownL int64
	for _, ps := range stats.PerShard {
		replL += ps.ReplicatedLeft
		replR += ps.ReplicatedRight
		ownL += ps.OwnLeft
	}
	// All intervals are identical, so all tuples end in the last shard:
	// it owns everything, and every earlier shard gets a full replica.
	if want := int64((k - 1) * n); replL != want || replR != want {
		t.Errorf("all-spanning workload with k=%d, n=%d: %d/%d replicas, want %d per side",
			k, n, replL, replR, want)
	}
	if ownL != int64(n) {
		t.Errorf("ownership double-counted: %d owned left tuples, want %d", ownL, n)
	}
}

// TestDeterministicOrdering: the merged output sequence (not just the
// canonicalized set) is identical across repeated runs, across worker
// counts, and between sequential and concurrent execution.
func TestDeterministicOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	w := workload{keys: 9, n: 350, longEvery: 5, lifespan: 7000}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)

	for _, algo := range join.Algorithms {
		t.Run(algo.Label(), func(t *testing.T) {
			base := Config{Shards: 4, MemoryPages: 32, Seed: 55}
			ref, _ := runSharded(t, algo, rTuples, sTuples, base)

			variants := []struct {
				name string
				cfg  Config
			}{
				{"repeat", base},
				{"workers=1", Config{Shards: 4, MemoryPages: 32, Seed: 55, Workers: 1}},
				{"workers=4", Config{Shards: 4, MemoryPages: 32, Seed: 55, Workers: 4}},
				{"sequential", Config{Shards: 4, MemoryPages: 32, Seed: 55, Sequential: true}},
			}
			for _, v := range variants {
				got, _ := runSharded(t, algo, rTuples, sTuples, v.cfg)
				if len(got) != len(ref) {
					t.Fatalf("%s: %d tuples, reference run emitted %d", v.name, len(got), len(ref))
				}
				for i := range ref {
					if !got[i].Equal(ref[i]) {
						t.Fatalf("%s: output sequence diverges at %d:\n got %v\nwant %v",
							v.name, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestPerShardIOMatchesComposedReference is the honest I/O-counter
// differential: a global counter comparison against an unsharded run is
// meaningless (boundary replication adds input pages by design), so
// instead each shard's join-phase counter movement is compared with an
// independently composed reference — the same algorithm run unsharded
// over that shard's exact local inputs on a fresh device, writing the
// ownership-filtered results to a materialized relation just as the
// pipeline does. The sums over shards then pin total logical I/O.
func TestPerShardIOMatchesComposedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := workload{keys: 8, n: 400, longEvery: 5, lifespan: 9000}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)

	for _, algo := range join.Algorithms {
		for _, kernel := range []join.Kernel{join.KernelSweep, join.KernelScan} {
			t.Run(fmt.Sprintf("%s/%s", algo.Label(), kernel), func(t *testing.T) {
				cfg := Config{
					Shards: 3, MemoryPages: 30, Seed: 101,
					Kernel: kernel, Sequential: true,
				}
				_, stats := runSharded(t, algo, rTuples, sTuples, cfg)
				k := stats.Shards
				if k < 2 {
					t.Skipf("workload realized only %d shard(s)", k)
				}
				bounds, err := partition.FromCuts(stats.Boundaries)
				if err != nil {
					t.Fatal(err)
				}
				perShard := cfg.MemoryPages / cfg.Shards

				// Replay the ownership routing to reconstruct each
				// shard's local inputs in device order.
				rLoc := routeOracle(rTuples, bounds, k)
				sLoc := routeOracle(sTuples, bounds, k)

				for j := 0; j < k; j++ {
					d := disk.New(page.DefaultSize)
					r := load(t, d, empSchema, rLoc[j])
					s := load(t, d, deptSchema, sLoc[j])
					outSchema, err := outputSchema(r, s)
					if err != nil {
						t.Fatal(err)
					}
					res := relation.Create(d, outSchema)
					base := d.Counters()
					bs := &boundSink{next: res.NewBuilder(), bounds: bounds, shard: j}

					local := stats.LocalParts[j]
					_, err = join.Run(algo, r, s, bs, join.Spec{
						MemoryPages: perShard, Weights: cost.Ratio(5),
						Partitioning: &local, Sequential: true, Kernel: kernel,
					})
					if err != nil {
						t.Fatalf("composed reference, shard %d: %v", j, err)
					}
					got := stats.PerShard[j].IO
					want := d.Counters().Sub(base)
					if got != want {
						t.Errorf("shard %d join-phase I/O diverges from composed reference:\n got %+v\nwant %+v",
							j, got, want)
					}
					if bs.emitted != stats.PerShard[j].Results {
						t.Errorf("shard %d emitted %d results, composed reference %d",
							j, stats.PerShard[j].Results, bs.emitted)
					}
				}
			})
		}
	}
}

// TestIOInvariantAcrossWorkers: total per-shard join-phase counters are
// identical whether the pipelines run inline, on one worker, or fully
// concurrently — parallelism buys wall-clock only, never extra I/O.
func TestIOInvariantAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	w := workload{keys: 7, n: 300, longEvery: 6, lifespan: 6000}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)

	for _, algo := range join.Algorithms {
		t.Run(algo.Label(), func(t *testing.T) {
			perIO := func(cfg Config) []disk.Counters {
				_, stats := runSharded(t, algo, rTuples, sTuples, cfg)
				out := make([]disk.Counters, len(stats.PerShard))
				for j, ps := range stats.PerShard {
					out[j] = ps.IO
				}
				return out
			}
			ref := perIO(Config{Shards: 4, MemoryPages: 32, Seed: 19, Sequential: true})
			for _, workers := range []int{1, 2, 4} {
				got := perIO(Config{Shards: 4, MemoryPages: 32, Seed: 19, Workers: workers})
				if len(got) != len(ref) {
					t.Fatalf("workers=%d realized %d shards, sequential run %d", workers, len(got), len(ref))
				}
				for j := range ref {
					if got[j] != ref[j] {
						t.Errorf("workers=%d shard %d I/O %+v differs from sequential %+v",
							workers, j, got[j], ref[j])
					}
				}
			}
		})
	}
}

// routeOracle is an independent restatement of the ownership rule used
// by the tests to reconstruct shard-local inputs: owned by the shard
// holding the interval end, replicated into every earlier overlapped
// shard, in input order.
func routeOracle(ts []tuple.Tuple, bounds partition.Partitioning, k int) [][]tuple.Tuple {
	out := make([][]tuple.Tuple, k)
	for _, t := range ts {
		first, last := bounds.Range(t.V)
		for j := first; j <= last; j++ {
			out[j] = append(out[j], t)
		}
	}
	return out
}
