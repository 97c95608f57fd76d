package shard

import (
	"math/rand"

	"vtjoin/internal/chronon"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
)

// planShards chooses the shard boundaries and each shard's local preset
// partitioning with one sampling pass over r: the partition planner
// runs once (floored at Shards partitions so boundaries exist to pick),
// and the shard cuts are a coarsening of the fine cuts — every shard
// boundary coincides with a partition boundary, so the fine cuts
// falling inside a shard partition that shard's local data exactly as
// the global plan would have.
func planShards(r *relation.Relation, cfg Config, perShard int) (partition.Partitioning, []partition.Partitioning, error) {
	buffSize := perShard - 3
	if buffSize < 1 {
		buffSize = 1
	}
	plan, _, err := partition.DeterminePartIntervals(r, partition.PlanConfig{
		Ctx:      cfg.Ctx,
		BuffSize: buffSize,
		Weights:  cfg.Weights,
		Rng:      rand.New(rand.NewSource(cfg.Seed)),
		Tracer:   cfg.Tracer,
		Shards:   cfg.Shards,
	})
	if err != nil {
		return partition.Partitioning{}, nil, err
	}

	fine := plan.Partitioning.Cuts()
	n := len(fine) + 1
	k := cfg.Shards
	if k > n {
		// Sparse samples (or an empty input) realized fewer partitions
		// than requested shards; excess shards would own empty slices.
		k = n
	}
	// Boundary g is the fine cut closing partition ceil(g*n/k)-1: an
	// even coarsening, strictly increasing because k <= n.
	cuts := make([]chronon.Chronon, 0, k-1)
	for g := 1; g < k; g++ {
		cuts = append(cuts, fine[g*n/k-1])
	}
	bounds, err := partition.FromCuts(cuts)
	if err != nil {
		return partition.Partitioning{}, nil, err
	}

	locals := make([]partition.Partitioning, k)
	for j := 0; j < k; j++ {
		iv := bounds.Interval(j)
		var inner []chronon.Chronon
		for _, c := range fine {
			if c >= iv.Start && c < iv.End {
				inner = append(inner, c)
			}
		}
		if locals[j], err = partition.FromCuts(inner); err != nil {
			return partition.Partitioning{}, nil, err
		}
	}
	return bounds, locals, nil
}
