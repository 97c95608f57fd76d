package partition

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

const goldenLifespan = 100000

// goldenShapes generate the i-th timestamp of a seeded relation.
var goldenShapes = map[string]func(rng *rand.Rand, i int) chronon.Interval{
	// One-chronon tuples, uniform over the lifespan (Figure 6).
	"uniform": func(rng *rand.Rand, i int) chronon.Interval {
		return chronon.At(chronon.Chronon(rng.Int63n(goldenLifespan)))
	},
	// Every fourth tuple lives for half the lifespan (Figure 7).
	"longlived": func(rng *rand.Rand, i int) chronon.Interval {
		if i%4 == 0 {
			s := chronon.Chronon(rng.Int63n(goldenLifespan / 2))
			return chronon.New(s, s+goldenLifespan/2)
		}
		return chronon.At(chronon.Chronon(rng.Int63n(goldenLifespan)))
	},
	// One tuple in eight is ongoing, one in eight long-lived.
	"ongoing": func(rng *rand.Rand, i int) chronon.Interval {
		s := chronon.Chronon(rng.Int63n(goldenLifespan))
		switch i % 8 {
		case 0:
			return chronon.NewOngoing(s)
		case 1:
			return chronon.New(s/2, s/2+goldenLifespan/3)
		}
		return chronon.At(s)
	},
	// Nine tuples in ten start in the first tenth of the lifespan.
	"clustered": func(rng *rand.Rand, i int) chronon.Interval {
		span := int64(goldenLifespan)
		if i%10 != 0 {
			span /= 10
		}
		s := chronon.Chronon(rng.Int63n(span))
		return chronon.New(s, s+chronon.Chronon(rng.Int63n(50)))
	},
}

type goldenCase struct {
	shape  string
	tuples int
	cfg    PlanConfig // Rng is seeded per case
}

// goldenCases cover the scan strategy (most cases), random draws
// (DisableScanOptimization, and a grid coarse enough that random
// sampling stays cheaper than a scan), ongoing tuples, a shard floor,
// explicit candidate steps, and buffers of 128 pages or more, where the
// automatic grid step exceeds 1.
var goldenCases = []goldenCase{
	{"uniform", 3000, PlanConfig{BuffSize: 8, Weights: cost.Ratio(5)}},
	{"longlived", 3000, PlanConfig{BuffSize: 8, Weights: cost.Ratio(5)}},
	{"ongoing", 3000, PlanConfig{BuffSize: 8, Weights: cost.Ratio(5)}},
	{"clustered", 3000, PlanConfig{BuffSize: 8, Weights: cost.Ratio(5)}},
	{"uniform", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5)}},
	{"longlived", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5)}},
	{"ongoing", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(2)}},
	{"clustered", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(10)}},
	{"uniform", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(5)}},
	{"longlived", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(5)}},
	{"ongoing", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(5)}},
	{"clustered", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(2)}},
	{"uniform", 6000, PlanConfig{BuffSize: 130, Weights: cost.Ratio(5)}},
	{"longlived", 6000, PlanConfig{BuffSize: 130, Weights: cost.Ratio(5)}},
	{"ongoing", 6000, PlanConfig{BuffSize: 200, Weights: cost.Ratio(10)}},
	{"longlived", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5), DisableScanOptimization: true}},
	{"ongoing", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5), DisableScanOptimization: true}},
	{"uniform", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(2), DisableScanOptimization: true}},
	{"longlived", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5), Shards: 4}},
	{"clustered", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(5), Shards: 4}},
	{"ongoing", 6000, PlanConfig{BuffSize: 130, Weights: cost.Ratio(5), Shards: 4}},
	{"uniform", 6000, PlanConfig{BuffSize: 100, Weights: cost.Ratio(2), CandidateStep: 60}},
	{"longlived", 3000, PlanConfig{BuffSize: 29, Weights: cost.Ratio(2), CandidateStep: 1}},
	{"clustered", 3000, PlanConfig{BuffSize: 61, Weights: cost.Ratio(10), CandidateStep: 7}},
}

// TestPlanGoldens pins every Plan and Candidate field the planner
// returns for seeded relations. A change that is meant to alter plans
// shows up as a reviewed diff of testdata/plans.golden (regenerate it
// with -update); any other change must leave the file as it is.
func TestPlanGoldens(t *testing.T) {
	var b strings.Builder
	for i, c := range goldenCases {
		d := disk.New(page.DefaultSize)
		gen := goldenShapes[c.shape]
		rng := rand.New(rand.NewSource(int64(100 + i)))
		r := relation.Create(d, testSchema)
		rb := r.NewBuilder()
		for j := 0; j < c.tuples; j++ {
			if err := rb.Append(tuple.New(gen(rng, j), value.Int(int64(j)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := rb.Flush(); err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Rng = rand.New(rand.NewSource(int64(i)))
		plan, cands, err := DeterminePartIntervals(r, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fmt.Fprintf(&b, "case %d: %s tuples=%d pages=%d buffSize=%d weights=%s:%s step=%d shards=%d randomOnly=%t\n",
			i, c.shape, c.tuples, mustPages(t, r), cfg.BuffSize, ff(cfg.Weights.Rand), ff(cfg.Weights.Seq),
			cfg.CandidateStep, cfg.Shards, cfg.DisableScanOptimization)
		fmt.Fprintf(&b, "  plan partSize=%d errorSize=%d numPartitions=%d samplesDrawn=%d csample=%s cjoin=%s\n",
			plan.PartSize, plan.ErrorSize, plan.NumPartitions, plan.SamplesDrawn, ff(plan.Csample), ff(plan.Cjoin))
		fmt.Fprintf(&b, "  cuts %v\n", plan.Partitioning.Cuts())
		b.WriteString("  cachePages")
		for _, x := range plan.CachePages {
			b.WriteString(" " + ff(x))
		}
		b.WriteString("\n")
		for _, cand := range cands {
			fmt.Fprintf(&b, "  candidate partSize=%d csample=%s cjoin=%s cachePaging=%s\n",
				cand.PartSize, ff(cand.Csample), ff(cand.Cjoin), ff(cand.CachePaging))
		}
	}
	testutil.Golden(t, "testdata/plans.golden", b.String(), *update)
}

func ff(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
