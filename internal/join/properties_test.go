package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// genTuples derives a small tuple set deterministically from a seed.
func genTuples(seed int64, n int, keys int64, lifespan int64, side int) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	w := workload{keys: keys, n: n, longEvery: 3, lifespan: lifespan}
	return w.generate(rng, side)
}

// timeslice returns the snapshot of ts at chronon c: the non-timestamp
// attributes of every tuple valid at c.
func timeslice(ts []tuple.Tuple, c chronon.Chronon) [][]value.Value {
	var out [][]value.Value
	for _, t := range ts {
		if t.V.Contains(c) {
			out = append(out, t.Values)
		}
	}
	return out
}

// snapshotJoin is the conventional (snapshot) natural join of two
// snapshots under plan p.
func snapshotJoin(p *schema.JoinPlan, r, s [][]value.Value) [][]value.Value {
	var out [][]value.Value
	for _, x := range r {
	next:
		for _, y := range s {
			for i := range p.LeftJoinIdx {
				if !x[p.LeftJoinIdx[i]].Equal(y[p.RightJoinIdx[i]]) {
					continue next
				}
			}
			z := make([]value.Value, p.Output.Len())
			for i, pos := range p.LeftOut {
				z[pos] = x[i]
			}
			for i, pos := range p.RightOut {
				if pos >= 0 {
					z[pos] = y[i]
				}
			}
			out = append(out, z)
		}
	}
	return out
}

func canonValues(vs [][]value.Value) []string {
	out := make([]string, len(vs))
	for i, row := range vs {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	// insertion sort: rows are few
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestSnapshotReducibility: the valid-time natural join is snapshot-
// reducible — timeslicing the join at any chronon equals the snapshot
// natural join of the timeslices (the property that makes ⋈V the
// correct operator for reconstructing normalized valid-time databases,
// Section 1 / [JSS92a]).
func TestSnapshotReducibility(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, slice uint8) bool {
		r := genTuples(seed, 25, 4, 100, 1)
		s := genTuples(seed+1, 25, 4, 100, 2)
		joined := Reference(plan, r, s)
		c := chronon.Chronon(slice) // slice point within the lifespan
		got := canonValues(timeslice(joined, c))
		want := canonValues(snapshotJoin(plan, timeslice(r, c), timeslice(s, c)))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinCommutativity: r ⋈V s and s ⋈V r contain the same
// information (identical timestamps; attribute columns permuted per the
// two output schemas).
func TestJoinCommutativity(t *testing.T) {
	planRS, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	planSR, err := schema.PlanNaturalJoin(deptSchema, empSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Column mapping from planRS output to planSR output by name.
	remap := make([]int, planRS.Output.Len())
	for i := 0; i < planRS.Output.Len(); i++ {
		remap[i] = planSR.Output.Index(planRS.Output.Column(i).Name)
		if remap[i] < 0 {
			t.Fatal("output schemas disagree on columns")
		}
	}
	f := func(seed int64) bool {
		r := genTuples(seed, 30, 3, 120, 1)
		s := genTuples(seed+7, 30, 3, 120, 2)
		ab := Reference(planRS, r, s)
		ba := Reference(planSR, s, r)
		if len(ab) != len(ba) {
			return false
		}
		// Remap ab into planSR's column order and compare canonically.
		mapped := make([]tuple.Tuple, len(ab))
		for i, z := range ab {
			vals := make([]value.Value, len(z.Values))
			for j, v := range z.Values {
				vals[remap[j]] = v
			}
			mapped[i] = tuple.Tuple{Values: vals, V: z.V}
		}
		Canonicalize(mapped)
		Canonicalize(ba)
		for i := range mapped {
			if !mapped[i].Equal(ba[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResultTimestampMaximality: every result timestamp is exactly the
// maximal overlap of some qualifying input pair — non-null, contained
// in both inputs, and not extendable.
func TestResultTimestampMaximality(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := genTuples(seed, 20, 2, 80, 1)
		s := genTuples(seed+13, 20, 2, 80, 2)
		for _, z := range Reference(plan, r, s) {
			if z.V.IsNull() {
				return false
			}
			// Find a witnessing pair (identified by the B/C columns,
			// which carry unique ids).
			found := false
			for _, x := range r {
				if !x.Values[1].Equal(z.Values[1]) {
					continue
				}
				for _, y := range s {
					if !y.Values[1].Equal(z.Values[2]) {
						continue
					}
					if !chronon.Overlap(x.V, y.V).Equal(z.V) {
						return false // not the maximal overlap
					}
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskAlgorithmsAgreeProperty drives the full disk-based stack
// with quick-generated workloads: nested-loop, sort-merge and partition
// join must produce identical results for any input.
func TestDiskAlgorithmsAgreeProperty(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, memRaw uint8) bool {
		mem := 4 + int(memRaw%12)
		rT := genTuples(seed, 80, 5, 300, 1)
		sT := genTuples(seed+31, 80, 5, 300, 2)
		want := Reference(plan, rT, sT)
		Canonicalize(want)

		d := disk.New(page.DefaultSize)
		r := load(t, d, empSchema, rT)
		s := load(t, d, deptSchema, sT)

		check := func(got []tuple.Tuple) bool {
			Canonicalize(got)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					return false
				}
			}
			return true
		}

		for _, algo := range Algorithms {
			var got relation.CollectSink
			if _, err := Run(algo, r, s, &got, Spec{
				MemoryPages: mem, Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(seed)),
			}); err != nil || !check(got.Tuples) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
