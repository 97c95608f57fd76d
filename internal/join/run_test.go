package join

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
)

// TestRunMatchesEngines pins Run to the engine each algorithm names:
// for every algorithm × kernel, Run and a direct call of that engine
// with the same Spec emit the same result multiset, move the device's
// counters identically and report the same algorithm and phases.
func TestRunMatchesEngines(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(31)
	engines := map[Algorithm]func(r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error){
		AlgorithmPartition: func(r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error) {
			rep, _, err := Partition(r, s, sink, spec)
			return rep, err
		},
		AlgorithmSortMerge: func(r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error) {
			rep, _, err := SortMerge(r, s, sink, spec)
			return rep, err
		},
		AlgorithmNestedLoop: NestedLoop,
	}
	for _, algo := range Algorithms {
		for _, kernel := range []Kernel{KernelSweep, KernelScan} {
			t.Run(fmt.Sprintf("%s/%s", algo.Label(), kernel), func(t *testing.T) {
				exec := func(run func(r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error)) (relation.CollectSink, disk.Counters, *cost.Report) {
					d := disk.New(page.DefaultSize)
					r := load(t, d, empSchema, rTuples)
					s := load(t, d, deptSchema, sTuples)
					before := d.Counters()
					var sink relation.CollectSink
					rep, err := run(r, s, &sink, Spec{
						MemoryPages: 10,
						Weights:     cost.Ratio(5),
						Rng:         rand.New(rand.NewSource(5)),
						Kernel:      kernel,
					})
					if err != nil {
						t.Fatal(err)
					}
					return sink, d.Counters().Sub(before), rep
				}
				got, gotIO, gotRep := exec(func(r, s *relation.Relation, sink relation.Sink, spec Spec) (*cost.Report, error) {
					return Run(algo, r, s, sink, spec)
				})
				want, wantIO, wantRep := exec(engines[algo])
				if len(want.Tuples) == 0 {
					t.Fatal("empty result exercises nothing")
				}
				assertSameResult(t, "Run", got.Tuples, want.Tuples)
				if gotIO != wantIO {
					t.Errorf("Run moved %+v, the engine %+v", gotIO, wantIO)
				}
				if gotRep.Algorithm != wantRep.Algorithm || len(gotRep.Phases) != len(wantRep.Phases) {
					t.Fatalf("Run reported %s, the engine %s", gotRep, wantRep)
				}
				for i := range wantRep.Phases {
					if g, w := gotRep.Phases[i], wantRep.Phases[i]; g.Name != w.Name || g.Counters != w.Counters {
						t.Errorf("phase %d: Run %s %+v, engine %s %+v", i, g.Name, g.Counters, w.Name, w.Counters)
					}
				}
			})
		}
	}
}

// TestRunRejects pins Run's error paths, none of which may touch the
// device: sort-merge asked for an outer join's fragments or a swapped
// plan, and an algorithm outside Algorithms.
func TestRunRejects(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(32)
	d := disk.New(page.DefaultSize)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	plan, err := schema.PlanNaturalJoin(deptSchema, empSchema)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	var sink, frags relation.CollectSink
	for _, c := range []struct {
		name string
		algo Algorithm
		spec Spec
		want string
	}{
		{"sort-merge fragments", AlgorithmSortMerge, Spec{MemoryPages: 8, LeftFragments: &frags}, "not supported by sort-merge"},
		{"sort-merge plan", AlgorithmSortMerge, Spec{MemoryPages: 8, Plan: plan.Swap()}, "not supported by sort-merge"},
		{"unknown algorithm", Algorithm(len(Algorithms)), Spec{MemoryPages: 8}, "unknown algorithm 3"},
	} {
		if _, err := Run(c.algo, r, s, &sink, c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if moved := d.Counters().Sub(before); moved != (disk.Counters{}) {
		t.Errorf("rejected runs moved %+v", moved)
	}
}

// TestAlgorithmNames: String and ParseAlgorithm round-trip over the
// query-language names; labels and unknown names do not parse.
func TestAlgorithmNames(t *testing.T) {
	for _, a := range Algorithms {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	for _, name := range []string{"", "sort-merge", "quantum"} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", name)
		}
	}
	if got := Algorithm(9).String(); got != "Algorithm(9)" {
		t.Errorf("Algorithm(9).String() = %q", got)
	}
}
