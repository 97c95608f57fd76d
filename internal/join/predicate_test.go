package join

import (
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
)

func TestPredicateValidation(t *testing.T) {
	d := disk.New(page.DefaultSize)
	r := relation.Create(d, empSchema)
	s := relation.Create(d, deptSchema)
	var sink relation.CountSink
	bad := chronon.MaskOf(chronon.RelBefore)
	for _, algo := range Algorithms {
		if _, err := Run(algo, r, s, &sink, Spec{
			MemoryPages: 5, Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(1)), TimePredicate: bad,
		}); err == nil {
			t.Fatalf("%s accepted a non-intersecting predicate", algo.Label())
		}
	}
}

func TestAllAlgorithmsAgreeUnderPredicates(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	preds := map[string]Predicate{
		"contains":     chronon.MaskContains,
		"contained-in": chronon.MaskContainedIn,
		"equal":        chronon.MaskEqual,
		"overlap-only": chronon.MaskOf(chronon.RelOverlaps, chronon.RelOverlappedBy),
	}
	rng := rand.New(rand.NewSource(600))
	w := workload{keys: 6, n: 400, longEvery: 4, lifespan: 800}
	rT := w.generate(rng, 1)
	sT := w.generate(rng, 2)

	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want := ReferencePred(plan, pred, rT, sT)
			d := disk.New(page.DefaultSize)
			r := load(t, d, empSchema, rT)
			s := load(t, d, deptSchema, sT)

			for _, algo := range Algorithms {
				var got relation.CollectSink
				if _, err := Run(algo, r, s, &got, Spec{
					MemoryPages: 6, Weights: cost.Ratio(5),
					Rng: rand.New(rand.NewSource(9)), TimePredicate: pred,
				}); err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, algo.Label()+"/"+name, got.Tuples, want)
			}
		})
	}
}

func TestPredicateResultsAreSubsetsOfNaturalJoin(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(601))
	w := workload{keys: 4, n: 200, longEvery: 3, lifespan: 500}
	rT := w.generate(rng, 1)
	sT := w.generate(rng, 2)
	all := Reference(plan, rT, sT)
	index := map[string]bool{}
	for _, z := range all {
		index[fmt.Sprint(z)] = true
	}
	for _, pred := range []Predicate{chronon.MaskContains, chronon.MaskContainedIn, chronon.MaskEqual} {
		sub := ReferencePred(plan, pred, rT, sT)
		if len(sub) >= len(all) {
			t.Fatalf("predicate %v did not restrict the result (%d vs %d)", pred, len(sub), len(all))
		}
		for _, z := range sub {
			if !index[fmt.Sprint(z)] {
				t.Fatalf("predicate %v produced tuple outside the natural join: %v", pred, z)
			}
		}
	}
}

func TestEqualIntervalPredicateSemantics(t *testing.T) {
	plan, err := schema.PlanNaturalJoin(empSchema, deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(602))
	w := workload{keys: 2, n: 150, longEvery: 2, lifespan: 60}
	rT := w.generate(rng, 1)
	sT := w.generate(rng, 2)
	for _, z := range ReferencePred(plan, chronon.MaskEqual, rT, sT) {
		// An equal-interval join's result timestamp is the shared
		// interval itself; verify it appears verbatim in both inputs.
		foundL, foundR := false, false
		for _, x := range rT {
			if x.V.Equal(z.V) {
				foundL = true
			}
		}
		for _, y := range sT {
			if y.V.Equal(z.V) {
				foundR = true
			}
		}
		if !foundL || !foundR {
			t.Fatalf("equal-interval result %v has no witnesses", z)
		}
	}
}
