package join

import (
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

func TestSortMergeNoBackupWithoutLongLived(t *testing.T) {
	// One-chronon tuples (the Figure 6 workload): the merge window never
	// exceeds the cache, so no inner page is ever re-read.
	rng := rand.New(rand.NewSource(300))
	var r, s []tuple.Tuple
	for i := 0; i < 2000; i++ {
		r = append(r, tuple.New(chronon.At(chronon.Chronon(rng.Intn(100000))), value.Int(rng.Int63n(50)), value.Int(int64(i))))
		s = append(s, tuple.New(chronon.At(chronon.Chronon(rng.Intn(100000))), value.Int(rng.Int63n(50)), value.Int(int64(i))))
	}
	d := disk.New(page.DefaultSize)
	rr := load(t, d, empSchema, r)
	ss := load(t, d, deptSchema, s)
	var sink relation.CountSink
	_, stats, err := SortMerge(rr, ss, &sink, Spec{MemoryPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InnerPageRereads != 0 {
		t.Fatalf("%d re-reads without long-lived tuples", stats.InnerPageRereads)
	}
	if want := int64(mustPages(t, rr) + mustPages(t, ss)); stats.InnerPageReads != want {
		t.Fatalf("merge read %d input pages, relations have %d", stats.InnerPageReads, want)
	}
	if stats.SpillPagesPeak != 0 {
		t.Fatalf("spill of %d pages without long-lived tuples", stats.SpillPagesPeak)
	}
}

func TestSortMergeBacksUpOverLongLived(t *testing.T) {
	// Long-lived tuples pin the merge's back point; with a window cache
	// smaller than the live span, inner pages must be re-read.
	rng := rand.New(rand.NewSource(301))
	const lifespan = 100000
	var r, s []tuple.Tuple
	for i := 0; i < 3000; i++ {
		mk := func(side int) tuple.Tuple {
			if i%4 == 0 {
				st := chronon.Chronon(rng.Int63n(lifespan / 2))
				return tuple.New(chronon.New(st, st+lifespan/2), value.Int(rng.Int63n(50)), value.Int(int64(side*100000+i)))
			}
			st := chronon.Chronon(rng.Int63n(lifespan))
			return tuple.New(chronon.At(st), value.Int(rng.Int63n(50)), value.Int(int64(side*100000+i)))
		}
		r = append(r, mk(1))
		s = append(s, mk(2))
	}
	d := disk.New(page.DefaultSize)
	rr := load(t, d, empSchema, r)
	ss := load(t, d, deptSchema, s)
	var sink relation.CountSink
	_, stats, err := SortMerge(rr, ss, &sink, Spec{MemoryPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InnerPageRereads == 0 {
		t.Fatal("expected backing up with 25% long-lived tuples and a tiny window")
	}
}

func TestSortMergeBackupGrowsWithLongLivedDensity(t *testing.T) {
	// Figure 7's driving mechanism: more long-lived tuples, more
	// backing up.
	costAt := func(longEvery int) int64 {
		rng := rand.New(rand.NewSource(302))
		w := workload{keys: 50, n: 2500, longEvery: longEvery, lifespan: 80000}
		d := disk.New(page.DefaultSize)
		rr := load(t, d, empSchema, w.generate(rng, 1))
		ss := load(t, d, deptSchema, w.generate(rng, 2))
		var sink relation.CountSink
		_, stats, err := SortMerge(rr, ss, &sink, Spec{MemoryPages: 10})
		if err != nil {
			t.Fatal(err)
		}
		return stats.InnerPageRereads
	}
	sparse := costAt(20) // 5% long-lived
	dense := costAt(3)   // 33% long-lived
	if dense <= sparse {
		t.Fatalf("re-reads did not grow with density: sparse=%d dense=%d", sparse, dense)
	}
}

func TestSortMergeMoreMemoryNoBackup(t *testing.T) {
	// With a window covering the whole inner relation, even long-lived
	// tuples cause no re-reads.
	rng := rand.New(rand.NewSource(303))
	w := workload{keys: 20, n: 800, longEvery: 3, lifespan: 10000}
	d := disk.New(page.DefaultSize)
	rr := load(t, d, empSchema, w.generate(rng, 1))
	ss := load(t, d, deptSchema, w.generate(rng, 2))
	var sink relation.CountSink
	_, stats, err := SortMerge(rr, ss, &sink, Spec{MemoryPages: mustPages(t, ss) + 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InnerPageRereads != 0 {
		t.Fatalf("%d re-reads with an all-covering window", stats.InnerPageRereads)
	}
}

func TestSortMergePhases(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	w := workload{keys: 20, n: 500, longEvery: 0, lifespan: 10000}
	d := disk.New(page.DefaultSize)
	rr := load(t, d, empSchema, w.generate(rng, 1))
	ss := load(t, d, deptSchema, w.generate(rng, 2))
	var sink relation.CountSink
	rep, _, err := SortMerge(rr, ss, &sink, Spec{MemoryPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases: %v", rep.Phases)
	}
	names := []string{"sort outer", "sort inner", "merge"}
	for i, want := range names {
		if rep.Phases[i].Name != want {
			t.Fatalf("phase %d = %q, want %q", i, rep.Phases[i].Name, want)
		}
		if rep.Phases[i].Counters.Total() == 0 {
			t.Fatalf("phase %q did no I/O", want)
		}
	}
}
