package experiments

import (
	"strings"
	"testing"
)

// testParams runs the figures at a small scale so the shape checks
// stay fast; ratios between memory, relation and long-lived counts are
// preserved by construction.
func testParams(t *testing.T) Params {
	t.Helper()
	p, err := Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func costOf(rows []Row, algo string, mb int, ratio float64, longLived int) float64 {
	for _, r := range rows {
		if r.Algorithm == algo && r.MemoryMB == mb && r.Ratio == ratio && r.LongLived == longLived {
			return r.Cost
		}
	}
	return -1
}

func TestScaledValidation(t *testing.T) {
	if _, err := Scaled(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := Scaled(100000); err == nil {
		t.Fatal("absurd scale accepted")
	}
	p, err := Scaled(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TuplesPerRelation != 262144 {
		t.Fatalf("full scale tuples = %d", p.TuplesPerRelation)
	}
	// 8 MiB at full scale = 2048 4-KiB pages.
	if got := p.MemoryPages(8); got != 2048 {
		t.Fatalf("8MB = %d pages", got)
	}
	p64, _ := Scaled(64)
	if got := p64.MemoryPages(8); got != 32 {
		t.Fatalf("8MB at scale 64 = %d pages", got)
	}
	if got := p64.ScaleCount(128000); got != 2000 {
		t.Fatalf("ScaleCount = %d", got)
	}
}

func TestParameterTable(t *testing.T) {
	p := FullScale()
	rows := p.ParameterTable()
	if len(rows) < 6 {
		t.Fatalf("only %d parameter rows", len(rows))
	}
	text := RenderParameterTable(rows)
	for _, want := range []string{"4096", "128 bytes", "262144", "32 megabytes", "2:1, 5:1, 10:1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("parameter table missing %q:\n%s", want, text)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	// Figure 6 sweeps memory down to 1 MiB; at scale 64 that compresses
	// to 4 pages, where per-partition seek overhead is a scale
	// artifact. Scale 16 keeps 1 MiB at 16 pages, preserving the
	// paper's memory:relation ratios faithfully enough for the shape.
	p, err := Scaled(16)
	if err != nil {
		t.Fatal(err)
	}
	rows := memoized(t, "6", p, RunFigure6)
	if len(rows) != len(Figure6MemoryMB)*len(Figure6Ratios)*3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, ratio := range Figure6Ratios {
		// Partition join beats sort-merge at every memory size
		// (Section 4.2: "the partition join is approximately twice as
		// fast as sort-merge at all memory sizes").
		for _, mb := range Figure6MemoryMB {
			pj := costOf(rows, AlgoPartition, mb, ratio, 0)
			sm := costOf(rows, AlgoSortMerge, mb, ratio, 0)
			nl := costOf(rows, AlgoNestedLoop, mb, ratio, 0)
			if pj <= 0 || sm <= 0 || nl <= 0 {
				t.Fatalf("missing cost at %dMB %g:1", mb, ratio)
			}
			if pj >= sm {
				t.Errorf("%g:1 %dMB: partition (%.0f) not cheaper than sort-merge (%.0f)",
					ratio, mb, pj, sm)
			}
		}
		// Nested loops is far worse at 1 MiB than at 32 MiB, and is the
		// worst algorithm at small memory.
		nlSmall := costOf(rows, AlgoNestedLoop, 1, ratio, 0)
		nlBig := costOf(rows, AlgoNestedLoop, 32, ratio, 0)
		if nlSmall < 4*nlBig {
			t.Errorf("%g:1: nested loops at 1MB (%.0f) not >> 32MB (%.0f)", ratio, nlSmall, nlBig)
		}
		if sm := costOf(rows, AlgoSortMerge, 1, ratio, 0); nlSmall < sm {
			t.Errorf("%g:1: nested loops at 1MB (%.0f) should exceed sort-merge (%.0f)", ratio, nlSmall, sm)
		}
		// Partition join improves (weakly) with memory.
		if a, b := costOf(rows, AlgoPartition, 1, ratio, 0), costOf(rows, AlgoPartition, 32, ratio, 0); a < b {
			t.Errorf("%g:1: partition join worsened with memory: 1MB %.0f < 32MB %.0f", ratio, a, b)
		}
	}
	if text := RenderFigure6(rows); !strings.Contains(text, "5:1") {
		t.Fatal("render missing ratio header")
	}
}

func TestFigure7Shape(t *testing.T) {
	rows := memoized(t, "7", testParams(t), RunFigure7)
	lls := Figure7LongLived()
	first, last := lls[0], lls[len(lls)-1]

	// Partition join outperforms sort-merge at every density
	// (Section 4.3: "the partition-join algorithm outperformed the
	// sort-merge algorithm at all long-lived tuple densities").
	for _, ll := range lls {
		pj := costOf(rows, AlgoPartition, Figure7MemoryMB, Figure7Ratio, ll)
		sm := costOf(rows, AlgoSortMerge, Figure7MemoryMB, Figure7Ratio, ll)
		if pj <= 0 || sm <= 0 {
			t.Fatalf("missing cost at %d long-lived", ll)
		}
		if pj >= sm {
			t.Errorf("%d long-lived: partition (%.0f) not cheaper than sort-merge (%.0f)", ll, pj, sm)
		}
	}
	// Sort-merge cost grows with density; nested loops is flat.
	smFirst := costOf(rows, AlgoSortMerge, Figure7MemoryMB, Figure7Ratio, first)
	smLast := costOf(rows, AlgoSortMerge, Figure7MemoryMB, Figure7Ratio, last)
	if smLast <= smFirst {
		t.Errorf("sort-merge did not grow with long-lived density: %.0f -> %.0f", smFirst, smLast)
	}
	nlFirst := costOf(rows, AlgoNestedLoop, Figure7MemoryMB, Figure7Ratio, first)
	nlLast := costOf(rows, AlgoNestedLoop, Figure7MemoryMB, Figure7Ratio, last)
	if nlFirst != nlLast {
		t.Errorf("nested loops should be unaffected by long-lived tuples: %.0f vs %.0f", nlFirst, nlLast)
	}
	// Partition join grows far more slowly than sort-merge.
	pjFirst := costOf(rows, AlgoPartition, Figure7MemoryMB, Figure7Ratio, first)
	pjLast := costOf(rows, AlgoPartition, Figure7MemoryMB, Figure7Ratio, last)
	if (pjLast - pjFirst) >= (smLast - smFirst) {
		t.Errorf("partition join grew (%.0f) at least as much as sort-merge (%.0f)",
			pjLast-pjFirst, smLast-smFirst)
	}
	if text := RenderFigure7(rows); !strings.Contains(text, "long-lived") {
		t.Fatal("render broken")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows := memoized(t, "8", testParams(t), RunFigure8)
	lls := Figure8LongLived()
	spreadAt := func(mb int) float64 {
		lo, hi := 1e18, 0.0
		for _, ll := range lls {
			c := costOf(rows, AlgoPartition, mb, 5, ll)
			if c <= 0 {
				t.Fatalf("missing cost at %d long-lived %dMB", ll, mb)
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return (hi - lo) / lo
	}
	// Section 4.4: at large memory the curves converge; at small memory
	// they fan out. Compare relative spread at 1 MiB vs 32 MiB.
	small, big := spreadAt(1), spreadAt(32)
	if small <= big {
		t.Errorf("cost spread at 1MB (%.3f) should exceed spread at 32MB (%.3f)", small, big)
	}
	// Cost decreases (weakly) with memory for every density.
	for _, ll := range lls {
		if a, b := costOf(rows, AlgoPartition, 1, 5, ll), costOf(rows, AlgoPartition, 32, 5, ll); a < b {
			t.Errorf("%d long-lived: cost grew with memory (%.0f -> %.0f)", ll, a, b)
		}
	}
	if text := RenderFigure8(rows); !strings.Contains(text, "Tuple Caching") {
		t.Fatal("render broken")
	}
}

func TestFigure4Shape(t *testing.T) {
	// At scale 64 even the smallest candidate's sample costs more than
	// one scan, so Csample is flat and its monotonicity holds
	// trivially. At scale 16 the Kolmogorov demand crosses the scan
	// cost inside the candidate range, so Csample rises.
	p, err := Scaled(16)
	if err != nil {
		t.Fatal(err)
	}
	points := memoized(t, "4", p, RunFigure4)
	if len(points) < 3 {
		t.Fatalf("only %d candidate points", len(points))
	}
	chosen := 0
	var chosenTotal float64
	for _, pt := range points {
		if pt.Chosen {
			chosen++
			chosenTotal = pt.Total
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen points", chosen)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Csample < points[i-1].Csample-1e-9 {
			t.Fatal("Csample not monotonically non-decreasing in partSize")
		}
		if points[i].CachePaging > points[i-1].CachePaging+1e-9 {
			t.Fatal("cache paging not monotonically non-increasing in partSize")
		}
	}
	if first, last := points[0].Csample, points[len(points)-1].Csample; last <= first {
		t.Fatalf("Csample does not rise over the candidates: %.0f at partSize %d, %.0f at partSize %d",
			first, points[0].PartSize, last, points[len(points)-1].PartSize)
	}
	for _, pt := range points {
		if pt.Total < chosenTotal-1e-9 {
			t.Fatalf("chosen total %.0f is not minimal (partSize %d has %.0f)",
				chosenTotal, pt.PartSize, pt.Total)
		}
	}
	if text := RenderFigure4(points); !strings.Contains(text, "<- chosen") {
		t.Fatal("render missing chosen marker")
	}
}

func TestAblationReplicationShape(t *testing.T) {
	rows := memoized(t, "A", testParams(t), RunAblationReplication)
	if len(rows) != len(Figure8LongLived()) {
		t.Fatalf("%d rows", len(rows))
	}
	prevBlowup := 0.0
	for i, r := range rows {
		if r.ReplicatedPages < r.LastOverlapPages {
			t.Fatalf("replication used less storage at %d long-lived", r.LongLived)
		}
		blowup := float64(r.ReplicatedPages) / float64(r.LastOverlapPages)
		if i > 0 && blowup < prevBlowup-0.05 {
			t.Fatalf("blowup not (weakly) increasing with density: %.2f after %.2f", blowup, prevBlowup)
		}
		prevBlowup = blowup
	}
	last := rows[len(rows)-1]
	if float64(last.ReplicatedPages) < 1.5*float64(last.LastOverlapPages) {
		t.Fatalf("densest point should show a clear blowup: %d vs %d",
			last.ReplicatedPages, last.LastOverlapPages)
	}
}

func TestAblationSamplingShape(t *testing.T) {
	rows := memoized(t, "B", testParams(t), RunAblationSampling)
	if len(rows) != len(Figure6Ratios) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ScanOptimized >= r.RandomOnly {
			t.Fatalf("at %g:1 the scan optimization did not pay: %g vs %g",
				r.Ratio, r.ScanOptimized, r.RandomOnly)
		}
	}
	if s := RenderAblations(nil, rows); s == "" {
		t.Fatal("render empty")
	}
}
