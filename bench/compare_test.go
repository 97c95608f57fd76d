package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestCompareRuns(t *testing.T) {
	lower := boundDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		def  boundDef
		base []float64
		head []float64
		want string
	}{
		{"same", lower, base, []float64{100, 100, 101, 99, 100, 101, 99, 100, 100, 100}, "within bound"},
		{"faster", lower, base, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "gain"},
		{"faster, too few pairs", lower, base[:3], []float64{80, 81, 79}, "within bound"},
		{"slower within bound", lower, base, []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, "within bound"},
		{"slower beyond bound", lower, base, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regression"},
		{"fewer ops", higher, base, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regression"},
		{"more ops", higher, base, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "gain"},
		{"noisy base", lower, []float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, []float64{115, 115, 115, 115, 115, 115, 115, 115, 115, 115}, "unresolved"},
	} {
		v := compareRuns("w", tc.def, tc.base, tc.head)
		if v.Outcome != tc.want {
			t.Errorf("%s: outcome %q (wins %d:%d, spread %.3f), want %q", tc.name, v.Outcome, v.HeadWins, v.BaseWins, v.Spread, tc.want)
		}
	}
	// Ties count for neither side.
	v := compareRuns("w", lower, []float64{1, 2, 3}, []float64{1, 1, 4})
	if v.HeadWins != 1 || v.BaseWins != 1 {
		t.Errorf("wins %d:%d, want 1:1", v.HeadWins, v.BaseWins)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat []float64) string {
		var b bytes.Buffer
		for _, l := range lat {
			line, err := json.Marshal(runResult{Workload: "join-overlap", Metrics: map[string]float64{"latency_p50_ms": l}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100, 100})
	head := write("head.jsonl", []float64{130, 131, 129, 130, 130})
	var out, errs bytes.Buffer
	if code := compareFiles("../BENCHMARK.json", base, head, &out, &errs); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "join-overlap: 1 regression") {
		t.Fatalf("no per-workload regression row in:\n%s", out.String())
	}
}
