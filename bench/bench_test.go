package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"
)

// tinyRun runs a workload at test size: tiny inputs, one episode.
func tinyRun(t *testing.T, workload string, traced, corrupt bool) *runResult {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: time.Nanosecond, trace: traced, tiny: true, corrupt: corrupt}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := run(cfg, tr)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestWorkloadsRunAndVerify(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w.name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, res.Metrics[d.name])
					}
				}
			}
		}
	}
}

// TestBenchmarkFileNamesEveryMetric pins BENCHMARK.json to the metrics
// and workloads the program emits, with the same units.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []boundDef, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestCountersRepeat runs each workload twice on one seed: its counters
// must come out identical. serve-mix is left out of the I/O check,
// because requests on its two connections interleave their page
// accesses and so their sequential/random classification.
func TestCountersRepeat(t *testing.T) {
	counters := []string{"partition.samples_drawn", "partition.candidates", "partition.plan_io", "partition.grace_io",
		"join.results_per_op", "join.partition.join_io", "join.sortmerge.merge_io", "extsort.sort_io",
		"shard.sharded_pages", "incremental.delta_rows", "serve.append_io"}
	for _, w := range []string{"join-overlap", "join-longlived", "subs-append"} {
		a, b := tinyRun(t, w, false, false), tinyRun(t, w, false, false)
		if a.Metrics["weighted_io_per_op"] != b.Metrics["weighted_io_per_op"] || a.Attempted != b.Attempted {
			t.Errorf("%s: weighted_io_per_op %v then %v over %d then %d ops", w,
				a.Metrics["weighted_io_per_op"], b.Metrics["weighted_io_per_op"], a.Attempted, b.Attempted)
		}
		ta, tb := tinyRun(t, w, true, false), tinyRun(t, w, true, false)
		for _, c := range counters {
			if ta.Metrics[c] != tb.Metrics[c] {
				t.Errorf("%s: %s %v then %v", w, c, ta.Metrics[c], tb.Metrics[c])
			}
		}
	}
}

// TestCorruptionFailsTheRun alters one result row of a join, one served
// response row and one delta row of a subscription stream before
// verification: each run must report the op failed.
func TestCorruptionFailsTheRun(t *testing.T) {
	for _, w := range []string{"join-overlap", "serve-mix", "subs-append"} {
		res := tinyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted row: correct=%v failed=%d, want a failure", w, res.Correct, res.Failed)
		}
	}
}

// TestServerEnforcesConnectionCap opens one connection more than the
// load generator may: closing the server must report it.
func TestServerEnforcesConnectionCap(t *testing.T) {
	hs, err := startHTTP(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxConns; i++ {
		c := http1Client(1) // a client of its own: a connection of its own
		resp, err := c.Get(hs.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		c.CloseIdleConnections()
	}
	if err := hs.close(); err == nil {
		t.Fatalf("%d connections passed a cap of %d", maxConns+1, maxConns)
	}
}
