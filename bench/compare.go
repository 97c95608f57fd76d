package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns q1, the median and q3 as Python's
// statistics.quantiles(xs, n=4) and statistics.median give them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 { // the "exclusive" method
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	Workload, Metric   string
	Base, Head         [3]float64 // q1, median, q3
	HeadWins, BaseWins int        // pairs won, ties counting for neither
	Pairs              int
	Spread             float64 // the base runs' (q3-q1)/median
	Outcome            string  // gain, regression, unresolved or within bound
}

// minPairs is the fewest base/head pairs a gain may rest on.
const minPairs = 10

// compareRuns applies the rule for claims and regressions: pair the
// runs in order; a gain needs at least minPairs pairs, nine tenths of
// them won, and a median difference beyond the base's interquartile
// range; a regression is a
// head median worse than the base's by more than the bound; and a
// metric whose base spread exceeds its bound is unresolved, unless
// every head run beats every base run.
func compareRuns(workload string, def boundDef, base, head []float64) verdict {
	v := verdict{Workload: workload, Metric: def.Name, Pairs: min(len(base), len(head))}
	v.Base[0], v.Base[1], v.Base[2] = quartiles(base)
	v.Head[0], v.Head[1], v.Head[2] = quartiles(head)
	sign := 1.0 // positive when head is better
	if def.Better == "lower" {
		sign = -1
	}
	for i := 0; i < v.Pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			v.HeadWins++
		case d < 0:
			v.BaseWins++
		}
	}
	if v.Base[1] != 0 {
		v.Spread = (v.Base[2] - v.Base[0]) / math.Abs(v.Base[1])
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) > 0
		}
	}
	gain := sign * (v.Head[1] - v.Base[1])
	switch {
	case v.Pairs >= minPairs && v.HeadWins*10 >= 9*v.Pairs && gain > v.Base[2]-v.Base[0]:
		v.Outcome = "gain"
	case v.Spread > def.Bound && !allBetter:
		v.Outcome = "unresolved"
	case -gain > def.Bound*math.Abs(v.Base[1]):
		v.Outcome = "regression"
	default:
		v.Outcome = "within bound"
	}
	return v
}

// loadRuns reads a results file (one untraced run per line, as --out
// writes them) into values per workload and metric, in file order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and metric, then one summary
// row per workload, and fails when any metric regressed.
func compareFiles(benchPath, basePath, headPath string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	raw, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	var base, head map[string]map[string][]float64
	if err == nil {
		base, err = loadRuns(basePath)
	}
	if err == nil {
		head, err = loadRuns(headPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vtperf: compare: %v\n", err)
		return 1
	}
	var vs []verdict
	for _, w := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			b, h := base[w.Name][def.Name], head[w.Name][def.Name]
			if len(b) > 0 && len(h) > 0 {
				vs = append(vs, compareRuns(w.Name, def, b, h))
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-20s %-34s %-34s %9s %7s  %s\n", "workload", "metric", "base q1/median/q3", "head q1/median/q3", "wins h:b", "spread", "outcome")
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-15s %-20s %-34s %-34s %4d:%-4d %6.1f%%  %s\n", v.Workload, v.Metric,
			fmt.Sprintf("%.4g/%.4g/%.4g", v.Base[0], v.Base[1], v.Base[2]),
			fmt.Sprintf("%.4g/%.4g/%.4g", v.Head[0], v.Head[1], v.Head[2]),
			v.HeadWins, v.BaseWins, 100*v.Spread, v.Outcome)
	}
	regressed := false
	for _, w := range bf.Workloads {
		count := map[string]int{}
		for _, v := range vs {
			if v.Workload == w.Name {
				count[v.Outcome]++
			}
		}
		if len(count) == 0 {
			continue
		}
		regressed = regressed || count["regression"] > 0
		fmt.Fprintf(stdout, "%s: %d regression, %d gain, %d unresolved, %d within bound\n",
			w.Name, count["regression"], count["gain"], count["unresolved"], count["within bound"])
	}
	if regressed {
		return 1
	}
	return 0
}
