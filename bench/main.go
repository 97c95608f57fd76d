// Command vtperf is the repository's benchmark. It runs one workload
// against the vtjoin library or an in-process query server, verifies
// every answer outside the timed regions, and prints every metric as
// "workload metric value unit", then one JSON summary line.
//
// Build and run it from the root of a checkout with bench/run.sh; see
// bench/README.md for the workloads, the metrics and the compare mode.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// defaultSeed generates the inputs of every run that names no seed;
// heldOutSeed is kept out of development runs, for confirming claims.
const (
	defaultSeed = 1
	heldOutSeed = 20261016
)

// childTimeout bounds one workload's child process, so a run always
// ends within three minutes even when the program under test hangs.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vtperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: join-overlap, join-longlived, serve-mix or subs-append")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("seed every input is generated from (seed %d is held out for confirming claims)", heldOutSeed))
	seconds := fs.Int("seconds", 26, "seconds a run measures on the calibration host; sets its episode count")
	traced := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	spans := fs.String("spans", "", "traced runs: write the spans as JSON to this file")
	out := fs.String("out", "", "append the run's result, with its host block, as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two results files: --compare base.jsonl head.jsonl")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "compare mode: the file holding the metrics' bounds")
	child := fs.Bool("child", false, "run the workload in this process (the parent passes it to its child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: vtperf --compare base.jsonl head.jsonl")
			return 2
		}
		return compareFiles(*benchFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if _, err := lookupWorkload(*workload); err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "vtperf: need --workload (join-overlap, join-longlived, serve-mix, subs-append), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	if *child {
		return runChild(cfg, *spans, stdout, stderr)
	}

	res, err := spawn(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vtperf: %s: %v\n", *workload, err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "vtperf: %v\n", err)
			return 1
		}
	}
	printResult(stdout, res)
	return 0
}

// runChild runs the workload in this process and writes its result as
// JSON to stdout.
func runChild(cfg config, spansFile string, stdout, stderr io.Writer) int {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "vtperf: %v\n", err)
		return 1
	}
	if tr != nil && spansFile != "" {
		if err := writeSpans(spansFile, tr); err != nil {
			fmt.Fprintf(stderr, "vtperf: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "vtperf: %v\n", err)
		return 1
	}
	return 0
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spawn runs the workload in a fresh child process, so its heap and
// peak RSS are its own, and decodes the child's result.
func spawn(args []string, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"--child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child process exceeded %v", childTimeout)
		}
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func appendResult(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the self-time table of a traced run, the host
// block, one "workload metric value unit" line per metric and side
// number, and the JSON summary as the last line.
func printResult(w io.Writer, res *runResult) {
	if res.Report != "" {
		fmt.Fprintf(w, "per-layer self time (%s, traced):\n%s\n", res.Workload, res.Report)
	}
	hostLine, _ := json.Marshal(res.Host)
	fmt.Fprintf(w, "host %s\n", hostLine)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.Metrics[d.name]
		sum.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, d.name, formatValue(v), d.unit)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Side)) {
		fmt.Fprintf(w, "%s %s %s (side)\n", res.Workload, name, formatValue(res.Side[name]))
	}
	line, _ := json.Marshal(sum)
	fmt.Fprintf(w, "%s\n", line)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
