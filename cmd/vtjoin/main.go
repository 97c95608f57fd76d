// Command vtjoin evaluates valid-time joins of two CSV relations (see
// internal/csvio for the format: a vs,ve,name:kind,... header followed
// by data rows; nulls are the ␀ sentinel).
//
// Usage:
//
//	vtjoin [-algo partition|sortmerge|nestedloop]
//	       [-type inner|left|right|full]
//	       [-predicate intersects|contains|containedin|equal]
//	       [-memory pages] [-ratio R] [-seed S] [-coalesce]
//	       [-shards K] [-timeout duration]
//	       [-stats] [-explain] [-trace out.json] [-audit]
//	       [-o out.csv] left.csv right.csv
//
// Tuples join when they agree on all shared column names and their
// valid-time intervals satisfy the predicate; each result carries the
// maximal overlap. Outer-join types additionally emit null-padded
// tuples over the unmatched sub-intervals. With -stats, the per-phase
// I/O cost report goes to standard error.
//
// -explain prints the execution trace to standard error: the span tree
// with per-phase I/O and timings, and — for the partition join — the
// planner's candidate cost curve (the paper's Figure 4) with the
// chosen plan marked. -trace writes the same trace as JSON. -audit
// additionally runs the invariant audits during evaluation (counter
// attribution, partition coverage, buffer balance, cache-paging
// symmetry) and, with -trace, re-reads the written JSON and verifies
// its per-span counters sum exactly to the device's movement.
//
// -shards K splits the time line into K shards, runs each shard's full
// join pipeline against a private in-memory device (the -memory budget
// is carved evenly across the pipelines), and merges the shard outputs
// deterministically. Results are byte-identical to the unsharded run;
// inner joins only.
//
// -timeout bounds the evaluation: when the deadline passes (or the
// process receives SIGINT/SIGTERM), the join aborts cooperatively at
// the next page boundary, releases every temporary file, and the
// process exits with a distinct code.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error,
// 3 deadline exceeded or interrupted.
package main

import (
	"flag"
	"fmt"
	"os"

	vtjoin "vtjoin"
	"vtjoin/internal/cost"
	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/trace"
)

func main() {
	algoFlag := flag.String("algo", "partition", "algorithm: partition, sortmerge or nestedloop")
	typeFlag := flag.String("type", "inner", "join type: inner, left, right or full")
	predFlag := flag.String("predicate", "intersects", "time predicate: intersects, contains, containedin or equal")
	memory := flag.Int("memory", 256, "buffer budget in pages")
	ratio := flag.Float64("ratio", 5, "random:sequential access cost ratio")
	seed := flag.Int64("seed", 1, "sampling seed (partition join)")
	shards := flag.Int("shards", 1, "time-shard the join across this many independent pipelines (inner joins only)")
	coalesce := flag.Bool("coalesce", false, "coalesce the result before writing")
	stats := flag.Bool("stats", false, "print the per-phase I/O cost report to stderr")
	explain := flag.Bool("explain", false, "print the execution trace and planner candidate curve to stderr")
	traceOut := flag.String("trace", "", "write the execution trace as JSON to this file")
	audit := flag.Bool("audit", false, "run the trace invariant audits (implies tracing); with -trace, also verify the written JSON sums to the device counters")
	timeout := flag.Duration("timeout", 0, "abort the join after this long (0 = no deadline); exits 3 on expiry")
	pageFormat := flag.String("page-format", "v1", "page codec relations are stored in: v1 (slotted) or v2 (delta-encoded intervals + per-page value dictionaries)")
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()

	if flag.NArg() != 2 {
		usage(fmt.Errorf("need exactly two input files, got %d", flag.NArg()))
	}
	if *shards < 1 {
		usage(fmt.Errorf("-shards must be at least 1, got %d", *shards))
	}

	opts := vtjoin.Options{
		MemoryPages: *memory,
		RandomCost:  *ratio,
		Seed:        *seed,
		Shards:      *shards,
		Trace:       *explain || *traceOut != "",
		TraceAudit:  *audit,
	}
	switch *algoFlag {
	case "partition":
		opts.Algorithm = vtjoin.AlgorithmPartition
	case "sortmerge":
		opts.Algorithm = vtjoin.AlgorithmSortMerge
	case "nestedloop":
		opts.Algorithm = vtjoin.AlgorithmNestedLoop
	default:
		usage(fmt.Errorf("unknown algorithm %q", *algoFlag))
	}
	switch *typeFlag {
	case "inner":
		opts.Type = vtjoin.JoinInner
	case "left":
		opts.Type = vtjoin.JoinLeftOuter
	case "right":
		opts.Type = vtjoin.JoinRightOuter
	case "full":
		opts.Type = vtjoin.JoinFullOuter
	default:
		usage(fmt.Errorf("unknown join type %q", *typeFlag))
	}
	switch *predFlag {
	case "intersects":
		opts.Predicate = vtjoin.PredicateIntersects
	case "contains":
		opts.Predicate = vtjoin.PredicateContains
	case "containedin":
		opts.Predicate = vtjoin.PredicateContainedIn
	case "equal":
		opts.Predicate = vtjoin.PredicateEqualIntervals
	default:
		usage(fmt.Errorf("unknown predicate %q", *predFlag))
	}

	ctx, cancel := execctx.Bootstrap(*timeout)
	defer cancel()

	format, err := vtjoin.ParsePageFormat(*pageFormat)
	if err != nil {
		usage(err)
	}
	db := vtjoin.Open(vtjoin.WithPageFormat(format))
	left, err := loadCSV(db, flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	right, err := loadCSV(db, flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	db.ResetIOCounters()

	res, err := vtjoin.JoinContext(ctx, left, right, opts)
	if err != nil {
		fatal(fmt.Errorf("join: %w", err))
	}
	// Snapshot the counters now, before coalescing or writing the result
	// adds I/O outside the trace: the -audit self-check below compares
	// the written trace against exactly this movement.
	joinIO := db.IOCounters()
	result := res.Relation
	if *coalesce {
		result, err = vtjoin.Coalesce(result)
		if err != nil {
			fatal(fmt.Errorf("coalesce: %w", err))
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := writeCSV(w, result); err != nil {
		fatal(fmt.Errorf("write result: %w", err))
	}

	if *stats {
		resultPages, err := result.Pages()
		if err != nil {
			fatal(fmt.Errorf("result size: %w", err))
		}
		fmt.Fprintf(os.Stderr, "algorithm: %s, type: %s, predicate: %s\n",
			res.Algorithm, opts.Type, opts.Predicate)
		fmt.Fprintf(os.Stderr, "result: %d tuples, %d pages\n", result.Cardinality(), resultPages)
		for _, ph := range res.Phases {
			fmt.Fprintf(os.Stderr, "  %-18s %10.0f\n", ph.Name, ph.Cost)
		}
		fmt.Fprintf(os.Stderr, "  %-18s %10.0f\n", "total", res.Cost)
	}

	if *explain {
		if err := trace.RenderExplain(os.Stderr, res.Trace, cost.Ratio(*ratio)); err != nil {
			fatal(fmt.Errorf("explain: %w", err))
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res.Trace); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if *audit {
			if err := validateTrace(*traceOut, joinIO); err != nil {
				fatal(fmt.Errorf("trace audit: %w", err))
			}
			fmt.Fprintf(os.Stderr, "trace audit: %s sums exactly to the device counters\n", *traceOut)
		}
	}
}

func writeTrace(path string, span *vtjoin.TraceSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateTrace re-reads a written trace and checks that its per-span
// I/O counters sum exactly to the device's counter movement during the
// join — the end-to-end form of the attribution invariant the audits
// enforce in-process.
func validateTrace(path string, joinIO vtjoin.IOCounters) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	parsed, err := trace.ReadJSON(f)
	if err != nil {
		return err
	}
	want := disk.Counters{
		RandReads:  joinIO.RandomReads,
		SeqReads:   joinIO.SequentialReads,
		RandWrites: joinIO.RandomWrites,
		SeqWrites:  joinIO.SequentialWrites,
		Retries:    joinIO.Retries,
		BytesMoved: joinIO.BytesMoved,
	}
	// Sharded runs adopt per-shard subtrees recorded against private
	// devices; their totals are excluded so the comparison stays against
	// the primary device's own movement.
	if got := parsed.Total().Sub(trace.ForeignTotal(parsed)); got != want {
		return fmt.Errorf("spans in %s total %+v but the device moved %+v", path, got, want)
	}
	return nil
}

func loadCSV(db *vtjoin.DB, path string) (*vtjoin.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, ts, err := csvio.ReadTuples(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rel, err := db.Load(s, ts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}

func writeCSV(w *os.File, r *vtjoin.Relation) error {
	ts, err := r.All()
	if err != nil {
		return err
	}
	return csvio.WriteTuples(w, r.Schema(), ts)
}

// fatal reports a runtime failure (I/O, join evaluation) and exits 1 —
// or 3 when the failure is a cancellation or expired deadline.
func fatal(err error) { execctx.Fatal("vtjoin", err) }

// usage reports a command-line mistake and exits 2.
func usage(err error) { execctx.Usage("vtjoin", err, "vtjoin [flags] left.csv right.csv (see -h)") }
