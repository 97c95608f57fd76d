package join

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/tuple"
)

// codecPredicates is every supported time-predicate shape, mirroring
// the matrix in the shard package's differential suite.
var codecPredicates = map[string]Predicate{
	"intersects":   chronon.MaskIntersects,
	"contains":     chronon.MaskContains,
	"contained-in": chronon.MaskContainedIn,
	"equal":        chronon.MaskEqual,
	"overlap-only": chronon.MaskOf(chronon.RelOverlaps, chronon.RelOverlappedBy),
	"starts":       chronon.MaskOf(chronon.RelStarts, chronon.RelStartedBy),
	"finishes":     chronon.MaskOf(chronon.RelFinishes, chronon.RelFinishedBy),
	"during-only":  chronon.MaskOf(chronon.RelDuring, chronon.RelContains),
}

// codecCell is one (format, algorithm, kernel, predicate) execution:
// the canonicalized results as encoded bytes (so the comparison is
// byte-level, not merely structural) and the per-phase I/O counters.
type codecCell struct {
	results [][]byte
	phases  []cost.Phase
}

// pageTotal sums the page-access counters over every phase.
func (c codecCell) pageTotal() int64 {
	var n int64
	for _, ph := range c.phases {
		n += ph.Counters.Total()
	}
	return n
}

// runCodecCell loads the workload pair onto a fresh device carrying
// the given page format and runs one algorithm sequentially (so the
// per-phase counters are deterministic).
func runCodecCell(t *testing.T, format page.Format, algo Algorithm, kernel Kernel, pred Predicate, rTuples, sTuples []tuple.Tuple) codecCell {
	t.Helper()
	d := disk.New(page.DefaultSize)
	d.SetPageFormat(format)
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)

	const memoryPages = 8
	var sink collectSink
	rep, err := Run(algo, r, s, &sink, Spec{
		MemoryPages: memoryPages, Sequential: true,
		Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(77)),
		TimePredicate: pred, Kernel: kernel,
	})
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", format, algo, kernel, err)
	}
	Canonicalize(sink.tuples)
	cell := codecCell{phases: rep.Phases}
	for _, z := range sink.tuples {
		b, err := z.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		cell.results = append(cell.results, b)
	}
	return cell
}

// collectSink gathers result tuples (the relation package's
// CollectSink equivalent, local so the encoded-bytes comparison stays
// self-contained).
type collectSink struct{ tuples []tuple.Tuple }

func (c *collectSink) Append(t tuple.Tuple) error { c.tuples = append(c.tuples, t); return nil }
func (c *collectSink) Flush() error               { return nil }

// assertBytesIdentical requires two cells to have produced the same
// result sequence byte for byte.
func assertBytesIdentical(t *testing.T, label string, got, want codecCell) {
	t.Helper()
	if len(got.results) != len(want.results) {
		t.Fatalf("%s: %d result tuples vs %d", label, len(got.results), len(want.results))
	}
	for i := range want.results {
		if !bytes.Equal(got.results[i], want.results[i]) {
			t.Fatalf("%s: result %d differs byte-wise:\n got %x\nwant %x",
				label, i, got.results[i], want.results[i])
		}
	}
}

// TestCodecDifferentialMatrix is the page-format differential over the
// full evaluation surface: every algorithm × kernel × predicate mask
// runs three times — twice under v1 and once under v2.
//
//   - The v1 pair must agree exactly: byte-identical results AND
//     identical per-phase page counters, pinning the engine as
//     deterministic before the format comparison means anything.
//   - The v2 run must produce byte-identical results to v1. Its page
//     counters may legitimately differ (v2 packs more tuples per page,
//     so scans touch fewer pages); the deltas are recorded on the test
//     log rather than asserted.
func TestCodecDifferentialMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2094))
	w := workload{keys: 10, n: 260, longEvery: 4, lifespan: 6000}
	rTuples := w.generate(rng, 1)
	sTuples := w.generate(rng, 2)

	for _, algo := range Algorithms {
		for _, kernel := range []Kernel{KernelSweep, KernelScan} {
			for name, pred := range codecPredicates {
				t.Run(fmt.Sprintf("%s/%s/%s", algo.Label(), kernel, name), func(t *testing.T) {
					v1a := runCodecCell(t, page.FormatV1, algo, kernel, pred, rTuples, sTuples)
					v1b := runCodecCell(t, page.FormatV1, algo, kernel, pred, rTuples, sTuples)
					v2 := runCodecCell(t, page.FormatV2, algo, kernel, pred, rTuples, sTuples)

					if len(v1a.results) == 0 && name == "intersects" {
						t.Fatal("intersects produced no results — the workload is degenerate")
					}

					// v1 vs v1: full determinism, counters included.
					assertBytesIdentical(t, "v1 repeat", v1b, v1a)
					if len(v1b.phases) != len(v1a.phases) {
						t.Fatalf("v1 repeat: %d phases vs %d", len(v1b.phases), len(v1a.phases))
					}
					for i := range v1a.phases {
						if v1b.phases[i].Name != v1a.phases[i].Name {
							t.Fatalf("v1 repeat: phase %d named %q vs %q",
								i, v1b.phases[i].Name, v1a.phases[i].Name)
						}
						if v1b.phases[i].Counters != v1a.phases[i].Counters {
							t.Errorf("v1 repeat: phase %q counters diverge:\n got %+v\nwant %+v",
								v1a.phases[i].Name, v1b.phases[i].Counters, v1a.phases[i].Counters)
						}
					}

					// v2 vs v1: identical answers, page-count deltas logged.
					assertBytesIdentical(t, "v2 vs v1", v2, v1a)
					t.Logf("page accesses: v1 %d, v2 %d (delta %+d)",
						v1a.pageTotal(), v2.pageTotal(), v2.pageTotal()-v1a.pageTotal())
				})
			}
		}
	}
}
