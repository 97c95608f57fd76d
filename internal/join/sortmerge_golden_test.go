package join

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
)

var update = flag.Bool("update", false, "rewrite testdata/sortmerge.golden from the current sort-merge")

// digestSink counts result rows and folds each row's encoding into an
// FNV-1a digest in emission order, so a golden built from it pins the
// order sort-merge emits in, not only the result multiset.
type digestSink struct {
	rows int
	h    hash.Hash64
	buf  []byte
}

func (d *digestSink) Append(z tuple.Tuple) error {
	var err error
	if d.buf, err = z.Append(d.buf[:0]); err != nil {
		return err
	}
	d.h.Write(d.buf)
	d.rows++
	return nil
}

func (d *digestSink) Flush() error { return nil }

// sortMergeGoldenTuples is each side's size: large enough that the
// half-long-lived windows pass the live index's activation size and
// the small budgets evict, small enough that the single-key cells stay
// cheap.
const sortMergeGoldenTuples = 480

// TestSortMergeGoldens pins what sort-merge does on a matrix of key
// densities × long-lived shares × memory budgets × page formats ×
// kernels: the result count, an order-sensitive digest of the emitted
// rows, the merge statistics and every field of the device counters.
// LiveIndexActivations is left out: when the index switches on is a
// CPU decision that must not move anything the golden records. A
// change meant to move a counter regenerates testdata/sortmerge.golden
// with -update; any other change must pass it untouched.
func TestSortMergeGoldens(t *testing.T) {
	keys := []struct {
		name string
		w    workload
	}{
		{"1", workload{keys: 1}},
		{"few", workload{keys: 8}},
		{"many", workload{keys: sortMergeGoldenTuples / 4}},
		{"unique", workload{unique: true}},
	}
	shares := []struct {
		name  string
		every int
	}{{"0", 0}, {"1/10", 10}, {"1/4", 4}, {"1/2", 2}}

	var b strings.Builder
	for ki, k := range keys {
		for si, sh := range shares {
			w := k.w
			w.n, w.longEvery, w.lifespan = sortMergeGoldenTuples, sh.every, 100000
			rng := rand.New(rand.NewSource(int64(1000 + 10*ki + si)))
			rTuples := w.generate(rng, 1)
			sTuples := w.generate(rng, 2)
			for _, memory := range []int{4, 6, 10, 40} {
				for _, format := range []page.Format{page.FormatV1, page.FormatV2} {
					for _, kernel := range []Kernel{KernelScan, KernelSweep} {
						d := disk.New(page.DefaultSize)
						d.SetPageFormat(format)
						r := load(t, d, empSchema, rTuples)
						s := load(t, d, deptSchema, sTuples)
						d.ResetCounters()
						sink := &digestSink{h: fnv.New64a()}
						_, st, err := SortMerge(r, s, sink, Spec{MemoryPages: memory, Kernel: kernel})
						if err != nil {
							t.Fatalf("keys=%s long=%s mem=%d %s %s: %v", k.name, sh.name, memory, format, kernel, err)
						}
						c := d.Counters()
						fmt.Fprintf(&b, "keys=%s long=%s mem=%d %s %s: results=%d digest=%016x reads=%d rereads=%d spillPeak=%d"+
							" randReads=%d seqReads=%d randWrites=%d seqWrites=%d retries=%d bytes=%d\n",
							k.name, sh.name, memory, format, kernel, sink.rows, sink.h.Sum64(),
							st.InnerPageReads, st.InnerPageRereads, st.SpillPagesPeak,
							c.RandReads, c.SeqReads, c.RandWrites, c.SeqWrites, c.Retries, c.BytesMoved)
					}
				}
			}
		}
	}
	testutil.Golden(t, "testdata/sortmerge.golden", b.String(), *update)
}
