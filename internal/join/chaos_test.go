package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
	"vtjoin/internal/trace"
	"vtjoin/internal/tuple"
)

// The chaos harness aborts every algorithm configuration mid-query —
// by cancellation, by deadline expiry, and by a permanently failing
// device — at seeded, randomized points of its I/O schedule, and then
// checks the wreckage: the right error wrapped the right way, no
// goroutine still running engine code, no temporary file left on the
// device, buffer accounting balanced, and only a bounded amount of I/O
// after the trigger (cancellation is page-granular, not best-effort).

// The trigger context and the armed operation counter the strikes are
// built from live in internal/testutil (testutil.TriggerCtx,
// testutil.ArmedCounter) so the sharded executor's chaos harness can
// reuse them.

// chaosCombo is one engine configuration under chaos: an algorithm, an
// execution mode and a matching kernel.
type chaosCombo struct {
	algo       Algorithm
	sequential bool
	kernel     Kernel
}

func (cc chaosCombo) String() string {
	mode := "concurrent"
	if cc.sequential {
		mode = "sequential"
	}
	return fmt.Sprintf("%s/%s/%s", cc.algo.Label(), mode, cc.kernel)
}

func chaosCombos() []chaosCombo {
	var out []chaosCombo
	for _, algo := range []Algorithm{AlgorithmNestedLoop, AlgorithmSortMerge, AlgorithmPartition} {
		for _, seq := range []bool{false, true} {
			for _, k := range []Kernel{KernelSweep, KernelScan} {
				out = append(out, chaosCombo{algo: algo, sequential: seq, kernel: k})
			}
		}
	}
	return out
}

// runChaos executes one combo over r and s with full config control.
func runChaos(ctx context.Context, cc chaosCombo, r, s *relation.Relation, tr *trace.Tracer) ([]tuple.Tuple, error) {
	const memoryPages = 10
	var sink relation.CollectSink
	_, err := Run(cc.algo, r, s, &sink, Spec{
		Ctx: ctx, MemoryPages: memoryPages,
		Weights: cost.Ratio(5), Rng: rand.New(rand.NewSource(99)),
		Sequential: cc.sequential, Kernel: cc.kernel, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	Canonicalize(sink.Tuples)
	return sink.Tuples, nil
}

// chaosBaseline runs a combo cleanly on a hooked device and returns
// its canonical result and the number of page operations the join
// performs — the schedule length the trigger points are drawn from.
func chaosBaseline(t *testing.T, cc chaosCombo, rTuples, sTuples []tuple.Tuple) ([]tuple.Tuple, int64) {
	t.Helper()
	ac := &testutil.ArmedCounter{}
	d := disk.NewHooked(page.DefaultSize, func(disk.PageOp) { ac.Tick() })
	r := load(t, d, empSchema, rTuples)
	s := load(t, d, deptSchema, sTuples)
	ac.Arm(0, nil)
	got, err := runChaos(nil, cc, r, s, nil)
	if err != nil {
		t.Fatalf("baseline %s failed: %v", cc, err)
	}
	ops := ac.Ops()
	if ops == 0 {
		t.Fatalf("baseline %s performed no I/O; trigger points are meaningless", cc)
	}
	return got, ops
}

// maxPostTriggerOps bounds how much I/O may happen after an abort
// fires: cancellation is checked at page granularity, so the engine
// may finish in-flight page work (a prefetch pipeline's queued reads,
// a buffered run flush, a partial partition write-back) but must not
// plough on. The bound is deliberately generous — it catches "kept
// going for another phase", not scheduling jitter.
const maxPostTriggerOps = 512

// assertCleanAbort checks the post-abort invariants shared by every
// chaos scenario: files reclaimed and audits (buffer budgets, counter
// attribution, temp-file reclamation) clean.
func assertCleanAbort(t *testing.T, d *disk.Disk, tr *trace.Tracer, before []disk.FileID) {
	t.Helper()
	if _, err := tr.Finish(); err != nil {
		t.Errorf("audit violations after abort: %v", err)
	}
	after := d.LiveFiles()
	if len(after) != len(before) {
		t.Errorf("file leak: %d live files before the join, %d after the abort (%v -> %v)",
			len(before), len(after), before, after)
	}
}

// TestChaosMidQueryAbort is the chaos matrix: every algorithm ×
// execution mode × kernel, aborted by cancellation and by deadline
// expiry at seeded random points of its own I/O schedule.
func TestChaosMidQueryAbort(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(11)
	rng := rand.New(rand.NewSource(2026))

	for _, cc := range chaosCombos() {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			_, schedule := chaosBaseline(t, cc, rTuples, sTuples)

			for _, cause := range []struct {
				name string
				err  error
			}{
				{"cancel", context.Canceled},
				{"deadline", context.DeadlineExceeded},
			} {
				for point := 0; point < 2; point++ {
					at := 1 + rng.Int63n(schedule)
					t.Run(fmt.Sprintf("%s@%d", cause.name, at), func(t *testing.T) {
						testutil.VerifyNoLeaks(t)
						ac := &testutil.ArmedCounter{}
						d := disk.NewHooked(page.DefaultSize, func(disk.PageOp) { ac.Tick() })
						r := load(t, d, empSchema, rTuples)
						s := load(t, d, deptSchema, sTuples)

						before := d.LiveFiles()
						tr := trace.New(d, "chaos", trace.Options{Audit: true})
						ctx := testutil.NewTriggerCtx()
						ac.Arm(at, func() { ctx.Fire(cause.err) })

						_, err := runChaos(ctx, cc, r, s, tr)
						if err == nil {
							t.Fatalf("join completed despite %s at op %d of %d", cause.name, at, schedule)
						}
						if !errors.Is(err, cause.err) {
							t.Errorf("error %v does not wrap %v", err, cause.err)
						}
						var abort *execctx.AbortError
						if !errors.As(err, &abort) {
							t.Errorf("error %v (type %T) does not wrap *execctx.AbortError", err, err)
						}
						if over := ac.Ops() - at; over > maxPostTriggerOps {
							t.Errorf("join performed %d page ops after the trigger (bound %d): cancellation is not page-granular",
								over, maxPostTriggerOps)
						}
						assertCleanAbort(t, d, tr, before)
					})
				}
			}
		})
	}
}

// TestChaosPermanentFaultAbort aborts every combo with a permanent
// read fault striking at seeded random points mid-join: the error must
// wrap *disk.IOError, and the abort must be as clean as a cancellation.
func TestChaosPermanentFaultAbort(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(12)
	rng := rand.New(rand.NewSource(2027))

	for _, cc := range chaosCombos() {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			_, schedule := chaosBaseline(t, cc, rTuples, sTuples)

			for point := 0; point < 2; point++ {
				// The fault counts only reads; the schedule counts all ops.
				// Drawing from the first half keeps the trigger inside the
				// run for every combo without tracking read counts apart.
				at := int(1 + rng.Int63n(schedule/2+1))
				t.Run(fmt.Sprintf("fault@%d", at), func(t *testing.T) {
					testutil.VerifyNoLeaks(t)
					faulty, fs := disk.NewFaulty(page.DefaultSize, disk.FaultPlan{
						Faults: []disk.Fault{
							{Kind: disk.FaultPermanentRead, Page: -1, After: at + loadReads(t, rTuples, sTuples)},
						},
					})
					r := load(t, faulty, empSchema, rTuples)
					s := load(t, faulty, deptSchema, sTuples)

					before := faulty.LiveFiles()
					tr := trace.New(faulty, "chaos", trace.Options{Audit: true})
					_, err := runChaos(nil, cc, r, s, tr)
					if err == nil {
						t.Skipf("fault at read %d fell past the end of this combo's schedule", at)
					}
					var ioe *disk.IOError
					if !errors.As(err, &ioe) {
						t.Errorf("error %v (type %T) does not wrap *disk.IOError", err, err)
					}
					if fs.Stats().PermanentReads == 0 {
						t.Error("permanent fault never fired yet the join failed")
					}
					assertCleanAbort(t, faulty, tr, before)
				})
			}
		})
	}
}

// loadReads measures how many read operations loading the two input
// relations performs, so fault triggers can be offset past the load
// phase (memoized: the load path is deterministic).
var loadReadsOnce struct {
	sync.Once
	n int
}

func loadReads(t *testing.T, rTuples, sTuples []tuple.Tuple) int {
	t.Helper()
	loadReadsOnce.Do(func() {
		d := disk.New(page.DefaultSize)
		load(t, d, empSchema, rTuples)
		load(t, d, deptSchema, sTuples)
		c := d.Counters()
		loadReadsOnce.n = int(c.RandReads + c.SeqReads)
	})
	return loadReadsOnce.n
}

// TestChaosHookedDeviceIsTransparent pins the "completed runs are
// unchanged" half of the chaos contract: a hooked device with a
// never-firing trigger produces byte-identical results and identical
// I/O counters to a plain device, for every combo.
func TestChaosHookedDeviceIsTransparent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(13)
	for _, cc := range chaosCombos() {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			plain := disk.New(page.DefaultSize)
			want, err := runChaos(nil, cc,
				load(t, plain, empSchema, rTuples),
				load(t, plain, deptSchema, sTuples), nil)
			if err != nil {
				t.Fatal(err)
			}

			ac := &testutil.ArmedCounter{}
			hooked := disk.NewHooked(page.DefaultSize, func(disk.PageOp) { ac.Tick() })
			ctx := testutil.NewTriggerCtx() // live context that never fires
			got, err := runChaos(ctx, cc,
				load(t, hooked, empSchema, rTuples),
				load(t, hooked, deptSchema, sTuples), nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, cc.String()+" on a hooked device", got, want)
			if g, w := hooked.Counters(), plain.Counters(); g != w {
				t.Errorf("hooked device changed the I/O schedule: %+v vs %+v", g, w)
			}
		})
	}
}
