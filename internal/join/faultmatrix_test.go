package join

import (
	"errors"
	"math/rand"
	"testing"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
	"vtjoin/internal/tuple"
)

// runAlgorithm executes one algorithm over r and s, collecting the
// result tuples.
func runAlgorithm(algo Algorithm, r, s *relation.Relation, memoryPages int) ([]tuple.Tuple, error) {
	var sink relation.CollectSink
	_, err := Run(algo, r, s, &sink, Spec{
		MemoryPages: memoryPages,
		Weights:     cost.Ratio(5),
		Rng:         rand.New(rand.NewSource(99)),
	})
	if err != nil {
		return nil, err
	}
	Canonicalize(sink.Tuples)
	return sink.Tuples, nil
}

// faultMatrixInputs generates one deterministic workload pair; every
// run (fault-free or faulted) sees identical bytes.
func faultMatrixInputs(rngSeed int64) ([]tuple.Tuple, []tuple.Tuple) {
	rng := rand.New(rand.NewSource(rngSeed))
	w := workload{keys: 12, n: 600, longEvery: 5, lifespan: 8000}
	return w.generate(rng, 1), w.generate(rng, 2)
}

// TestJoinsSurviveTransientFaults: under a seeded schedule of transient
// read and write faults, every algorithm must produce exactly the
// fault-free result, with the retries visible on the cost counters —
// the acceptance bar for the fault-injection harness.
func TestJoinsSurviveTransientFaults(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(7)
	const memoryPages = 10

	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			// Fault-free baseline.
			clean := disk.New(page.DefaultSize)
			want, err := runAlgorithm(a,
				load(t, clean, empSchema, rTuples),
				load(t, clean, deptSchema, sTuples), memoryPages)
			if err != nil {
				t.Fatalf("fault-free run failed: %v", err)
			}

			// The same join over a device that keeps glitching: transient
			// faults strike reads and writes throughout the run. Each
			// strike fires once and the strikes are spaced wider than the
			// retry budget, so every one is absorbed by a retry (a fault
			// recurring on back-to-back attempts would exhaust the budget
			// and rightly surface as permanent).
			var plan disk.FaultPlan
			plan.Seed = 1
			for i := 0; i < 12; i++ {
				plan.Faults = append(plan.Faults,
					disk.Fault{Kind: disk.FaultTransientRead, Page: -1, After: 5 + 9*i},
					disk.Fault{Kind: disk.FaultTransientWrite, Page: -1, After: 3 + 9*i},
				)
			}
			faulty, fs := disk.NewFaulty(page.DefaultSize, plan)
			got, err := runAlgorithm(a,
				load(t, faulty, empSchema, rTuples),
				load(t, faulty, deptSchema, sTuples), memoryPages)
			if err != nil {
				t.Fatalf("join over faulty storage failed: %v", err)
			}
			if fs.Stats().Total() == 0 {
				t.Fatal("fault plan never fired; the test proves nothing")
			}
			if faulty.Counters().Retries == 0 {
				t.Fatal("no retries charged despite injected transient faults")
			}
			assertSameResult(t, algo+" under transient faults", got, want)
		})
	}
}

// TestJoinsFailCleanlyOnPermanentFaults: a permanently failing page
// must abort the join with a wrapped storage error — never a panic,
// never a silently wrong result.
func TestJoinsFailCleanlyOnPermanentFaults(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(8)
	const memoryPages = 10

	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			// Loading only writes, so a read fault stays dormant until the
			// join itself touches the device.
			faulty, fs := disk.NewFaulty(page.DefaultSize, disk.FaultPlan{
				Faults: []disk.Fault{
					{Kind: disk.FaultPermanentRead, Page: -1, After: 10},
				},
			})
			r := load(t, faulty, empSchema, rTuples)
			s := load(t, faulty, deptSchema, sTuples)

			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s panicked on a permanent fault: %v", algo, p)
				}
			}()
			_, err := runAlgorithm(a, r, s, memoryPages)
			if err == nil {
				t.Fatal("join succeeded over a permanently failing device")
			}
			var ioe *disk.IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("error %v (type %T) does not wrap *disk.IOError", err, err)
			}
			if fs.Stats().PermanentReads == 0 {
				t.Fatal("permanent fault never fired")
			}
		})
	}
}

// TestJoinsSurfaceCorruption: a bit flip at rest must surface as a
// checksum error carrying the damaged page's coordinates.
func TestJoinsSurfaceCorruption(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(9)
	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			faulty, _ := disk.NewFaulty(page.DefaultSize, disk.FaultPlan{
				Seed: 3,
				Faults: []disk.Fault{
					{Kind: disk.FaultBitFlip, Page: -1, After: 4},
				},
			})
			r := load(t, faulty, empSchema, rTuples)
			s := load(t, faulty, deptSchema, sTuples)
			_, err := runAlgorithm(a, r, s, 10)
			if err == nil {
				t.Fatal("join read a corrupt page without noticing")
			}
			var corrupt *disk.ErrCorruptPage
			if !errors.As(err, &corrupt) {
				t.Fatalf("error %v (type %T) does not wrap *disk.ErrCorruptPage", err, err)
			}
			if corrupt.Page < 0 {
				t.Fatalf("corruption coordinates missing: %+v", corrupt)
			}
		})
	}
}

// TestJoinsSurviveMidJoinTransientFaults extends the transient matrix
// with faults placed by I/O ordinal *inside* the join: the load phase
// is measured and the strikes are offset past it, so every glitch hits
// the evaluation itself (partitioning passes, sort runs, merge scans).
// The result must stay byte-identical and the counter identity must
// hold exactly: every retry re-issues one access, so the faulty run's
// total equals the clean run's total plus its retries.
func TestJoinsSurviveMidJoinTransientFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(14)
	const memoryPages = 10

	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			clean := disk.New(page.DefaultSize)
			r := load(t, clean, empSchema, rTuples)
			s := load(t, clean, deptSchema, sTuples)
			afterLoad := clean.Counters()
			want, err := runAlgorithm(a, r, s, memoryPages)
			if err != nil {
				t.Fatalf("fault-free run failed: %v", err)
			}
			joinIO := clean.Counters().Sub(afterLoad)
			loadReads := int(afterLoad.RandReads + afterLoad.SeqReads)
			loadWrites := int(afterLoad.RandWrites + afterLoad.SeqWrites)
			joinReads := int(joinIO.RandReads + joinIO.SeqReads)
			joinWrites := int(joinIO.RandWrites + joinIO.SeqWrites)

			// Strikes at the first, middle and last quarters of the join's
			// own read and write schedules, each firing once and spaced
			// wider than the retry budget.
			var plan disk.FaultPlan
			plan.Seed = 2
			for _, frac := range []int{4, 2, 1} {
				if n := joinReads - joinReads/frac; joinReads > 0 {
					plan.Faults = append(plan.Faults, disk.Fault{
						Kind: disk.FaultTransientRead, Page: -1, After: loadReads + n,
					})
				}
				if n := joinWrites - joinWrites/frac; joinWrites > 0 {
					plan.Faults = append(plan.Faults, disk.Fault{
						Kind: disk.FaultTransientWrite, Page: -1, After: loadWrites + n,
					})
				}
			}
			faulty, fs := disk.NewFaulty(page.DefaultSize, plan)
			fr := load(t, faulty, empSchema, rTuples)
			fsRel := load(t, faulty, deptSchema, sTuples)
			afterFaultyLoad := faulty.Counters()
			got, err := runAlgorithm(a, fr, fsRel, memoryPages)
			if err != nil {
				t.Fatalf("join over mid-join transient faults failed: %v", err)
			}
			if fs.Stats().Total() == 0 {
				t.Fatal("no mid-join fault fired; the test proves nothing")
			}
			assertSameResult(t, algo+" under mid-join transient faults", got, want)

			// Counter identity: the faulty join did exactly the clean
			// join's accesses plus one re-issue per retry.
			faultyJoinIO := faulty.Counters().Sub(afterFaultyLoad)
			if faultyJoinIO.Retries == 0 {
				t.Fatal("no retries charged despite injected mid-join faults")
			}
			if got, want := faultyJoinIO.Total(), joinIO.Total()+faultyJoinIO.Retries; got != want {
				t.Errorf("counter identity broken: faulty total %d, clean total %d + %d retries = %d",
					got, joinIO.Total(), faultyJoinIO.Retries, want)
			}
		})
	}
}

// TestJoinsFailCleanlyOnMidJoinPermanentFaults places a permanent
// write fault inside the join (loading never reads, so the read-fault
// variant is covered by the chaos harness; a write fault exercises the
// spill/partition/run creation paths): the join must surface a wrapped
// *disk.IOError and release every file it created.
func TestJoinsFailCleanlyOnMidJoinPermanentFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(15)
	const memoryPages = 10

	// Measure the load phase's writes so the fault can be offset past
	// them, landing on the join's own output.
	probe := disk.New(page.DefaultSize)
	load(t, probe, empSchema, rTuples)
	load(t, probe, deptSchema, sTuples)
	loadWrites := int(probe.Counters().RandWrites + probe.Counters().SeqWrites)

	for _, a := range []Algorithm{AlgorithmSortMerge, AlgorithmPartition} { // nested-loop never writes
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			faulty, fs := disk.NewFaulty(page.DefaultSize, disk.FaultPlan{
				Faults: []disk.Fault{
					// Offset past the load's writes so the fault lands on
					// the join's own spill/partition/run output.
					{Kind: disk.FaultPermanentWrite, Page: -1, After: loadWrites + 10},
				},
			})
			r := load(t, faulty, empSchema, rTuples)
			s := load(t, faulty, deptSchema, sTuples)
			before := faulty.LiveFiles()

			_, err := runAlgorithm(a, r, s, memoryPages)
			if err == nil {
				t.Fatal("join succeeded over a permanently failing device")
			}
			var ioe *disk.IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("error %v (type %T) does not wrap *disk.IOError", err, err)
			}
			if fs.Stats().PermanentWrites == 0 {
				t.Fatal("permanent write fault never fired")
			}
			if after := faulty.LiveFiles(); len(after) != len(before) {
				t.Errorf("file leak after permanent-fault abort: %v -> %v", before, after)
			}
		})
	}
}
