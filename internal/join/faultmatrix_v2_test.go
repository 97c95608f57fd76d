package join

import (
	"errors"
	"testing"

	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/relation"
	"vtjoin/internal/testutil"
)

// The v2 fault matrix re-runs the storage-failure suite with the
// compressed page codec: the disk boundary is format-oblivious (CRC32-C
// over the raw image), so every guarantee the v1 matrix proves must
// hold verbatim when the pages underneath are delta-encoded. The fault
// harness itself (disk.NewFaulty and FaultPlan) is reused unchanged —
// only the device's default page format differs.

// newV2Faulty is disk.NewFaulty with the device switched to the v2
// page format before any relation is created on it.
func newV2Faulty(t *testing.T, plan disk.FaultPlan) (*disk.Disk, *disk.FaultStore) {
	t.Helper()
	d, fs := disk.NewFaulty(page.DefaultSize, plan)
	d.SetPageFormat(page.FormatV2)
	return d, fs
}

// TestV2JoinsSurviveTransientFaults: the transient-fault matrix over v2
// pages — every algorithm must reproduce the fault-free v2 result
// exactly, with the retries visible on the counters.
func TestV2JoinsSurviveTransientFaults(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(7)
	const memoryPages = 10

	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			clean := disk.New(page.DefaultSize)
			clean.SetPageFormat(page.FormatV2)
			want, err := runAlgorithm(a,
				load(t, clean, empSchema, rTuples),
				load(t, clean, deptSchema, sTuples), memoryPages)
			if err != nil {
				t.Fatalf("fault-free v2 run failed: %v", err)
			}

			var plan disk.FaultPlan
			plan.Seed = 1
			for i := 0; i < 12; i++ {
				plan.Faults = append(plan.Faults,
					disk.Fault{Kind: disk.FaultTransientRead, Page: -1, After: 5 + 9*i},
					disk.Fault{Kind: disk.FaultTransientWrite, Page: -1, After: 3 + 9*i},
				)
			}
			faulty, fs := newV2Faulty(t, plan)
			got, err := runAlgorithm(a,
				load(t, faulty, empSchema, rTuples),
				load(t, faulty, deptSchema, sTuples), memoryPages)
			if err != nil {
				t.Fatalf("v2 join over faulty storage failed: %v", err)
			}
			if fs.Stats().Total() == 0 {
				t.Fatal("fault plan never fired; the test proves nothing")
			}
			if faulty.Counters().Retries == 0 {
				t.Fatal("no retries charged despite injected transient faults")
			}
			assertSameResult(t, algo+" on v2 pages under transient faults", got, want)
		})
	}
}

// TestV2JoinsSurviveMidJoinTransientFaults: mid-join strikes against
// v2 pages, with the exact counter identity — the faulty run's total
// equals the clean run's total plus its retries.
func TestV2JoinsSurviveMidJoinTransientFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rTuples, sTuples := faultMatrixInputs(14)
	const memoryPages = 10

	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			clean := disk.New(page.DefaultSize)
			clean.SetPageFormat(page.FormatV2)
			r := load(t, clean, empSchema, rTuples)
			s := load(t, clean, deptSchema, sTuples)
			afterLoad := clean.Counters()
			want, err := runAlgorithm(a, r, s, memoryPages)
			if err != nil {
				t.Fatalf("fault-free v2 run failed: %v", err)
			}
			joinIO := clean.Counters().Sub(afterLoad)
			loadReads := int(afterLoad.RandReads + afterLoad.SeqReads)
			loadWrites := int(afterLoad.RandWrites + afterLoad.SeqWrites)
			joinReads := int(joinIO.RandReads + joinIO.SeqReads)
			joinWrites := int(joinIO.RandWrites + joinIO.SeqWrites)

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
			faulty, fs := newV2Faulty(t, plan)
			fr := load(t, faulty, empSchema, rTuples)
			fsRel := load(t, faulty, deptSchema, sTuples)
			afterFaultyLoad := faulty.Counters()
			got, err := runAlgorithm(a, fr, fsRel, memoryPages)
			if err != nil {
				t.Fatalf("v2 join over mid-join transient faults failed: %v", err)
			}
			if fs.Stats().Total() == 0 {
				t.Fatal("no mid-join fault fired; the test proves nothing")
			}
			assertSameResult(t, algo+" on v2 pages under mid-join faults", got, want)

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

// TestV2JoinsSurfaceCorruption: a bit flip at rest in a v2 page must
// surface as a checksum error — the disk boundary catches it before
// the codec ever decodes, exactly as with v1.
func TestV2JoinsSurfaceCorruption(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(9)
	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			faulty, _ := newV2Faulty(t, disk.FaultPlan{
				Seed: 3,
				Faults: []disk.Fault{
					{Kind: disk.FaultBitFlip, Page: -1, After: 4},
				},
			})
			r := load(t, faulty, empSchema, rTuples)
			s := load(t, faulty, deptSchema, sTuples)
			_, err := runAlgorithm(a, r, s, 10)
			if err == nil {
				t.Fatal("join read a corrupt v2 page without noticing")
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

// TestV2TornWriteFailsClosed: a torn write during the load of a v2
// relation reports success (the classic silent power cut) but the join
// must then refuse the half-written page with a checksum error — never
// a panic and never a silently wrong result.
func TestV2TornWriteFailsClosed(t *testing.T) {
	rTuples, sTuples := faultMatrixInputs(11)
	for _, a := range Algorithms {
		algo := a.Label()
		t.Run(algo, func(t *testing.T) {
			faulty, fs := newV2Faulty(t, disk.FaultPlan{
				Faults: []disk.Fault{
					// Strike an early data page: builders write pages only
					// once full, so the torn tail holds live records.
					{Kind: disk.FaultTornWrite, Page: -1, After: 1},
				},
			})
			r := load(t, faulty, empSchema, rTuples)
			s := load(t, faulty, deptSchema, sTuples)
			if fs.Stats().TornWrites == 0 {
				t.Fatal("torn write never fired during load")
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s panicked on a torn v2 page: %v", algo, p)
				}
			}()
			_, err := runAlgorithm(a, r, s, 10)
			if err == nil {
				t.Fatal("join read a torn v2 page without noticing")
			}
			var corrupt *disk.ErrCorruptPage
			if !errors.As(err, &corrupt) {
				t.Fatalf("error %v (type %T) does not wrap *disk.ErrCorruptPage", err, err)
			}
		})
	}
}

// TestV2PayloadCorruptionBehindValidChecksum is the layer below the
// disk CRC: corruption that arrives with a freshly stamped checksum
// (a forged image, or damage introduced above the storage boundary)
// passes disk.Read and must instead be rejected by the codec itself
// with its typed *page.CorruptError — never a panic, never garbage
// tuples.
func TestV2PayloadCorruptionBehindValidChecksum(t *testing.T) {
	rTuples, _ := faultMatrixInputs(12)
	d := disk.New(page.DefaultSize)
	d.SetPageFormat(page.FormatV2)
	r, err := relation.FromTuples(d, empSchema, rTuples)
	if err != nil {
		t.Fatal(err)
	}
	p := page.MustNew(page.DefaultSize)
	if err := r.ReadPage(0, p); err != nil {
		t.Fatal(err)
	}
	if p.StoredFormat() != page.FormatV2 {
		t.Fatalf("stored format %v, want v2", p.StoredFormat())
	}
	// Corrupt the dictionary entry count in the raw image; d.Write
	// restamps the checksum, so the damage hides behind a valid CRC.
	p.Bytes()[16] ^= 0xFF
	if err := d.Write(r.File(), 0, p); err != nil {
		t.Fatal(err)
	}

	fresh := page.MustNew(page.DefaultSize)
	if err := d.Read(r.File(), 0, fresh); err != nil {
		t.Fatalf("CRC-valid corrupt page rejected at the disk layer: %v", err)
	}
	_, err = fresh.Tuples()
	if err == nil {
		t.Fatal("codec decoded a corrupt dictionary without noticing")
	}
	var ce *page.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (type %T) does not wrap *page.CorruptError", err, err)
	}
	if ce.Format != page.FormatV2 {
		t.Fatalf("corrupt error names format %v, want v2", ce.Format)
	}

	// The same corruption must also surface through a full relation
	// scan, the path every join actually takes.
	_, err = r.All()
	if !errors.As(err, &ce) {
		t.Fatalf("relation scan error %v (type %T) does not wrap *page.CorruptError", err, err)
	}
}
