package vtjoin

import (
	"testing"

	"vtjoin/internal/disk"
	"vtjoin/internal/page"
)

// glitchingPair opens a database on a device whose reads of the left
// input keep failing transiently, each failure absorbed by one retry,
// and loads a join pair onto it large enough to partition and spill at
// 8 pages. Only one goroutine reads the left input's file, so the
// faults strike the same reads on every run.
func glitchingPair(t *testing.T) (*DB, *Relation, *Relation) {
	t.Helper()
	const leftFile = 1 // the first file the device creates
	var plan disk.FaultPlan
	for i := 0; i < 8; i++ {
		plan.Faults = append(plan.Faults, disk.Fault{Kind: disk.FaultTransientRead, File: leftFile, Page: -1, After: 2 + 3*i})
	}
	d, _ := disk.NewFaulty(page.DefaultSize, plan)
	db := &DB{d: d}
	load := func(col string, side int64) *Relation {
		var ts []Tuple
		for i := int64(0); i < 900; i++ {
			start := Chronon((i * 37 * side) % 5000)
			ts = append(ts, NewTuple(Span(start, start+Chronon(i%90)), Int(i%40), Int(side*10000+i)))
		}
		rel, err := db.Load(NewSchema(Col("key", KindInt), Col(col, KindInt)), ts)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	left, right := load("a", 1), load("b", 3)
	if left.rel.File() != leftFile {
		t.Fatalf("left input is file %d, the faults target file %d", left.rel.File(), leftFile)
	}
	return db, left, right
}

// TestPhaseCountersMatchDevice: the phases both entry points report
// carry retries and bytes. On a glitching device, JoinInto's phases sum
// to the device's retries (at least one) and bytes moved, and Join
// reports the same phases plus the writes of its materialized result.
func TestPhaseCountersMatchDevice(t *testing.T) {
	opts := Options{MemoryPages: 8}

	db, r, s := glitchingPair(t)
	db.ResetIOCounters()
	into, err := JoinInto(r, s, opts, func(Tuple) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	moved := db.IOCounters()
	var retries, bytes int64
	for _, ph := range into {
		retries += ph.IO.Retries
		bytes += ph.IO.BytesMoved
	}
	if moved.Retries == 0 || retries != moved.Retries || bytes != moved.BytesMoved {
		t.Fatalf("JoinInto phases carry %d retries and %d bytes; the device moved %+v", retries, bytes, moved)
	}

	db, r, s = glitchingPair(t)
	res, err := Join(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	outPages, err := res.Relation.rel.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != len(into) {
		t.Fatalf("Join reports %d phases, JoinInto %d", len(res.Phases), len(into))
	}
	var extraWrites, extraBytes int64
	for i, ph := range res.Phases {
		in := into[i]
		if ph.Name != in.Name || ph.IO.RandomReads != in.IO.RandomReads ||
			ph.IO.SequentialReads != in.IO.SequentialReads || ph.IO.Retries != in.IO.Retries {
			t.Errorf("phase %d: Join reports %+v, JoinInto %+v", i, ph, in)
		}
		extraWrites += ph.IO.RandomWrites + ph.IO.SequentialWrites - in.IO.RandomWrites - in.IO.SequentialWrites
		extraBytes += ph.IO.BytesMoved - in.IO.BytesMoved
	}
	if extraWrites != int64(outPages) || extraBytes != int64(outPages*db.PageSize()) {
		t.Errorf("Join's phases move %d pages (%d bytes) more than JoinInto's; the result has %d pages",
			extraWrites, extraBytes, outPages)
	}
}

// TestShardedOuterJoinRejected: outer coverage cannot be decided per
// shard, so every outer type with Shards > 1 is refused.
func TestShardedOuterJoinRejected(t *testing.T) {
	db := Open()
	emp := buildEmployees(t, db)
	dept := buildDepartments(t, db)
	for _, typ := range []JoinType{JoinLeftOuter, JoinRightOuter, JoinFullOuter} {
		if _, err := Join(emp, dept, Options{Type: typ, Shards: 2}); err == nil {
			t.Errorf("sharded %v join accepted", typ)
		}
	}
}
