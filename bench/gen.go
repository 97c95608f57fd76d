package main

import (
	"encoding/binary"
	"math/rand"

	"vtjoin/internal/chronon"
	"vtjoin/internal/join"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Every workload joins a left relation (key, rid[, pad]) with a right
// relation (key, sid[, pad]). The natural join matches on key, and on
// pad where present (every pad is the same zero-filled value, so it
// never removes a match but is carried, compared and stored like any
// payload).
var (
	padLeft   = schema.MustNew(intCol("key"), intCol("rid"), schema.Column{Name: "pad", Kind: value.KindBytes})
	padRight  = schema.MustNew(intCol("key"), intCol("sid"), schema.Column{Name: "pad", Kind: value.KindBytes})
	slimLeft  = schema.MustNew(intCol("key"), intCol("rid"))
	slimRight = schema.MustNew(intCol("key"), intCol("sid"))
)

func intCol(name string) schema.Column { return schema.Column{Name: name, Kind: value.KindInt} }

// genSpec describes one generated relation. Long-lived tuples span half
// the lifespan and are spread evenly through the relation; the others
// last one chronon, or up to maxDur chronons when maxDur > 0.
type genSpec struct {
	tuples    int
	longLived int
	keys      int64
	lifespan  int64
	maxDur    int64
	pad       int // pad column bytes; 0 selects the slim schemas
}

func (g genSpec) schemas() (*schema.Schema, *schema.Schema) {
	if g.pad > 0 {
		return padLeft, padRight
	}
	return slimLeft, slimRight
}

// side generates one relation. side (1 = left, 2 = right) tags the id
// column so ids never collide across relations; first offsets the ids
// of appended batches past the base relation's.
func (g genSpec) side(rng *rand.Rand, side int64, first, n int) []tuple.Tuple {
	var pad value.Value
	if g.pad > 0 {
		pad = value.Bytes(make([]byte, g.pad))
	}
	out := make([]tuple.Tuple, 0, n)
	acc := 0
	for i := 0; i < n; i++ {
		long := false
		if g.longLived > 0 {
			acc += g.longLived
			if acc >= g.tuples {
				acc -= g.tuples
				long = true
			}
		}
		var iv chronon.Interval
		switch {
		case long:
			st := chronon.Chronon(rng.Int63n(g.lifespan / 2))
			iv = chronon.New(st, st+chronon.Chronon(g.lifespan/2))
		case g.maxDur > 0:
			st := chronon.Chronon(rng.Int63n(g.lifespan))
			iv = chronon.New(st, st+chronon.Chronon(rng.Int63n(g.maxDur+1)))
		default:
			iv = chronon.At(chronon.Chronon(rng.Int63n(g.lifespan)))
		}
		vals := []value.Value{value.Int(rng.Int63n(g.keys)), value.Int(side<<32 + int64(first+i))}
		if g.pad > 0 {
			vals = append(vals, pad)
		}
		out = append(out, tuple.New(iv, vals...))
	}
	return out
}

// pair generates both base relations from an episode's seed.
func (g genSpec) pair(seed int64) (r, s []tuple.Tuple) {
	return g.side(rand.New(rand.NewSource(seed*2+1)), 1, 0, g.tuples),
		g.side(rand.New(rand.NewSource(seed*2+2)), 2, 0, g.tuples)
}

// checksum is an order-insensitive digest of a tuple multiset: the
// count and the wrapping sum of per-tuple hashes.
type checksum struct {
	sum uint64
	n   int64
}

func (c *checksum) add(t tuple.Tuple) {
	c.sum += tupleHash(t)
	c.n++
}

// Append and Flush make a checksum a relation.Sink.
func (c *checksum) Append(t tuple.Tuple) error { c.add(t); return nil }
func (c *checksum) Flush() error               { return nil }

func (c *checksum) of(ts []tuple.Tuple) checksum {
	for _, t := range ts {
		c.add(t)
	}
	return *c
}

func tupleHash(t tuple.Tuple) uint64 {
	h := value.Mix64(uint64(t.V.Start)) ^ value.Mix64(^uint64(t.V.End))
	for _, v := range t.Values {
		h = value.Mix64(h*0x9e3779b97f4a7c15 + valueHash(v))
	}
	return h
}

// valueHash hashes byte strings eight bytes at a time: the join sinks
// hash every result row inside the timed region, and a byte-wise hash
// of the 96-byte pads would cost a tenth of a join-overlap op.
func valueHash(v value.Value) uint64 {
	if v.Kind() != value.KindBytes {
		return v.Hash()
	}
	b := v.AsBytes()
	h := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = value.Mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		h = h*131 + uint64(c)
	}
	return value.Mix64(h)
}

// referenceChecksum digests join.Reference(plan, r, s). It evaluates
// the reference one join-key bucket at a time — tuples in different
// buckets never match — so the oracle costs |r|·|s|/keys comparisons
// and never holds more than one bucket's result.
func referenceChecksum(plan *schema.JoinPlan, r, s []tuple.Tuple) checksum {
	rb, sb := make(map[uint64][]tuple.Tuple), make(map[uint64][]tuple.Tuple)
	for _, t := range r {
		h := tuple.HashAt(t, plan.LeftJoinIdx)
		rb[h] = append(rb[h], t)
	}
	for _, t := range s {
		h := tuple.HashAt(t, plan.RightJoinIdx)
		sb[h] = append(sb[h], t)
	}
	var c checksum
	for h, rs := range rb {
		c.of(join.Reference(plan, rs, sb[h]))
	}
	return c
}
