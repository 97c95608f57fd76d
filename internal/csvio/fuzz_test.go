package csvio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"vtjoin/internal/chronon"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// FuzzCSV: ReadTuples never panics on arbitrary bytes, and a relation
// built from the fuzz input (every column kind, nulls, ongoing "now"
// ends) round-trips WriteTuples → ReadTuples with the same schema and
// the same encoded tuples.
func FuzzCSV(f *testing.F) {
	// shape: column count, then per column a name length and a kind;
	// row count, then per row a 2-byte start, an end selector and per
	// column a null selector and the value. text supplies the names and
	// the string and bytes values, in order, and is also read as CSV.
	f.Add([]byte{1, 4, 3, 1, 0, 10, 5, 1, 3}, "name␀")                    // a string equal to NullSentinel
	f.Add([]byte{1, 4, 3, 1, 0, 10, 5, 1, 6}, "name␀␀")                   // a string of two sentinels
	f.Add([]byte{1, 3, 0, 1, 0, 10, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0}, "a:b") // a column named a:b
	f.Add([]byte{5, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 2, 0, 0, 0, 1, 7, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1},
		"iflsb\"a, b\"\n\xff") // every kind, an ongoing row, nulls
	f.Add([]byte{1, 3, 3, 1, 0, 10, 5, 1, 4}, "a\r\nb\r\r\n") // "\r\n" in a name and a string
	f.Add([]byte{}, "vs,ve,k:int,s:string\n1,now,2,␀\n3,4,5,x\n")
	f.Fuzz(func(t *testing.T, shape []byte, text string) {
		_, _, _ = ReadTuples(strings.NewReader(text))

		s, ts := fuzzRelation(shape, text)
		if s == nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTuples(&buf, s, ts); err != nil {
			t.Fatalf("WriteTuples: %v", err)
		}
		csv := buf.String()
		gotS, got, err := ReadTuples(&buf)
		if err != nil {
			t.Fatalf("ReadTuples of written %q: %v", csv, err)
		}
		if !gotS.Equal(s) {
			t.Fatalf("schema %v reads back as %v from %q", s, gotS, csv)
		}
		if len(got) != len(ts) {
			t.Fatalf("%d tuples read back as %d from %q", len(ts), len(got), csv)
		}
		for i := range ts {
			want, err := ts[i].Append(nil)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got[i].Append(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have, want) {
				t.Fatalf("tuple %d %v reads back as %v from %q", i, ts[i], got[i], csv)
			}
		}
	})
}

var fuzzKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindBool, value.KindString, value.KindBytes}

// fuzzInput hands out bytes of shape and runs of text in order, and
// zeros once either runs out.
type fuzzInput struct {
	shape []byte
	text  string
}

func (in *fuzzInput) bytes(n int) []byte {
	out := make([]byte, n)
	k := copy(out, in.shape)
	in.shape = in.shape[k:]
	return out
}

func (in *fuzzInput) byte() byte { return in.bytes(1)[0] }

// word takes the next run of text, its length given by shape.
func (in *fuzzInput) word() string {
	n := int(in.byte())
	if n > len(in.text) {
		n = len(in.text)
	}
	w := in.text[:n]
	in.text = in.text[n:]
	return w
}

// fuzzRelation builds a schema of up to five columns and up to seven
// tuples from the fuzz input, or returns nil when the column names
// are not a valid schema (empty or repeated).
func fuzzRelation(shape []byte, text string) (*schema.Schema, []tuple.Tuple) {
	in := &fuzzInput{shape: shape, text: text}
	cols := make([]schema.Column, in.byte()%6)
	for i := range cols {
		name := in.word()
		cols[i] = schema.Column{Name: name, Kind: fuzzKinds[int(in.byte())%len(fuzzKinds)]}
	}
	s, err := schema.New(cols...)
	if err != nil {
		return nil, nil
	}
	ts := make([]tuple.Tuple, in.byte()%8)
	for i := range ts {
		start := chronon.Chronon(int16(binary.LittleEndian.Uint16(in.bytes(2))))
		iv := chronon.NewOngoing(start)
		if e := in.byte(); e%4 != 0 {
			iv = chronon.New(start, start+chronon.Chronon(e))
		}
		vals := make([]value.Value, len(cols))
		for j, c := range cols {
			if in.byte()%4 == 0 {
				vals[j] = value.Null()
				continue
			}
			switch c.Kind {
			case value.KindInt:
				vals[j] = value.Int(int64(binary.LittleEndian.Uint64(in.bytes(8))))
			case value.KindFloat:
				x := math.Float64frombits(binary.LittleEndian.Uint64(in.bytes(8)))
				if math.IsNaN(x) {
					x = math.NaN() // CSV has one NaN literal; payload bits are not data
				}
				vals[j] = value.Float(x)
			case value.KindBool:
				vals[j] = value.Bool(in.byte()%2 == 1)
			case value.KindString:
				vals[j] = value.String_(in.word())
			case value.KindBytes:
				vals[j] = value.Bytes([]byte(in.word()))
			}
		}
		ts[i] = tuple.Tuple{Values: vals, V: iv}
	}
	return s, ts
}
