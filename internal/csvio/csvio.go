// Package csvio reads and writes valid-time relations as CSV, the
// interchange format of the cmd/vtjoin and cmd/vtgen tools.
//
// The first record is a header: the literal columns "vs" and "ve"
// (the valid-time start and end chronons) followed by one
// "name:kind" entry per explicit column, e.g.
//
//	vs,ve,name:string,salary:int
//	10,20,alice,70000
//
// Null values (outer-join padding) are written as the sentinel "␀"
// (U+2400 SYMBOL FOR NULL), which round-trips regardless of the
// column's declared kind. A string value made only of k ≥ 1 sentinels
// is written as k+1 of them, so it does not read back as null.
//
// The reader (encoding/csv) drops the '\r' of every "\r\n" it reads,
// inside quoted fields too, so a string value or column name is written
// with one more '\r' before each "\r\n" it contains.
//
// A column name may contain ':'; the kind is the text after the last
// one.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vtjoin/internal/chronon"
	"vtjoin/internal/disk"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// NullSentinel is the CSV representation of a null value.
const NullSentinel = "\u2400"

// NowSentinel is the CSV representation of the open end of an ongoing
// interval (chronon.Now): a "ve" field of "now" marks a tuple whose
// validity extends to the ever-advancing current time.
const NowSentinel = "now"

// FormatHeader renders the header record for a schema.
func FormatHeader(s *schema.Schema) []string {
	out := []string{"vs", "ve"}
	for _, c := range s.Columns() {
		out = append(out, keepCRLF(c.Name)+":"+c.Kind.String())
	}
	return out
}

// ParseHeader parses a header record into a schema.
func ParseHeader(rec []string) (*schema.Schema, error) {
	if len(rec) < 2 || rec[0] != "vs" || rec[1] != "ve" {
		return nil, fmt.Errorf("csvio: header must start with vs,ve; got %v", rec)
	}
	var cols []schema.Column
	for _, f := range rec[2:] {
		i := strings.LastIndexByte(f, ':')
		if i < 0 {
			return nil, fmt.Errorf("csvio: header column %q is not name:kind", f)
		}
		k, err := value.ParseKind(f[i+1:])
		if err != nil {
			return nil, fmt.Errorf("csvio: header column %q: %w", f, err)
		}
		cols = append(cols, schema.Column{Name: f[:i], Kind: k})
	}
	return schema.New(cols...)
}

// Write streams the relation to w as CSV (a counted sequential scan).
func Write(w io.Writer, r *relation.Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(FormatHeader(r.Schema())); err != nil {
		return err
	}
	rec := make([]string, 2+r.Schema().Len())
	sc := r.Scan()
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := cw.Write(formatRecord(rec, t)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTuples writes an in-memory tuple slice as a CSV relation.
func WriteTuples(w io.Writer, s *schema.Schema, ts []tuple.Tuple) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(FormatHeader(s)); err != nil {
		return err
	}
	rec := make([]string, 2+s.Len())
	for _, t := range ts {
		if err := cw.Write(formatRecord(rec, t)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatRecord renders t's fields into rec, which must have
// 2+len(t.Values) entries: vs, ve (the NowSentinel for ongoing
// intervals), then the column values. It returns rec for convenience;
// streaming writers (the query server) reuse one record across rows.
func FormatRecord(rec []string, t tuple.Tuple) []string {
	return formatRecord(rec, t)
}

func formatRecord(rec []string, t tuple.Tuple) []string {
	rec[0] = strconv.FormatInt(int64(t.V.Start), 10)
	if t.V.IsOngoing() {
		rec[1] = NowSentinel
	} else {
		rec[1] = strconv.FormatInt(int64(t.V.End), 10)
	}
	for i, v := range t.Values {
		switch {
		case v.IsNull():
			rec[2+i] = NullSentinel
		case v.Kind() == value.KindString && sentinelRun(v.AsString()):
			rec[2+i] = v.AsString() + NullSentinel
		case v.Kind() == value.KindString:
			rec[2+i] = keepCRLF(v.AsString())
		default:
			rec[2+i] = v.Text()
		}
	}
	return rec
}

// keepCRLF doubles the '\r' of every "\r\n" in s, which the reader
// turns back into s.
func keepCRLF(s string) string {
	if !strings.Contains(s, "\r\n") {
		return s
	}
	return strings.ReplaceAll(s, "\r\n", "\r\r\n")
}

// sentinelRun reports whether s is k ≥ 1 copies of NullSentinel.
func sentinelRun(s string) bool {
	if s == "" {
		return false
	}
	for ; s != ""; s = s[len(NullSentinel):] {
		if !strings.HasPrefix(s, NullSentinel) {
			return false
		}
	}
	return true
}

// Read loads a CSV relation onto d.
func Read(rd io.Reader, d *disk.Disk) (*relation.Relation, error) {
	s, ts, err := ReadTuples(rd)
	if err != nil {
		return nil, err
	}
	return relation.FromTuples(d, s, ts)
}

// ReadTuples parses a CSV relation into its schema and tuples without
// touching storage.
func ReadTuples(rd io.Reader) (*schema.Schema, []tuple.Tuple, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // validated manually with line numbers
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	s, err := ParseHeader(header)
	if err != nil {
		return nil, nil, err
	}
	var out []tuple.Tuple
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("csvio: line %d: %w", line+1, err)
		}
		line++
		if len(rec) != 2+s.Len() {
			return nil, nil, fmt.Errorf("csvio: line %d: %d fields, want %d", line, len(rec), 2+s.Len())
		}
		vs, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("csvio: line %d: vs: %w", line, err)
		}
		var iv chronon.Interval
		if rec[1] == NowSentinel {
			iv, err = chronon.NewOngoingChecked(chronon.Chronon(vs))
			if err != nil {
				return nil, nil, fmt.Errorf("csvio: line %d: %w", line, err)
			}
		} else {
			ve, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("csvio: line %d: ve: %w", line, err)
			}
			iv, err = chronon.NewChecked(chronon.Chronon(vs), chronon.Chronon(ve))
			if err != nil {
				return nil, nil, fmt.Errorf("csvio: line %d: %w", line, err)
			}
		}
		vals := make([]value.Value, s.Len())
		for i := 0; i < s.Len(); i++ {
			f := rec[2+i]
			if f == NullSentinel {
				vals[i] = value.Null()
				continue
			}
			if s.Column(i).Kind == value.KindString && sentinelRun(f) {
				f = f[len(NullSentinel):]
			}
			v, err := value.Parse(s.Column(i).Kind, f)
			if err != nil {
				return nil, nil, fmt.Errorf("csvio: line %d column %q: %w", line, s.Column(i).Name, err)
			}
			vals[i] = v
		}
		t := tuple.Tuple{Values: vals, V: iv}
		if err := t.CheckAgainst(s); err != nil {
			return nil, nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		out = append(out, t)
	}
	return s, out, nil
}
