package query

import (
	"strings"
	"testing"
)

// canonicalForms pairs query texts with their canonical forms; the
// query fuzzer is seeded with the inputs.
var canonicalForms = []struct {
	in   string
	want string
}{
	{"scan r", "scan r"},
	{"  SCAN   r  ", "scan r"},
	{"scan r | select key = 3", "scan r | select key = 3"},
	{"scan r|SELECT key=3", "scan r | select key = 3"},
	{"scan r | select key = 3 and vt overlaps [1, 10]",
		"scan r | select key = 3 and vt overlaps [1, 10]"},
	{"scan r | select NOT (a = 1 or b = 2)",
		"scan r | select not (a = 1 or b = 2)"},
	{"scan r | select vt during [beginning, forever]",
		"scan r | select vt during [beginning, forever]"},
	{"scan r | project a , b,c", "scan r | project a, b, c"},
	{"scan r | join scan s", "scan r | join scan s"},
	{"scan r | join (scan s)", "scan r | join scan s"},
	{"scan r | join ( scan s | select k = 1 )",
		"scan r | join (scan s | select k = 1)"},
	// Hint variants: defaults elided, order fixed.
	{"scan r | join scan s using partition kernel sweep on intersects",
		"scan r | join scan s"},
	{"scan r | join scan s kernel scan using sortmerge",
		"scan r | join scan s using sortmerge kernel scan"},
	{"scan r | join scan s memory 64 shards 4 on contains",
		"scan r | join scan s on contains shards 4 memory 64"},
	{"scan r | diff (scan s)", "scan r | diff scan s"},
	{"scan r | aggregate COUNT", "scan r | aggregate count"},
	{"scan r | aggregate sum  pay", "scan r | aggregate sum pay"},
	{"scan r | select name = \"x\\\"y\"", `scan r | select name = "x\"y"`},
	{"scan r | select f > -1.5", "scan r | select f > -1.5"},
	{"scan r # load\n | select ok = true # filter", "scan r | select ok = true"},
	{"(scan r | select a = 1) | join (scan s | select b = 2) using nestedloop",
		"(scan r | select a = 1) | join (scan s | select b = 2) using nestedloop"},
	// Literals keep their kind and value: raw bytes outside the lexer's
	// escape set, integral floats and negative zero.
	{"scan r | select name = \"a\rb\"", "scan r | select name = \"a\rb\""},
	{"scan r | select f = 2.0", "scan r | select f = 2.0"},
	{"scan r | select f = -0.0", "scan r | select f = -0.0"},
}

func TestNormalizeCanonicalForms(t *testing.T) {
	for _, c := range canonicalForms {
		got, err := Normalize(c.in)
		if err != nil {
			t.Errorf("Normalize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonical forms are fixed points.
		again, err := Normalize(got)
		if err != nil {
			t.Errorf("Normalize(%q) (canonical): %v", got, err)
		} else if again != got {
			t.Errorf("canonical form not a fixed point: %q -> %q", got, again)
		}
	}
}

func TestNormalizeCollisions(t *testing.T) {
	// Every variant group must map to one cache key.
	groups := [][]string{
		{
			"scan r | join scan s",
			"SCAN r | JOIN (scan s)",
			"scan r\n  | join scan s using partition",
			"scan r | join scan s kernel sweep",
			"scan r | join scan s using partition kernel sweep on intersects",
		},
		{
			"scan r | select key = 3 and vt overlaps [1, 10]",
			"scan r | SELECT (key = 3) AND (VT OVERLAPS [1, 10])",
			"scan r|select key=3 and vt overlaps [ 1 , 10 ]",
		},
	}
	for _, g := range groups {
		base, err := Normalize(g[0])
		if err != nil {
			t.Fatalf("Normalize(%q): %v", g[0], err)
		}
		for _, v := range g[1:] {
			got, err := Normalize(v)
			if err != nil {
				t.Errorf("Normalize(%q): %v", v, err)
				continue
			}
			if got != base {
				t.Errorf("Normalize(%q) = %q, want collision with %q = %q", v, got, g[0], base)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"", "expected 'scan"},
		{"scan", "relation name"},
		{"scan r |", "expected a stage"},
		{"scan r | frobnicate", "expected a stage"},
		{"scan r | select", "expected a predicate"},
		{"scan r | select key", "comparison operator"},
		{"scan r | select key = ", "expected a literal"},
		{"scan r | select vt near [1, 2]", "after 'vt'"},
		{"scan r | select vt overlaps [9, 2]", "empty interval"},
		{"scan r | select vt overlaps [1 2]", "','"},
		{"scan r | join", "expected 'scan"},
		{"scan r | join scan s using quantum", "unknown algorithm"},
		{"scan r | join scan s kernel turbo", "unknown kernel"},
		{"scan r | join scan s on sometimes", "unknown time predicate"},
		{"scan r | join scan s shards 0", "out of range"},
		{"scan r | join scan s memory 2", "out of range"},
		{"scan r | join scan s using partition using sortmerge", "duplicate"},
		{"scan r | aggregate median", "'count' or 'sum"},
		{"scan r | aggregate sum", "column name"},
		{"scan r | project", "column name"},
		{"scan r extra", "unexpected"},
		{"scan r | select name = \"unterminated", "unterminated string"},
		{"scan r | select a ! b", "'!'"},
		{"(scan r | join (scan s)", "')'"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.in, err, c.wantSub)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("scan r\n | select key ~ 3")
	if err == nil {
		t.Fatal("expected error")
	}
	qe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if qe.Line != 2 {
		t.Errorf("error line = %d, want 2 (%v)", qe.Line, err)
	}
}
