package query

import (
	"errors"
	"math"
	"testing"
)

// FuzzQuery: parsing never panics and fails only with a positioned
// *Error, and a parsed query's canonical form re-parses to a fixpoint
// in which every literal keeps its kind and value.
func FuzzQuery(f *testing.F) {
	for _, c := range canonicalForms {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, text string) {
		pipe, err := Parse(text)
		if err != nil {
			var qe *Error
			if !errors.As(err, &qe) || qe.Line < 1 || qe.Col < 1 {
				t.Fatalf("Parse(%q): %v (%T) is not a positioned *Error", text, err, err)
			}
			return
		}
		canon := pipe.Canonical()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, text, err)
		}
		if c := again.Canonical(); c != canon {
			t.Fatalf("canonical form is not a fixpoint: %q -> %q", canon, c)
		}
		was, now := literals(pipe), literals(again)
		if len(was) != len(now) {
			t.Fatalf("%q: %d literals re-parse as %d", canon, len(was), len(now))
		}
		for i := range was {
			if was[i] != now[i] || math.Signbit(was[i].Float) != math.Signbit(now[i].Float) {
				t.Fatalf("%q: literal %d %#v re-parses as %#v", canon, i, was[i], now[i])
			}
		}
	})
}

// literals lists a pipeline's comparison literals in source order.
func literals(p *Pipeline) []Literal {
	var out []Literal
	var expr func(Expr)
	expr = func(e Expr) {
		switch e := e.(type) {
		case *LogicExpr:
			expr(e.L)
			expr(e.R)
		case *NotExpr:
			expr(e.E)
		case *CompareExpr:
			out = append(out, e.Lit)
		}
	}
	var pipe func(*Pipeline)
	source := func(s Source) {
		if sub, ok := s.(*SubSource); ok {
			pipe(sub.Pipe)
		}
	}
	pipe = func(p *Pipeline) {
		source(p.Source)
		for _, st := range p.Stages {
			switch st := st.(type) {
			case *SelectStage:
				expr(st.Pred)
			case *JoinStage:
				source(st.Right)
			case *DiffStage:
				source(st.Right)
			}
		}
	}
	pipe(p)
	return out
}
