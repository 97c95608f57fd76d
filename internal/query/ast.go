package query

import (
	"strconv"
	"strings"

	"vtjoin/internal/chronon"
)

// Pipeline is a parsed query: a source followed by stages. It is the
// AST root the planner binds.
type Pipeline struct {
	Source Source
	Stages []Stage
}

// Source produces tuples: a base-relation scan or a parenthesized
// sub-pipeline.
type Source interface{ canonSource(b *strings.Builder) }

// ScanSource reads a named base relation.
type ScanSource struct {
	Relation string
	// Pos locates the relation name, for bind-time errors.
	Line, Col int
}

// SubSource is a parenthesized sub-pipeline.
type SubSource struct{ Pipe *Pipeline }

// Stage is one '|'-separated operator application.
type Stage interface{ canonStage(b *strings.Builder) }

// SelectStage filters tuples by a predicate.
type SelectStage struct{ Pred Expr }

// ProjectStage keeps the named columns, in order, coalescing the
// result (valid-time projection).
type ProjectStage struct {
	Columns   []string
	Line, Col int
}

// JoinStage is the valid-time natural join against another source,
// with optional evaluation hints.
type JoinStage struct {
	Right     Source
	Hints     Hints
	Line, Col int
}

// DiffStage is the valid-time difference against another source.
type DiffStage struct {
	Right     Source
	Line, Col int
}

// AggregateStage is per-chronon aggregation: "count" or "sum <col>",
// one result tuple per maximal interval of constant value.
type AggregateStage struct {
	Op        string // "count" or "sum"
	Column    string // sum only
	Line, Col int
}

// Hints are a join stage's optional evaluation knobs. Zero values mean
// "use the default" and are elided from the canonical form, so a query
// spelling a default explicitly normalizes to the same cache key as
// one omitting it.
type Hints struct {
	Algorithm string // "partition" (default), "sortmerge", "nestedloop"
	Kernel    string // "sweep" (default), "scan"
	Predicate string // "intersects" (default), "contains", "containedin", "equal"
	Shards    int    // > 1 time-shards the join
	Memory    int    // per-join buffer pages override
}

// Expr is a selection predicate.
type Expr interface {
	// canonExpr renders the canonical form; prec is the enclosing
	// precedence (or=1, and=2, not=3) deciding parenthesization.
	canonExpr(b *strings.Builder, prec int)
}

// LogicExpr combines two predicates with "and" or "or".
type LogicExpr struct {
	Op   string // "and" or "or"
	L, R Expr
}

// NotExpr negates a predicate.
type NotExpr struct{ E Expr }

// CompareExpr compares a column against a literal.
type CompareExpr struct {
	Column    string
	Op        string // "=", "!=", "<", "<=", ">", ">="
	Lit       Literal
	Line, Col int
}

// TimeExpr constrains the tuple's valid-time interval against a
// literal interval: overlaps, contains (tuple ⊇ literal), during
// (tuple ⊆ literal), or equals.
type TimeExpr struct {
	Op        string // "overlaps", "contains", "during", "equals"
	Ivl       chronon.Interval
	Line, Col int
}

// LitKind tags a literal.
type LitKind int

// The literal kinds.
const (
	LitInt LitKind = iota
	LitFloat
	LitString
	LitBool
	LitNull
)

// Literal is an untyped literal value; the planner types it against
// the column it is compared to.
type Literal struct {
	Kind  LitKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

func (l Literal) canon(b *strings.Builder) {
	switch l.Kind {
	case LitInt:
		b.WriteString(strconv.FormatInt(l.Int, 10))
	case LitFloat:
		// 'g' drops the point from integral values ("2", "-0"), which
		// would re-lex as ints; keep them floats.
		f := strconv.FormatFloat(l.Float, 'g', -1, 64)
		b.WriteString(f)
		if !strings.ContainsAny(f, ".e") {
			b.WriteString(".0")
		}
	case LitString:
		// Escape exactly what the lexer unescapes; every other byte
		// stands for itself inside the quotes.
		b.WriteByte('"')
		for i := 0; i < len(l.Str); i++ {
			switch c := l.Str[i]; c {
			case '"', '\\':
				b.WriteByte('\\')
				b.WriteByte(c)
			case '\n':
				b.WriteString(`\n`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	case LitBool:
		b.WriteString(strconv.FormatBool(l.Bool))
	case LitNull:
		b.WriteString("null")
	}
}

// String renders the literal canonically.
func (l Literal) String() string {
	var b strings.Builder
	l.canon(&b)
	return b.String()
}

// Canonical renders the pipeline in canonical form: lower-case
// keywords, single spaces, hints in fixed order with defaults elided,
// minimal parentheses. Two queries with equal canonical forms are the
// same query; the plan cache keys on this string.
func (p *Pipeline) Canonical() string {
	var b strings.Builder
	p.canon(&b)
	return b.String()
}

func (p *Pipeline) canon(b *strings.Builder) {
	p.Source.canonSource(b)
	for _, st := range p.Stages {
		b.WriteString(" | ")
		st.canonStage(b)
	}
}

func (s *ScanSource) canonSource(b *strings.Builder) {
	b.WriteString("scan ")
	b.WriteString(s.Relation)
}

func (s *SubSource) canonSource(b *strings.Builder) {
	// A sub-pipeline that is a bare scan needs no parentheses; render
	// it as the scan itself so "(scan x)" and "scan x" collide.
	if len(s.Pipe.Stages) == 0 {
		if sc, ok := s.Pipe.Source.(*ScanSource); ok {
			sc.canonSource(b)
			return
		}
		s.Pipe.Source.canonSource(b)
		return
	}
	b.WriteByte('(')
	s.Pipe.canon(b)
	b.WriteByte(')')
}

func (s *SelectStage) canonStage(b *strings.Builder) {
	b.WriteString("select ")
	s.Pred.canonExpr(b, 0)
}

func (s *ProjectStage) canonStage(b *strings.Builder) {
	b.WriteString("project ")
	b.WriteString(strings.Join(s.Columns, ", "))
}

func (s *JoinStage) canonStage(b *strings.Builder) {
	b.WriteString("join ")
	s.Right.canonSource(b)
	if s.Hints.Algorithm != "" && s.Hints.Algorithm != "partition" {
		b.WriteString(" using ")
		b.WriteString(s.Hints.Algorithm)
	}
	if s.Hints.Kernel != "" && s.Hints.Kernel != "sweep" {
		b.WriteString(" kernel ")
		b.WriteString(s.Hints.Kernel)
	}
	if s.Hints.Predicate != "" && s.Hints.Predicate != "intersects" {
		b.WriteString(" on ")
		b.WriteString(s.Hints.Predicate)
	}
	if s.Hints.Shards > 1 {
		b.WriteString(" shards ")
		b.WriteString(strconv.Itoa(s.Hints.Shards))
	}
	if s.Hints.Memory > 0 {
		b.WriteString(" memory ")
		b.WriteString(strconv.Itoa(s.Hints.Memory))
	}
}

func (s *DiffStage) canonStage(b *strings.Builder) {
	b.WriteString("diff ")
	s.Right.canonSource(b)
}

func (s *AggregateStage) canonStage(b *strings.Builder) {
	b.WriteString("aggregate ")
	b.WriteString(s.Op)
	if s.Op == "sum" {
		b.WriteByte(' ')
		b.WriteString(s.Column)
	}
}

func (e *LogicExpr) canonExpr(b *strings.Builder, prec int) {
	self := 1 // or
	if e.Op == "and" {
		self = 2
	}
	if self < prec {
		b.WriteByte('(')
	}
	e.L.canonExpr(b, self)
	b.WriteByte(' ')
	b.WriteString(e.Op)
	b.WriteByte(' ')
	// Right child at self+1: chains re-associate left, so "a and b and
	// c" parses and renders identically regardless of author grouping.
	e.R.canonExpr(b, self+1)
	if self < prec {
		b.WriteByte(')')
	}
}

func (e *NotExpr) canonExpr(b *strings.Builder, prec int) {
	b.WriteString("not ")
	e.E.canonExpr(b, 3)
}

func (e *CompareExpr) canonExpr(b *strings.Builder, prec int) {
	b.WriteString(e.Column)
	b.WriteByte(' ')
	b.WriteString(e.Op)
	b.WriteByte(' ')
	e.Lit.canon(b)
}

func (e *TimeExpr) canonExpr(b *strings.Builder, prec int) {
	b.WriteString("vt ")
	b.WriteString(e.Op)
	b.WriteString(" [")
	writeChronon(b, e.Ivl.Start)
	b.WriteString(", ")
	writeChronon(b, e.Ivl.End)
	b.WriteByte(']')
}

func writeChronon(b *strings.Builder, c chronon.Chronon) {
	switch c {
	case chronon.Beginning:
		b.WriteString("beginning")
	case chronon.Forever:
		b.WriteString("forever")
	case chronon.Now:
		b.WriteString("now")
	default:
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
}
