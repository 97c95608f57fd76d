// Package plan2 is the logical-plan layer of the query service: it
// binds a parsed query (internal/query) against a catalog of named
// relations into a typed operator DAG, and executes the DAG with a
// streaming pull-based iterator executor over the existing join,
// temporal and aggregation machinery.
//
// Binding resolves every name and type up front — unknown relations,
// unknown columns, literal/column kind mismatches and schema
// incompatibilities all fail before any I/O happens — so a bound plan
// can be cached and re-executed. Plans are immutable after Bind:
// executing one never mutates the DAG, which is what makes the plan
// cache safe under concurrent hits.
package plan2

import (
	"fmt"

	"vtjoin/internal/chronon"
	"vtjoin/internal/join"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/value"
)

// Catalog resolves relation names at bind time.
type Catalog interface {
	// Lookup returns the named relation, or an error when it does not
	// exist.
	Lookup(name string) (*relation.Relation, error)
}

// AggOp selects a per-chronon aggregate.
type AggOp int

// The supported aggregates.
const (
	AggCount AggOp = iota
	AggSum
)

// Node is one operator of the bound plan DAG. Implementations are
// immutable after Bind.
type Node interface {
	// Schema is the operator's output schema.
	Schema() *schema.Schema
	// Inputs returns the operator's children (shared scans make the
	// plan a DAG, not a tree).
	Inputs() []Node
}

// ScanNode reads a base relation sequentially.
type ScanNode struct {
	Name string
	Rel  *relation.Relation
}

// Schema implements Node.
func (n *ScanNode) Schema() *schema.Schema { return n.Rel.Schema() }

// Inputs implements Node.
func (n *ScanNode) Inputs() []Node { return nil }

// SelectNode filters its input by a typed predicate.
type SelectNode struct {
	Input Node
	Pred  Pred
}

// Schema implements Node.
func (n *SelectNode) Schema() *schema.Schema { return n.Input.Schema() }

// Inputs implements Node.
func (n *SelectNode) Inputs() []Node { return []Node{n.Input} }

// ProjectNode keeps the columns at the given input indices, in order.
// Projection is row-wise (timestamps pass through untouched); unlike
// the temporal-normalization Project of internal/temporal it does not
// coalesce, so it streams.
type ProjectNode struct {
	Input Node
	Cols  []int
	out   *schema.Schema
}

// Schema implements Node.
func (n *ProjectNode) Schema() *schema.Schema { return n.out }

// Inputs implements Node.
func (n *ProjectNode) Inputs() []Node { return []Node{n.Input} }

// JoinNode is the valid-time natural join of its two inputs (inner
// semantics; tuples match when they agree on all shared columns and
// their intervals satisfy Mask).
type JoinNode struct {
	Left, Right Node
	Plan        *schema.JoinPlan
	Algorithm   join.Algorithm
	Kernel      join.Kernel
	Mask        chronon.Mask
	// Shards > 1 time-shards the join across private devices.
	Shards int
	// Memory overrides the executor's per-join buffer budget (0 =
	// inherit).
	Memory int
}

// Schema implements Node.
func (n *JoinNode) Schema() *schema.Schema { return n.Plan.Output }

// Inputs implements Node.
func (n *JoinNode) Inputs() []Node { return []Node{n.Left, n.Right} }

// DiffNode is the valid-time difference Left −V Right; both inputs
// must share a schema.
type DiffNode struct {
	Left, Right Node
}

// Schema implements Node.
func (n *DiffNode) Schema() *schema.Schema { return n.Left.Schema() }

// Inputs implements Node.
func (n *DiffNode) Inputs() []Node { return []Node{n.Left, n.Right} }

// AggregateNode computes a per-chronon aggregate over its input on the
// incremental aggregation tree: one output tuple per maximal interval
// of constant aggregate value.
type AggregateNode struct {
	Input Node
	Op    AggOp
	Col   int // summed column index (AggSum only)
	out   *schema.Schema
}

// Schema implements Node.
func (n *AggregateNode) Schema() *schema.Schema { return n.out }

// Inputs implements Node.
func (n *AggregateNode) Inputs() []Node { return []Node{n.Input} }

// BaseRelations records every base relation the plan reads into out,
// keyed by catalog name — the dependency set the plan cache validates
// before reusing a cached plan.
func BaseRelations(n Node, out map[string]*relation.Relation) {
	if sc, ok := n.(*ScanNode); ok {
		out[sc.Name] = sc.Rel
	}
	for _, in := range n.Inputs() {
		BaseRelations(in, out)
	}
}

// binder carries bind state: scans of the same relation resolve to one
// shared node, so the bound plan is a genuine DAG.
type binder struct {
	cat   Catalog
	scans map[string]*ScanNode
}

// Bind resolves and types a parsed pipeline against the catalog,
// returning the root of the bound plan DAG.
func Bind(pipe *query.Pipeline, cat Catalog) (Node, error) {
	b := &binder{cat: cat, scans: make(map[string]*ScanNode)}
	return b.pipeline(pipe)
}

func (b *binder) pipeline(pipe *query.Pipeline) (Node, error) {
	node, err := b.source(pipe.Source)
	if err != nil {
		return nil, err
	}
	for _, st := range pipe.Stages {
		node, err = b.stage(node, st)
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (b *binder) source(src query.Source) (Node, error) {
	switch s := src.(type) {
	case *query.ScanSource:
		if n, ok := b.scans[s.Relation]; ok {
			return n, nil
		}
		rel, err := b.cat.Lookup(s.Relation)
		if err != nil {
			return nil, &query.Error{Line: s.Line, Col: s.Col, Msg: err.Error()}
		}
		n := &ScanNode{Name: s.Relation, Rel: rel}
		b.scans[s.Relation] = n
		return n, nil
	case *query.SubSource:
		return b.pipeline(s.Pipe)
	}
	return nil, fmt.Errorf("plan2: unknown source type %T", src)
}

func (b *binder) stage(input Node, st query.Stage) (Node, error) {
	switch s := st.(type) {
	case *query.SelectStage:
		pred, err := bindPred(s.Pred, input.Schema())
		if err != nil {
			return nil, err
		}
		return &SelectNode{Input: input, Pred: pred}, nil

	case *query.ProjectStage:
		in := input.Schema()
		idx := make([]int, 0, len(s.Columns))
		cols := make([]schema.Column, 0, len(s.Columns))
		for _, name := range s.Columns {
			i := in.Index(name)
			if i < 0 {
				return nil, &query.Error{Line: s.Line, Col: s.Col,
					Msg: fmt.Sprintf("project: no column %q in %v", name, in)}
			}
			idx = append(idx, i)
			cols = append(cols, in.Column(i))
		}
		out, err := schema.New(cols...)
		if err != nil {
			return nil, &query.Error{Line: s.Line, Col: s.Col, Msg: "project: " + err.Error()}
		}
		return &ProjectNode{Input: input, Cols: idx, out: out}, nil

	case *query.JoinStage:
		right, err := b.source(s.Right)
		if err != nil {
			return nil, err
		}
		plan, err := schema.PlanNaturalJoin(input.Schema(), right.Schema())
		if err != nil {
			return nil, &query.Error{Line: s.Line, Col: s.Col, Msg: "join: " + err.Error()}
		}
		n := &JoinNode{
			Left: input, Right: right, Plan: plan,
			Kernel: join.KernelSweep,
			Mask:   chronon.MaskIntersects,
			Shards: s.Hints.Shards,
			Memory: s.Hints.Memory,
		}
		if s.Hints.Algorithm != "" {
			if n.Algorithm, err = join.ParseAlgorithm(s.Hints.Algorithm); err != nil {
				return nil, &query.Error{Line: s.Line, Col: s.Col, Msg: err.Error()}
			}
		}
		if s.Hints.Kernel == "scan" {
			n.Kernel = join.KernelScan
		}
		switch s.Hints.Predicate {
		case "", "intersects":
			n.Mask = chronon.MaskIntersects
		case "contains":
			n.Mask = chronon.MaskContains
		case "containedin":
			n.Mask = chronon.MaskContainedIn
		case "equal":
			n.Mask = chronon.MaskEqual
		default:
			return nil, &query.Error{Line: s.Line, Col: s.Col,
				Msg: fmt.Sprintf("join: unknown time predicate %q", s.Hints.Predicate)}
		}
		return n, nil

	case *query.DiffStage:
		right, err := b.source(s.Right)
		if err != nil {
			return nil, err
		}
		if !input.Schema().Equal(right.Schema()) {
			return nil, &query.Error{Line: s.Line, Col: s.Col,
				Msg: fmt.Sprintf("diff: schemas differ: %v vs %v", input.Schema(), right.Schema())}
		}
		return &DiffNode{Left: input, Right: right}, nil

	case *query.AggregateStage:
		switch s.Op {
		case "count":
			out, err := schema.New(schema.Column{Name: "count", Kind: value.KindInt})
			if err != nil {
				return nil, err
			}
			return &AggregateNode{Input: input, Op: AggCount, out: out}, nil
		case "sum":
			in := input.Schema()
			i := in.Index(s.Column)
			if i < 0 {
				return nil, &query.Error{Line: s.Line, Col: s.Col,
					Msg: fmt.Sprintf("aggregate: no column %q in %v", s.Column, in)}
			}
			if k := in.Column(i).Kind; k != value.KindInt {
				return nil, &query.Error{Line: s.Line, Col: s.Col,
					Msg: fmt.Sprintf("aggregate: sum over %v column %q (want int)", k, s.Column)}
			}
			out, err := schema.New(schema.Column{Name: "sum", Kind: value.KindInt})
			if err != nil {
				return nil, err
			}
			return &AggregateNode{Input: input, Op: AggSum, Col: i, out: out}, nil
		}
		return nil, &query.Error{Line: s.Line, Col: s.Col,
			Msg: fmt.Sprintf("aggregate: unknown op %q", s.Op)}
	}
	return nil, fmt.Errorf("plan2: unknown stage type %T", st)
}
