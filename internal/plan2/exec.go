package plan2

import (
	"context"
	"fmt"
	"math/rand"

	"vtjoin/internal/aggtree"
	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
	"vtjoin/internal/execctx"
	"vtjoin/internal/join"
	"vtjoin/internal/relation"
	"vtjoin/internal/shard"
	"vtjoin/internal/temporal"
	"vtjoin/internal/trace"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// Config configures one execution of a bound plan.
type Config struct {
	// Ctx cancels the execution cooperatively at page granularity (nil
	// = never cancelled). Aborts surface as *execctx.AbortError.
	Ctx context.Context
	// Disk is the device temporary relations (materialized join inputs,
	// difference results) are created on — the device the catalog's
	// relations live on.
	Disk *disk.Disk
	// MemoryPages is the per-join buffer budget (default 256); a join
	// stage's "memory" hint overrides it for that join.
	MemoryPages int
	// RandomCost weights random against sequential accesses in the
	// partition join's planning (default 5).
	RandomCost float64
	// Seed drives the partition join's sampling (default 1).
	Seed int64
	// Tracer, when non-nil, attributes execution spans (materialize,
	// join, diff, aggregate phases) to the query. The executor is
	// sequential up to the single in-flight join producer, so spans
	// nest correctly.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MemoryPages == 0 {
		c.MemoryPages = 256
	}
	if c.RandomCost == 0 {
		c.RandomCost = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run executes the plan, streaming every result tuple to emit. emit
// must not retain the tuple's Values slice beyond the call unless it
// clones. It returns the number of tuples emitted.
func Run(cfg Config, root Node, emit func(tuple.Tuple) error) (int64, error) {
	it, err := Open(cfg, root)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		t, ok, err := it.Next()
		if err != nil {
			_ = it.Close()
			return n, err
		}
		if !ok {
			break
		}
		if err := emit(t); err != nil {
			_ = it.Close()
			return n, err
		}
		n++
	}
	return n, it.Close()
}

// Open builds the plan's iterator pipeline. The caller must Close the
// iterator — even after a failed or abandoned stream — to release
// producer goroutines and temporary relations.
func Open(cfg Config, root Node) (*Iterator, error) {
	if cfg.Disk == nil {
		return nil, fmt.Errorf("plan2: Config.Disk is nil")
	}
	if root == nil {
		return nil, fmt.Errorf("plan2: nil plan")
	}
	return open(cfg.withDefaults(), root), nil
}

func open(cfg Config, node Node) *Iterator {
	switch n := node.(type) {
	case *ScanNode:
		return scanIter(cfg.Ctx, n.Rel)
	case *SelectNode:
		return filterIter(open(cfg, n.Input), n.Pred)
	case *ProjectNode:
		return projectIter(open(cfg, n.Input), n.Cols)
	case *JoinNode:
		return joinIter(cfg, n)
	case *DiffNode:
		return diffIter(cfg, n)
	case *AggregateNode:
		return aggIter(cfg, n)
	}
	return errIter(fmt.Errorf("plan2: unknown node type %T", node))
}

func projectIter(in *Iterator, cols []int) *Iterator {
	buf := make([]value.Value, len(cols))
	return mapIter(in, func(t tuple.Tuple) tuple.Tuple {
		for i, c := range cols {
			buf[i] = t.Values[c]
		}
		return tuple.Tuple{V: t.V, Values: buf}
	})
}

// materialize evaluates a sub-plan into a relation on cfg.Disk. A bare
// scan returns its base relation directly (temp == false); anything
// else builds a temporary relation the caller must Drop.
func materialize(cfg Config, node Node) (rel *relation.Relation, temp bool, err error) {
	if sc, ok := node.(*ScanNode); ok {
		return sc.Rel, false, nil
	}
	out := relation.Create(cfg.Disk, node.Schema())
	sink := out.NewBuilder()
	it := open(cfg, node)
	for {
		t, ok, nerr := it.Next()
		if nerr != nil {
			err = nerr
			break
		}
		if !ok {
			err = sink.Flush()
			break
		}
		if aerr := sink.Append(t); aerr != nil {
			err = aerr
			break
		}
	}
	if cerr := it.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		_ = out.Drop()
		return nil, false, err
	}
	return out, true, nil
}

// dropTemp returns a closer dropping rel when it is a temporary.
func dropTemp(rel *relation.Relation, temp bool) func() error {
	if !temp {
		return nil
	}
	return rel.Drop
}

// joinIter evaluates a join node: both inputs become relations (base
// relations directly, other sub-plans materialized), then the join
// runs in a producer goroutine streaming result tuples through a
// bounded channel — the pull boundary that lets a join head a lazy
// pipeline. Closing the iterator early cancels the producer, which
// aborts cooperatively and cleans its spill files.
func joinIter(cfg Config, n *JoinNode) *Iterator {
	tr := cfg.Tracer
	tr.Begin("materialize inputs")
	left, ltemp, err := materialize(cfg, n.Left)
	if err != nil {
		tr.End()
		return errIter(err)
	}
	right, rtemp, err := materialize(cfg, n.Right)
	tr.End()
	if err != nil {
		cleanup := closers(dropTemp(left, ltemp))
		_ = cleanup()
		return errIter(err)
	}

	ctx, cancel := context.WithCancel(execctx.Value(cfg.Ctx))
	st := &streamState{
		ch:     make(chan tuple.Tuple, 64),
		errc:   make(chan error, 1),
		cancel: cancel,
		clean:  closers(dropTemp(left, ltemp), dropTemp(right, rtemp)),
	}
	go func() {
		err := func() (err error) {
			defer execctx.RecoverTo("exec: join", &err)
			return dispatchJoin(ctx, cfg, n, left, right, &chanSink{ctx: ctx, ch: st.ch})
		}()
		close(st.ch)
		st.errc <- err
	}()
	return st.iterator()
}

// dispatchJoin drives the existing join machinery for one bound join
// node.
func dispatchJoin(ctx context.Context, cfg Config, n *JoinNode, left, right *relation.Relation, sink relation.Sink) error {
	memory := cfg.MemoryPages
	if n.Memory > 0 {
		memory = n.Memory
	}
	if n.Shards > 1 {
		_, _, err := shard.Join(n.Algorithm, left, right, sink, shard.Config{
			Ctx:           ctx,
			Shards:        n.Shards,
			MemoryPages:   memory,
			Weights:       cost.Ratio(cfg.RandomCost),
			Seed:          cfg.Seed,
			TimePredicate: n.Mask,
			Kernel:        n.Kernel,
			Tracer:        cfg.Tracer,
		})
		return err
	}
	_, err := join.Run(n.Algorithm, left, right, sink, join.Spec{
		Ctx:           ctx,
		MemoryPages:   memory,
		Weights:       cost.Ratio(cfg.RandomCost),
		Rng:           rand.New(rand.NewSource(cfg.Seed)),
		TimePredicate: n.Mask,
		Kernel:        n.Kernel,
		Tracer:        cfg.Tracer,
	})
	return err
}

// chanSink bridges the push-style join sink onto the pull-style
// channel, cloning each tuple (the join owns its buffers) and aborting
// the producer when the consumer is gone.
type chanSink struct {
	ctx context.Context
	ch  chan tuple.Tuple
}

// Append implements relation.Sink.
func (s *chanSink) Append(t tuple.Tuple) error {
	select {
	case s.ch <- t.Clone():
		return nil
	case <-s.ctx.Done():
		return &execctx.AbortError{Op: "exec: emit", Err: s.ctx.Err()}
	}
}

// Flush implements relation.Sink.
func (s *chanSink) Flush() error { return nil }

// streamState is the consumer half of a producer-goroutine stage.
type streamState struct {
	ch       chan tuple.Tuple
	errc     chan error
	cancel   context.CancelFunc
	clean    func() error
	finished bool
	err      error
}

// finish waits for the producer after the channel is drained.
func (st *streamState) finish() {
	if st.finished {
		return
	}
	st.finished = true
	st.err = <-st.errc
}

func (st *streamState) iterator() *Iterator {
	next := func() (tuple.Tuple, bool, error) {
		t, ok := <-st.ch
		if ok {
			return t, true, nil
		}
		st.finish()
		return tuple.Tuple{}, false, st.err
	}
	close := func() error {
		if !st.finished {
			// Abandoned mid-stream: cancel the producer and drain; the
			// induced abort is expected, not an error.
			st.cancel()
			for range st.ch {
			}
			st.finish()
			if execctx.IsAbort(st.err) {
				st.err = nil
			}
		}
		st.cancel()
		var err error
		if st.clean != nil {
			err = st.clean()
			st.clean = nil
		}
		return err
	}
	return &Iterator{next: done(next), close: close}
}

// diffIter evaluates the valid-time difference: both inputs
// materialize (the sweep needs sorted spooling), the difference
// materializes through the existing temporal machinery, and the result
// relation streams out lazily, dropped on Close.
func diffIter(cfg Config, n *DiffNode) *Iterator {
	tr := cfg.Tracer
	tr.Begin("diff")
	defer tr.End()
	left, ltemp, err := materialize(cfg, n.Left)
	if err != nil {
		return errIter(err)
	}
	right, rtemp, err := materialize(cfg, n.Right)
	if err != nil {
		cleanup := closers(dropTemp(left, ltemp))
		_ = cleanup()
		return errIter(err)
	}
	cleanInputs := closers(dropTemp(left, ltemp), dropTemp(right, rtemp))
	out, err := temporal.Difference(left, right)
	if cerr := cleanInputs(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return errIter(err)
	}
	it := scanIter(cfg.Ctx, out)
	return &Iterator{next: it.next, close: closers(it.Close, out.Drop)}
}

// aggIter drains its input into the incremental aggregation tree and
// lazily emits one tuple per maximal interval of constant aggregate
// value — the paper's per-chronon COUNT/SUM shape.
func aggIter(cfg Config, n *AggregateNode) *Iterator {
	tr := cfg.Tracer
	tr.Begin("aggregate")
	defer tr.End()
	in := open(cfg, n.Input)
	var tree aggtree.Tree
	var err error
	for {
		t, ok, nerr := in.Next()
		if nerr != nil {
			err = nerr
			break
		}
		if !ok {
			break
		}
		w := int64(1)
		if n.Op == AggSum {
			v := t.Values[n.Col]
			if v.IsNull() {
				continue // SQL semantics: nulls contribute nothing
			}
			w = v.AsInt()
		}
		tree.Insert(t.V, w)
	}
	if cerr := in.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return errIter(err)
	}
	segs := tree.Segments()
	ts := make([]tuple.Tuple, len(segs))
	for i, s := range segs {
		ts[i] = tuple.New(s.Interval, value.Int(s.Value))
	}
	return sliceIter(ts, nil)
}
