package serve

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"vtjoin/internal/chronon"
	"vtjoin/internal/cost"
	"vtjoin/internal/csvio"
	"vtjoin/internal/incremental"
	"vtjoin/internal/join"
	"vtjoin/internal/partition"
	"vtjoin/internal/plan2"
	"vtjoin/internal/relation"
	"vtjoin/internal/tuple"
)

// subscription is one open ongoing-relation subscription: a
// materialized incremental view over two catalog relations plus the
// delivery channel its delta rows stream through. The view is the
// subscription's private state — base-relation appends fold into it
// under mu, and the subscriber goroutine owns the HTTP stream.
type subscription struct {
	id          uint64
	key         string // canonical query text
	left, right string // catalog names of the two scanned relations
	release     func() // frees the admission region; called once, by close
	deltas      chan []tuple.Tuple
	done        chan struct{} // closed at teardown; reason is set first
	bindNow     chronon.Chronon
	hasBind     bool

	mu     sync.Mutex // guards view/closed/reason against concurrent folds
	view   *incremental.View
	closed bool
	reason string // trailer verdict: "closed", "draining", "aborted", ...
}

// closeSub tears a subscription down exactly once: marks it closed
// with the given trailer reason, drops the view's backing files,
// releases its buffer-pool reservation and wakes the subscriber
// goroutine. Safe to call from any goroutine and more than once.
func (s *Server) closeSub(sub *subscription, reason string) {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.closed = true
	sub.reason = reason
	_ = sub.view.Close()
	sub.mu.Unlock()
	close(sub.done)
	s.subMu.Lock()
	delete(s.subs, sub.id)
	s.subMu.Unlock()
	sub.release()
	s.smu.Lock()
	s.subsClosed++
	s.smu.Unlock()
}

// snapshotSubs returns the current subscriptions.
func (s *Server) snapshotSubs() []*subscription {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	out := make([]*subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		out = append(out, sub)
	}
	return out
}

// invalidateSubs tears down every subscription depending on the named
// relation — the subscription analogue of plan-cache version
// invalidation. Reloading or dropping a base relation makes the
// materialized view stale (it was built from the old pages), so the
// subscriber gets a terminal verdict instead of silently wrong deltas.
func (s *Server) invalidateSubs(name, reason string) {
	for _, sub := range s.snapshotSubs() {
		if sub.left == name || sub.right == name {
			s.closeSub(sub, reason)
		}
	}
}

// choosePartitioning picks the view's valid-time partitioning with the
// paper's sampling-based planner over the left base relation, falling
// back to the trivial partitioning for empty relations.
func (s *Server) choosePartitioning(rel *relation.Relation, pages int) partition.Partitioning {
	if rel.Tuples() == 0 {
		return partition.Single()
	}
	rc := s.cfg.RandomCost
	if rc == 0 {
		rc = 5
	}
	seed := s.cfg.Seed
	if seed == 0 {
		seed = 1
	}
	buff := pages - 3
	if buff < 1 {
		buff = 1
	}
	plan, _, err := partition.DeterminePartIntervals(rel, partition.PlanConfig{
		BuffSize: buff,
		Weights:  cost.Ratio(rc),
		Rng:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return partition.Single()
	}
	return plan.Partitioning
}

// subscribable validates that a bound plan has the one shape
// subscriptions support — a single valid-time join of two base-
// relation scans — and returns its pieces.
func subscribable(root plan2.Node) (*plan2.JoinNode, *plan2.ScanNode, *plan2.ScanNode, error) {
	jn, ok := root.(*plan2.JoinNode)
	if !ok {
		return nil, nil, nil, fmt.Errorf("subscriptions require the form %q", "scan A | join scan B")
	}
	l, lok := jn.Left.(*plan2.ScanNode)
	r, rok := jn.Right.(*plan2.ScanNode)
	if !lok || !rok {
		return nil, nil, nil, fmt.Errorf("subscriptions join base relations only (no sub-pipelines)")
	}
	if jn.Algorithm != join.AlgorithmPartition {
		return nil, nil, nil, fmt.Errorf("subscriptions maintain the partition algorithm; drop the %q hint", jn.Algorithm)
	}
	if jn.Shards > 1 {
		return nil, nil, nil, fmt.Errorf("subscriptions do not support time-sharding")
	}
	return jn, l, r, nil
}

// bindRow applies the subscription's now-binding to a delivered row,
// reporting skip=true for ongoing rows that have not yet begun at the
// binding chronon.
func (sub *subscription) bindRow(t tuple.Tuple) (tuple.Tuple, bool) {
	if !sub.hasBind {
		return t, false
	}
	iv := t.V.BindNow(sub.bindNow)
	if iv.IsNull() {
		return t, true
	}
	t.V = iv
	return t, false
}

// handleSubscribe registers an ongoing-relation subscription: the body
// (or "q") is a pipeline query of the form "scan A | join scan B"
// (kernel/predicate/memory hints allowed), backed by a materialized
// incremental view charged against the shared buffer pool. The
// response is a long-lived chunked CSV stream: the result header
// immediately, then, for every append folded into either base
// relation, the delta result rows that append produced. The stream
// ends with the standard trailer verdict (X-Vtserve-Status /
// X-Vtserve-Rows) when the client disconnects, the server drains, or a
// catalog change invalidates the view.
//
// "bind_now=<chronon>" rewrites delivered ongoing rows to fixed
// intervals ending at the given evaluation chronon (rows whose ongoing
// validity has not begun by then are withheld); "initial=1" first
// streams the view's initial contents before any deltas.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	text := r.URL.Query().Get("q")
	if text == "" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		text = string(body)
	}
	if strings.TrimSpace(text) == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	var bindNow chronon.Chronon
	hasBind := false
	if bn := r.URL.Query().Get("bind_now"); bn != "" {
		n, err := strconv.ParseInt(bn, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad bind_now %q", bn))
			return
		}
		bindNow, hasBind = chronon.Chronon(n), true
	}
	initial := r.URL.Query().Get("initial") == "1"

	key, root, _, err := s.plan(text)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	jn, ln, rn, err := subscribable(root)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	// Admission: the subscription's view memory is charged against the
	// shared pool for as long as the subscription stays open, exactly
	// like a query's reservation — open views and running queries
	// compete for the same pages.
	if s.draining() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	s.wg.Add(1)
	pages := s.cfg.QueryMemoryPages
	if jn.Memory > pages {
		pages = jn.Memory
	}
	rel, err := s.admit(pages)
	if err != nil {
		s.smu.Lock()
		s.rejects++
		s.smu.Unlock()
		s.wg.Done()
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	release := func() { rel(); s.wg.Done() }

	// Build the materialized view, register the subscription and (for
	// initial=1) snapshot its contents under ONE catalog read-lock
	// acquisition. Appends, loads and drops take the write lock, so
	// holding the read lock across all three steps closes two races:
	// an append folding in after the view was built but before the
	// subscription became visible in s.subs (its rows would be missing
	// from the view and never delivered as a delta), and an append
	// folding in between registration and the snapshot (its rows would
	// be in the snapshot AND queued on sub.deltas — delivered twice).
	// Loads/drops invalidate subscriptions under the same write lock,
	// so a subscription being built here cannot escape invalidation.
	s.catMu.RLock()
	// The plan bound its scans to relation objects before we took the
	// lock; a load/drop in between replaced (and dropped the pages of)
	// those objects, and the view must not be built over dropped pages.
	for _, n := range []*plan2.ScanNode{ln, rn} {
		if cur, lookErr := s.cfg.Catalog.Lookup(n.Name); lookErr != nil || cur != n.Rel {
			s.catMu.RUnlock()
			release()
			httpError(w, http.StatusConflict, fmt.Errorf("relation %q changed while planning; retry", n.Name))
			return
		}
	}
	parting := s.choosePartitioning(ln.Rel, pages)
	view, err := incremental.New(r.Context(), ln.Rel, rn.Rel, incremental.Config{
		Partitioning: parting,
		Predicate:    jn.Mask,
		Kernel:       jn.Kernel,
	})
	if err != nil {
		s.catMu.RUnlock()
		release()
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	s.subMu.Lock()
	s.subSeq++
	sub := &subscription{
		id:   s.subSeq,
		key:  key,
		left: ln.Name, right: rn.Name,
		release: release,
		deltas:  make(chan []tuple.Tuple, 256),
		done:    make(chan struct{}),
		bindNow: bindNow, hasBind: hasBind,
		view: view,
	}
	s.subs[sub.id] = sub
	s.subMu.Unlock()

	var snap []tuple.Tuple
	var snapErr error
	if initial {
		// Drain (which does not hold catMu) may have closed us already;
		// re-check under sub.mu so we never snapshot a closed view.
		sub.mu.Lock()
		if sub.closed {
			snapErr = fmt.Errorf("subscription closed before snapshot")
		} else {
			snap, snapErr = view.Tuples()
		}
		sub.mu.Unlock()
	}
	s.catMu.RUnlock()

	s.smu.Lock()
	s.subsOpened++
	s.smu.Unlock()
	defer s.closeSub(sub, "closed")
	// A drain that snapshotted the map before our registration would
	// miss us; re-check now that we are visible.
	if s.draining() {
		s.closeSub(sub, "draining")
	}
	if snapErr != nil {
		// The stream must not pretend initial=1 delivered the view's
		// contents: end it with an error verdict instead.
		s.closeSub(sub, "error: initial snapshot: "+snapErr.Error())
	}

	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Trailer", "X-Vtserve-Status, X-Vtserve-Rows")
	w.Header().Set("X-Vtserve-Sub-Id", strconv.FormatUint(sub.id, 10))
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	cw := csv.NewWriter(w)
	_ = cw.Write(csvio.FormatHeader(jn.Plan.Output))
	cw.Flush()
	var rows int64
	rec := make([]string, 2+jn.Plan.Output.Len())
	writeBatch := func(batch []tuple.Tuple) {
		for _, t := range batch {
			t, skip := sub.bindRow(t)
			if skip {
				continue
			}
			_ = cw.Write(csvio.FormatRecord(rec, t))
			rows++
		}
		cw.Flush()
		flush()
	}
	if initial && snapErr == nil {
		writeBatch(snap)
	}
	flush()

	for alive := true; alive; {
		select {
		case batch := <-sub.deltas:
			writeBatch(batch)
		case <-sub.done:
			alive = false
		case <-r.Context().Done():
			s.closeSub(sub, "aborted")
		}
	}
	// Deliver folds that raced the teardown so the stream's row count
	// matches what the server accounted.
	for {
		select {
		case batch := <-sub.deltas:
			writeBatch(batch)
			continue
		default:
		}
		break
	}
	sub.mu.Lock()
	reason := sub.reason
	sub.mu.Unlock()
	w.Header().Set("X-Vtserve-Status", reason)
	w.Header().Set("X-Vtserve-Rows", strconv.FormatInt(rows, 10))
}

// appendResult is the /relations/{name}/append response document.
type appendResult struct {
	Appended    int64 `json:"appended"`
	Subscribers int   `json:"subscribers"`
	DeltaRows   int64 `json:"deltaRows"`
}

// handleAppend folds a CSV batch of tuples into the named base
// relation and into every open subscription that scans it; each
// subscriber is streamed the delta result rows its view produced for
// this batch. The response reports the append and total delta
// cardinalities. Appends do not bump the catalog version — the
// relation identity is unchanged — so cached plans and subscriptions
// stay valid.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	name := r.PathValue("name")
	_, ts, err := csvio.ReadTuples(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	ctx := r.Context()

	s.catMu.Lock()
	defer s.catMu.Unlock()
	rel, err := s.cfg.Catalog.Lookup(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	for i, t := range ts {
		if err := t.CheckAgainst(rel.Schema()); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("tuple %d: %w", i, err))
			return
		}
	}
	b := rel.NewBuilder()
	for _, t := range ts {
		if err := b.AppendUnchecked(t); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	if err := b.Flush(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	res := appendResult{Appended: int64(len(ts))}
	for _, sub := range s.snapshotSubs() {
		if sub.left != name && sub.right != name {
			continue
		}
		sub.mu.Lock()
		if sub.closed {
			sub.mu.Unlock()
			continue
		}
		var batch []tuple.Tuple
		var foldErr error
		for _, t := range ts {
			if sub.left == name {
				delta, err := sub.view.InsertLeft(ctx, t)
				if err != nil {
					foldErr = err
					break
				}
				batch = append(batch, delta...)
			}
			if sub.right == name {
				delta, err := sub.view.InsertRight(ctx, t)
				if err != nil {
					foldErr = err
					break
				}
				batch = append(batch, delta...)
			}
		}
		sub.mu.Unlock()
		if foldErr != nil {
			s.closeSub(sub, "error: "+foldErr.Error())
			continue
		}
		res.Subscribers++
		res.DeltaRows += int64(len(batch))
		if len(batch) > 0 {
			// Never block here: we hold the catalog write lock, and a
			// subscriber stuck writing to a slow client would stall
			// every append, query, load and drop behind it. A full
			// channel means the subscriber has fallen 256 batches
			// behind; tear it down rather than wedge the server.
			select {
			case sub.deltas <- batch:
			case <-sub.done:
			default:
				s.closeSub(sub, "overflow")
			}
		}
	}
	s.smu.Lock()
	s.appends++
	s.appendRows += res.Appended
	s.deltaRows += res.DeltaRows
	s.smu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}
