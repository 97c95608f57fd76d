package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vtjoin/internal/chronon"
	"vtjoin/internal/csvio"
	"vtjoin/internal/incremental"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/tuple"
	"vtjoin/internal/value"
)

// subStream is a test client for one /subscribe stream: it holds the
// connection open, reads delta rows as the server delivers them, and
// surfaces the trailer verdict when the stream ends.
type subStream struct {
	t      *testing.T
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
	header string
	lines  []string
}

// openSub subscribes and blocks until the CSV header arrives, which
// the server writes only after the subscription is registered — so a
// successful return means appends from now on will reach this stream.
func openSub(t *testing.T, base, params string) *subStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/subscribe?"+params, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe %q: status %d: %s", params, resp.StatusCode, body)
	}
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadString('\n')
	if err != nil {
		cancel()
		t.Fatalf("reading stream header: %v", err)
	}
	ss := &subStream{t: t, resp: resp, br: br, cancel: cancel, header: header}
	t.Cleanup(ss.abort)
	return ss
}

// readRows blocks until n more delta rows have been delivered.
func (ss *subStream) readRows(n int) {
	ss.t.Helper()
	for i := 0; i < n; i++ {
		line, err := ss.br.ReadString('\n')
		if err != nil {
			ss.t.Fatalf("stream ended after %d of %d expected rows: %v", i, n, err)
		}
		ss.lines = append(ss.lines, line)
	}
}

// finish drains the stream to EOF and returns the trailer verdict and
// the server's delivered-row count.
func (ss *subStream) finish() (status string, rows int) {
	ss.t.Helper()
	for {
		line, err := ss.br.ReadString('\n')
		if line != "" {
			ss.lines = append(ss.lines, line)
		}
		if err != nil {
			break
		}
	}
	io.Copy(io.Discard, ss.resp.Body)
	ss.resp.Body.Close()
	status = ss.resp.Trailer.Get("X-Vtserve-Status")
	rows, _ = strconv.Atoi(ss.resp.Trailer.Get("X-Vtserve-Rows"))
	ss.cancel()
	return status, rows
}

func (ss *subStream) abort() {
	ss.cancel()
	ss.resp.Body.Close()
}

// tuples parses every row delivered so far.
func (ss *subStream) tuples() []tuple.Tuple {
	ss.t.Helper()
	var buf bytes.Buffer
	buf.WriteString(ss.header)
	for _, l := range ss.lines {
		buf.WriteString(l)
	}
	_, ts, err := csvio.ReadTuples(&buf)
	if err != nil {
		ss.t.Fatalf("parsing delivered rows: %v", err)
	}
	return ts
}

func appendCSV(t *testing.T, base, name, body string) appendResult {
	t.Helper()
	resp, err := http.Post(base+"/relations/"+name+"/append", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append to %s: status %d: %s", name, resp.StatusCode, b)
	}
	var res appendResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// subtractRows returns the multiset difference after ∖ before; both
// arguments are sorted in place.
func subtractRows(after, before []tuple.Tuple) []tuple.Tuple {
	sortTuples(after)
	sortTuples(before)
	var out []tuple.Tuple
	i := 0
	for _, t := range after {
		if i < len(before) && t.Equal(before[i]) {
			i++
			continue
		}
		out = append(out, t)
	}
	return out
}

func equalRowSets(t *testing.T, what string, got, want []tuple.Tuple) {
	t.Helper()
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSubscribeStreamsAppendDeltas is the subscription round trip: the
// delta rows streamed for every append must equal the difference
// between from-scratch executions of the same join before and after —
// the server's own batch pipeline is the referee.
func TestSubscribeStreamsAppendDeltas(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const q = "scan r | join scan s"

	before := mustExecute(t, srv, q)
	ss := openSub(t, ts.URL, "q="+url.QueryEscape(q))

	res := appendCSV(t, ts.URL, "r",
		"vs,ve,key:int,a:int\n0,500,3,9001\n100,900,7,9002\n40,60,11,9003\n")
	if res.Appended != 3 || res.Subscribers != 1 {
		t.Fatalf("append result %+v, want 3 appended to 1 subscriber", res)
	}
	after := mustExecute(t, srv, q)
	want := subtractRows(after, before)
	if res.DeltaRows != int64(len(want)) {
		t.Fatalf("append reported %d delta rows, reference gained %d", res.DeltaRows, len(want))
	}
	if len(want) == 0 {
		t.Fatal("test appends joined nothing — keys no longer overlap the base data")
	}
	ss.readRows(len(want))
	equalRowSets(t, "left-append deltas", ss.tuples(), want)

	// Now the other base relation; the stream must keep going.
	before = after
	res = appendCSV(t, ts.URL, "s", "vs,ve,key:int,b:int\n0,999,3,9100\n")
	after = mustExecute(t, srv, q)
	want2 := subtractRows(after, before)
	if res.DeltaRows != int64(len(want2)) || len(want2) == 0 {
		t.Fatalf("right append: %d delta rows, reference gained %d", res.DeltaRows, len(want2))
	}
	ss.readRows(len(want2))
	equalRowSets(t, "both appends", ss.tuples(), append(want, want2...))

	st := srv.Stats()
	if st.SubsOpen != 1 || st.Appends != 2 || st.AppendRows != 4 {
		t.Errorf("stats %+v, want 1 open sub, 2 appends, 4 append rows", st)
	}
	if st.DeltaRows != int64(len(want)+len(want2)) {
		t.Errorf("stats deltaRows = %d, want %d", st.DeltaRows, len(want)+len(want2))
	}

	// Replacing a base relation makes the view stale: the subscriber
	// must get a terminal invalidation verdict, not silent wrong rows.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/relations/r",
		strings.NewReader("vs,ve,key:int,a:int\n0,10,1,1\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	status, rows := ss.finish()
	if status != `invalidated: relation "r" replaced` {
		t.Fatalf("trailer status %q", status)
	}
	if rows != len(want)+len(want2) {
		t.Errorf("trailer rows %d, want %d", rows, len(want)+len(want2))
	}
	st = srv.Stats()
	if st.SubsOpen != 0 || st.SubsClosed != 1 || st.PoolUsed != 0 {
		t.Errorf("after invalidation: %d open, %d closed, %d pool pages — want 0/1/0",
			st.SubsOpen, st.SubsClosed, st.PoolUsed)
	}
}

// TestSubscribeSelfJoin folds an append into both sides of a self-join
// view; the delta must include the new tuple's pairing with itself
// exactly once.
func TestSubscribeSelfJoin(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const q = "scan r | join scan r"

	before := mustExecute(t, srv, q)
	ss := openSub(t, ts.URL, "q="+url.QueryEscape(q))
	res := appendCSV(t, ts.URL, "r", "vs,ve,key:int,a:int\n0,800,5,9200\n")
	after := mustExecute(t, srv, q)
	want := subtractRows(after, before)
	if res.Subscribers != 1 || res.DeltaRows != int64(len(want)) {
		t.Fatalf("append result %+v, reference gained %d", res, len(want))
	}
	ss.readRows(len(want))
	equalRowSets(t, "self-join deltas", ss.tuples(), want)
}

// TestSubscribeFleetDeltas: every subscriber in a fleet of 1 and of 4
// is streamed, per append to either side, exactly the rows the join
// gains by it. The final state does not depend on the fleet size, and
// teardown returns every view's pages to the pool and drops its files.
func TestSubscribeFleetDeltas(t *testing.T) {
	const q = "scan r | join scan s"
	appends := []struct{ rel, body string }{
		{"r", "vs,ve,key:int,a:int\n0,500,3,9001\n100,900,7,9002\n"},
		{"s", "vs,ve,key:int,b:int\n0,999,3,9100\n40,60,11,9101\n"},
		{"r", "vs,ve,key:int,a:int\n20,300,11,9003\n"},
		{"s", "vs,ve,key:int,b:int\n5,700,7,9102\n"},
	}
	fleet := func(n int) []tuple.Tuple {
		srv, d := newTestServer(t, Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		baseline := len(d.LiveFiles())
		subs := make([]*subStream, n)
		for i := range subs {
			subs[i] = openSub(t, ts.URL, "q="+url.QueryEscape(q))
		}
		before := mustExecute(t, srv, q)
		delivered := 0
		for a, ap := range appends {
			res := appendCSV(t, ts.URL, ap.rel, ap.body)
			after := mustExecute(t, srv, q)
			want := subtractRows(after, before)
			if res.Subscribers != n || res.DeltaRows != int64(n*len(want)) {
				t.Fatalf("%d subscribers, append %d: result %+v, reference gained %d rows", n, a, res, len(want))
			}
			for i, ss := range subs {
				ss.lines = nil
				ss.readRows(len(want))
				equalRowSets(t, fmt.Sprintf("%d subscribers: subscriber %d, append %d", n, i, a), ss.tuples(), want)
			}
			delivered += len(want)
			before = after
		}
		if delivered == 0 {
			t.Fatal("test appends joined nothing — keys no longer overlap the base data")
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("%d subscribers: drain: %v", n, err)
		}
		for i, ss := range subs {
			if status, rows := ss.finish(); status != "draining" || rows != delivered {
				t.Fatalf("%d subscribers: subscriber %d ended %q after %d rows, want draining after %d",
					n, i, status, rows, delivered)
			}
		}
		st := srv.Stats()
		if st.PoolUsed != 0 || st.SubsOpen != 0 || st.SubsClosed != int64(n) {
			t.Fatalf("%d subscribers: after teardown %d pool pages, %d open, %d closed — want 0/0/%d",
				n, st.PoolUsed, st.SubsOpen, st.SubsClosed, n)
		}
		if live := len(d.LiveFiles()); live != baseline {
			t.Fatalf("%d subscribers: %d live files after teardown, baseline %d", n, live, baseline)
		}
		return before
	}
	one := fleet(1)
	equalRowSets(t, "final state of 4 subscribers vs 1", fleet(4), one)
}

// TestSubscribeInitialSnapshot: initial=1 streams the view's current
// contents before any deltas, equal to a from-scratch execution.
func TestSubscribeInitialSnapshot(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const q = "scan r | join scan s"

	want := mustExecute(t, srv, q)
	ss := openSub(t, ts.URL, "q="+url.QueryEscape(q)+"&initial=1")
	ss.readRows(len(want))
	equalRowSets(t, "initial snapshot", ss.tuples(), want)
}

// TestSubscribeInitialSnapshotConcurrentAppends races appends against
// subscription establishment. With initial=1 every result row must be
// delivered exactly once: an append folded before the snapshot appears
// only in the snapshot, one folded after only as a delta. A delta lost
// in the build-to-registration window shows up as a stream that never
// reaches the reference cardinality (watchdog abort); a row delivered
// both in the snapshot and as a delta shows up as a multiset mismatch.
func TestSubscribeInitialSnapshotConcurrentAppends(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const q = "scan r | join scan s"

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := (i * 37) % 900
			body := fmt.Sprintf("vs,ve,key:int,a:int\n%d,%d,%d,%d\n", lo, lo+60, i%40, 20000+i)
			resp, err := http.Post(ts.URL+"/relations/r/append", "text/csv", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	ss := openSub(t, ts.URL, "q="+url.QueryEscape(q)+"&initial=1")
	time.Sleep(30 * time.Millisecond) // let appends land after the snapshot too
	close(stop)
	wg.Wait()

	want := mustExecute(t, srv, q)
	timer := time.AfterFunc(20*time.Second, ss.abort)
	defer timer.Stop()
	ss.readRows(len(want))
	equalRowSets(t, "initial snapshot + deltas", ss.tuples(), want)
}

// TestAppendOverflowClosesSlowSubscriber: delta delivery happens under
// the catalog write lock, so a subscriber whose channel is full — a
// client stuck mid-write that stopped draining — must be torn down with
// the overflow verdict rather than block every append, query, load and
// drop behind the lock. The subscription is assembled by hand with a
// one-slot channel and no draining goroutine to make the stall
// deterministic.
func TestAppendOverflowClosesSlowSubscriber(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	lrel, err := srv.Catalog().Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	rrel, err := srv.Catalog().Lookup("s")
	if err != nil {
		t.Fatal(err)
	}
	view, err := incremental.New(context.Background(), lrel, rrel, incremental.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub := &subscription{
		id:   99999,
		left: "r", right: "s",
		release: func() {},
		deltas:  make(chan []tuple.Tuple, 1),
		done:    make(chan struct{}),
		view:    view,
	}
	srv.subMu.Lock()
	srv.subs[sub.id] = sub
	srv.subMu.Unlock()

	// The first delta fills the only slot; the second must not block.
	res := appendCSV(t, ts.URL, "r", "vs,ve,key:int,a:int\n0,500,3,9001\n")
	if res.DeltaRows == 0 {
		t.Fatal("first append produced no delta — key 3 no longer joins the base data")
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/relations/r/append", "text/csv",
			strings.NewReader("vs,ve,key:int,a:int\n0,500,3,9002\n"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("append blocked behind a subscriber that never drains")
	}
	sub.mu.Lock()
	closed, reason := sub.closed, sub.reason
	sub.mu.Unlock()
	if !closed || reason != "overflow" {
		t.Fatalf("slow subscriber closed=%v reason=%q, want overflow teardown", closed, reason)
	}
}

// TestSubscribeBindNow exercises ongoing tuples end to end: a bound
// subscriber sees ongoing result rows rewritten to fixed intervals at
// its evaluation chronon — and rows whose validity has not begun by
// then withheld — while an unbound subscriber on the same relations
// receives the raw ongoing rows with the "now" sentinel.
func TestSubscribeBindNow(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	schL, err := schema.New(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "a", Kind: value.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	schR, err := schema.New(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "b", Kind: value.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	// o2 holds one ongoing tuple valid [0, now]; o1 starts empty.
	o2 := relation.Create(d, schR)
	b := o2.NewBuilder()
	if err := b.Append(tuple.New(chronon.NewOngoing(0), value.Int(1), value.Int(77))); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.Catalog().Register("o1", relation.Create(d, schL))
	srv.Catalog().Register("o2", o2)

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const q = "scan o1 | join scan o2"
	bound := openSub(t, ts.URL, "q="+url.QueryEscape(q)+"&bind_now=500")
	plain := openSub(t, ts.URL, "q="+url.QueryEscape(q))

	// An ongoing append that began before the binding chronon: both
	// subscribers get the row, the bound one with a fixed interval.
	res := appendCSV(t, ts.URL, "o1", "vs,ve,key:int,a:int\n100,now,1,11\n")
	if res.Subscribers != 2 || res.DeltaRows != 2 {
		t.Fatalf("append result %+v, want 2 subscribers x 1 delta row", res)
	}
	bound.readRows(1)
	plain.readRows(1)
	bt := bound.tuples()
	if len(bt) != 1 || !bt[0].V.Equal(iv(100, 500)) {
		t.Fatalf("bound subscriber got %v, want interval [100,500]", bt)
	}
	pt := plain.tuples()
	if len(pt) != 1 || !pt[0].V.IsOngoing() || pt[0].V.Start != 100 {
		t.Fatalf("plain subscriber got %v, want ongoing [100,now]", pt)
	}
	if !strings.Contains(plain.lines[0], ","+csvio.NowSentinel+",") {
		t.Fatalf("ongoing row %q does not carry the %q sentinel", plain.lines[0], csvio.NowSentinel)
	}

	// An ongoing append that begins after the binding chronon: withheld
	// from the bound subscriber, delivered to the unbound one.
	appendCSV(t, ts.URL, "o1", "vs,ve,key:int,a:int\n600,now,1,12\n")
	plain.readRows(1)
	if pt := plain.tuples(); len(pt) != 2 || pt[1].V.Start != 600 {
		t.Fatalf("plain subscriber got %v after second append", pt)
	}

	// Tear down via drop: the bound stream must account exactly one
	// delivered row, proving the future-dated row was withheld (and not
	// merely still buffered).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/relations/o1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	status, rows := bound.finish()
	if status != `invalidated: relation "o1" dropped` || rows != 1 {
		t.Fatalf("bound stream ended %q with %d rows, want invalidated-dropped with 1", status, rows)
	}
	if status, rows := plain.finish(); status != `invalidated: relation "o1" dropped` || rows != 2 {
		t.Fatalf("plain stream ended %q with %d rows, want invalidated-dropped with 2", status, rows)
	}
}

// TestSubscribeClientDisconnectDropsView: a subscriber that vanishes
// mid-stream must not strand its materialized view — backing files are
// dropped and the admission reservation returns to the pool.
func TestSubscribeClientDisconnectDropsView(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	baseline := len(d.LiveFiles())

	ss := openSub(t, ts.URL, "q="+url.QueryEscape("scan r | join scan s"))
	if n := len(d.LiveFiles()); n <= baseline {
		t.Fatalf("open view created no files (%d live, baseline %d)", n, baseline)
	}
	if used := srv.Stats().PoolUsed; used == 0 {
		t.Fatal("open subscription holds no pool reservation")
	}
	ss.abort()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.SubsOpen == 0 && st.PoolUsed == 0 && len(d.LiveFiles()) == baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view not reclaimed after disconnect: %d subs open, %d pool pages, %d files (baseline %d)",
				st.SubsOpen, st.PoolUsed, len(d.LiveFiles()), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.SubsOpened != 1 || st.SubsClosed != 1 {
		t.Errorf("subs opened/closed = %d/%d, want 1/1", st.SubsOpened, st.SubsClosed)
	}
}

// TestSubscribeAdmission: open views are charged against the same
// buffer pool as queries, so a pool exhausted by subscriptions rejects
// new work with a real 503 — and admits it again once the view closes.
func TestSubscribeAdmission(t *testing.T) {
	srv, _ := newTestServer(t, Config{TotalMemoryPages: 100, QueryMemoryPages: 60})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	q := "q=" + url.QueryEscape("scan r | join scan s")

	ss := openSub(t, ts.URL, q)

	resp, err := http.Post(ts.URL+"/subscribe?"+q, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "busy") {
		t.Fatalf("second subscribe: status %d body %q, want 503 busy", resp.StatusCode, body)
	}
	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan r"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query with pool held by view: status %d, want 503", resp.StatusCode)
	}
	if got := srv.Stats().Rejects; got != 2 {
		t.Errorf("rejects = %d, want 2", got)
	}

	ss.abort()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().PoolUsed != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool never drained after subscription closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	openSub(t, ts.URL, q) // admitted again; cleanup aborts it
}

// TestDrainClosesSubscriptions: the SIGTERM path must end every open
// stream with the "draining" verdict, wait for the handlers, and
// reject new subscriptions and appends.
func TestDrainClosesSubscriptions(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ss := openSub(t, ts.URL, "q="+url.QueryEscape("scan r | join scan s"))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with an open subscription: %v", err)
	}
	status, _ := ss.finish()
	if status != "draining" {
		t.Fatalf("trailer status %q, want draining", status)
	}

	resp, err := http.Post(ts.URL+"/subscribe?q="+url.QueryEscape("scan r | join scan s"), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe after drain: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/relations/r/append", "text/csv",
		strings.NewReader("vs,ve,key:int,a:int\n0,5,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("append after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestSubscribeRejectsBadShapes pins the subscribable plan surface.
func TestSubscribeRejectsBadShapes(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	bad := []string{
		"",
		"scan r",
		"scan nosuch | join scan s",
		"scan r | join scan s using sortmerge",
		"scan r | join scan s using nestedloop",
		"scan r | join scan s shards 4",
		"scan r | select key < 5 | join scan s",
	}
	for _, q := range bad {
		resp, err := http.Post(ts.URL+"/subscribe?q="+url.QueryEscape(q), "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("subscribe %q: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/subscribe?bind_now=abc&q="+
		url.QueryEscape("scan r | join scan s"), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad bind_now: status %d, want 400", resp.StatusCode)
	}
}

// TestAppendValidation: appends are atomic with respect to validation
// (a bad batch changes nothing), target relations must exist, and a
// valid append is immediately visible to queries without invalidating
// cached plans — the relation's identity is unchanged.
func TestAppendValidation(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/relations/nosuch/append", "text/csv",
		strings.NewReader("vs,ve,key:int,a:int\n0,5,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("append to missing relation: status %d, want 404", resp.StatusCode)
	}

	count := func() int64 {
		return int64(len(mustExecute(t, srv, "scan r")))
	}
	before := count()

	// A batch whose shape does not match the relation is rejected whole.
	resp, err = http.Post(ts.URL+"/relations/r/append", "text/csv",
		strings.NewReader("vs,ve,key:int\n0,5,1\n1,6,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mis-shaped append: status %d, want 400", resp.StatusCode)
	}
	if got := count(); got != before {
		t.Fatalf("rejected append changed the relation: %d -> %d tuples", before, got)
	}

	inv0 := srv.Cache().Stats().Invalidations
	res := appendCSV(t, ts.URL, "r", "vs,ve,key:int,a:int\n0,5,1,9301\n7,9,2,9302\n")
	if res.Appended != 2 || res.Subscribers != 0 {
		t.Fatalf("append result %+v, want 2 rows, 0 subscribers", res)
	}
	if got := count(); got != before+2 {
		t.Fatalf("append not visible to queries: count %d, want %d", got, before+2)
	}
	if inv := srv.Cache().Stats().Invalidations; inv != inv0 {
		t.Errorf("append invalidated cached plans (%d -> %d); identity is unchanged", inv0, inv)
	}
}

// TestQueryAsOfBindsOngoingRows: the batch /query endpoint's as_of
// parameter mirrors the subscription bind_now — ongoing rows bind to
// the evaluation chronon, not-yet-begun rows are withheld.
func TestQueryAsOfBindsOngoingRows(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	sch, err := schema.New(schema.Column{Name: "city", Kind: value.KindString})
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.Create(d, sch)
	b := rel.NewBuilder()
	for _, tp := range []tuple.Tuple{
		tuple.New(chronon.NewOngoing(10), value.String_("open")),
		tuple.New(chronon.NewOngoing(900), value.String_("future")),
		tuple.New(iv(0, 50), value.String_("fixed")),
	} {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.Catalog().Register("cities", rel)

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/query?as_of=100", "text/plain", strings.NewReader("scan cities"))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := csvio.ReadTuples(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("as_of=100 returned %d rows, want 2 (future row withheld): %v", len(got), got)
	}
	for _, tp := range got {
		switch tp.Values[0].Text() {
		case "open":
			if !tp.V.Equal(iv(10, 100)) {
				t.Errorf("ongoing row bound to %v, want [10,100]", tp.V)
			}
		case "fixed":
			if !tp.V.Equal(iv(0, 50)) {
				t.Errorf("fixed row rewritten to %v", tp.V)
			}
		default:
			t.Errorf("unexpected row %v", tp)
		}
	}
}

// TestJoinOverOngoingRelations pins the batch path the subscriptions
// feed from: a relation containing ongoing ("now") tuples must join
// under every algorithm, identically. The partition algorithm used to
// fail outright here — the equi-depth sampler counted an ongoing
// tuple's ~2^62 covered chronons and tripped its overflow guard — so
// this is the regression test for the boundOngoing clamp.
func TestJoinOverOngoingRelations(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	schL, err := schema.New(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "a", Kind: value.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	schR, err := schema.New(
		schema.Column{Name: "key", Kind: value.KindInt},
		schema.Column{Name: "b", Kind: value.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sch *schema.Schema, ts ...tuple.Tuple) *relation.Relation {
		rel := relation.Create(d, sch)
		b := rel.NewBuilder()
		for _, tp := range ts {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	var lt, rt []tuple.Tuple
	for i := int64(0); i < 60; i++ {
		lt = append(lt, tuple.New(iv(i*3%89, i*3%89+40), value.Int(i%7), value.Int(i)))
		rt = append(rt, tuple.New(iv(i*5%89, i*5%89+40), value.Int(i%7), value.Int(100+i)))
	}
	lt = append(lt, tuple.New(chronon.NewOngoing(10), value.Int(3), value.Int(9001)))
	rt = append(rt, tuple.New(chronon.NewOngoing(5), value.Int(3), value.Int(9002)))
	srv.Catalog().Register("ol", mk(schL, lt...))
	srv.Catalog().Register("or", mk(schR, rt...))

	ref := mustExecute(t, srv, "scan ol | join scan or using nestedloop")
	if len(ref) == 0 {
		t.Fatal("reference join empty")
	}
	ongoing := 0
	for _, tp := range ref {
		if tp.V.IsOngoing() {
			ongoing++
		}
	}
	if ongoing != 1 {
		t.Fatalf("reference join has %d ongoing rows, want 1 (the ongoing x ongoing pair)", ongoing)
	}
	for _, algo := range []string{"partition", "sortmerge"} {
		got := mustExecute(t, srv, "scan ol | join scan or using "+algo+" memory 16")
		equalRowSets(t, algo+" vs nestedloop", got, ref)
	}
}
