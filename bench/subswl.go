package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vtjoin/internal/csvio"
	"vtjoin/internal/incremental"
	"vtjoin/internal/join"
	"vtjoin/internal/page"
	"vtjoin/internal/partition"
	"vtjoin/internal/relation"
	"vtjoin/internal/schema"
	"vtjoin/internal/serve"
	"vtjoin/internal/tuple"
)

type subsParams struct {
	gen       genSpec
	subs      int // open subscriptions
	viewPages int // per-subscription view reservation
	batch     int // tuples per append
	ops       opCounts
}

const subsQuery = "scan r | join scan s using partition kernel sweep memory 16"

// subs-append: writes beside serve-mix's reads. 32 subscriptions of one
// join stay open over a single HTTP/2 connection while one closed-loop
// appender posts 8-tuple batches, alternating r and s; every append
// takes the server's catalog lock and folds into 32 incremental views.
func newSubsAppend(cfg config) bench {
	p := subsParams{
		gen:       genSpec{tuples: 1024, keys: 32, lifespan: 1_000_000, maxDur: 10_000},
		subs:      32,
		viewPages: 16,
		batch:     8,
		ops:       opCounts{PerEpisode: 60, Warmup: 4, Seconds: 3.8},
	}
	if cfg.tiny {
		p.gen.tuples, p.subs = 128, 4
		p.ops.PerEpisode, p.ops.Warmup = 6, 2
	}
	return &subsBench{cfg: cfg, p: p}
}

type subsBench struct {
	cfg config
	p   subsParams
	tr  *tracer
	// The latest episode's inputs and, from the traced episodes, the
	// pool pages the fleet held, for the per-layer metrics.
	r, s      []tuple.Tuple
	batch     [][]tuple.Tuple
	poolPages int
}

func (b *subsBench) warmEach() bool   { return true }
func (b *subsBench) counts() opCounts { return b.p.ops }

type subscriber struct {
	resp  *http.Response
	lines []string    // delta rows, as CSV lines
	cross []time.Time // per append: when this stream held all its rows
	err   error
}

type subsEpisode struct {
	b *subsBench
	// The appends, generated at set-up, and their reference deltas.
	batch  [][]tuple.Tuple
	bodies [][]byte
	want   []checksum
	plan   *schema.JoinPlan
	srv    *serve.Server
	hs     *httpServer
	client *http.Client
	fleet  []*subscriber
	// targets[a] is the stream's row count once append a is delivered;
	// pending[a] counts the streams still short of it.
	targets   []int
	pending   []atomic.Int32
	delivered chan int
	readers   sync.WaitGroup
	next      int // next append to post
}

func (b *subsBench) setup(tr *tracer, seed int64) (episode, error) {
	b.tr = tr
	b.r, b.s = b.p.gen.pair(seed)
	rng := rand.New(rand.NewSource(seed*7 + 5))
	n := b.p.ops.Warmup + b.p.ops.PerEpisode
	batch, bodies := make([][]tuple.Tuple, n), make([][]byte, n)
	for a := range batch {
		side, sch := int64(a%2+1), slimLeft
		if a%2 == 1 {
			sch = slimRight
		}
		batch[a] = b.p.gen.side(rng, side, b.p.gen.tuples+a*b.p.batch, b.p.batch)
		var buf bytes.Buffer
		if err := csvio.WriteTuples(&buf, sch, batch[a]); err != nil {
			return nil, err
		}
		bodies[a] = buf.Bytes()
	}
	b.batch = batch

	d := newDevice(page.FormatV1)
	srv, err := newQueryServer(d, b.r, b.s, serve.Config{
		TotalMemoryPages: b.p.subs * b.p.viewPages, QueryMemoryPages: b.p.viewPages, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.dev = d
	}
	e := &subsEpisode{b: b, batch: batch, bodies: bodies, srv: srv, hs: hs, client: h2cClient(), delivered: make(chan int, n)}
	if err := e.open(); err != nil {
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// open subscribes the fleet; each stream's CSV header arrives only once
// its view is registered, so every later append reaches all of them.
func (e *subsEpisode) open() error {
	u := e.hs.url + "/subscribe?q=" + url.QueryEscape(subsQuery)
	for i := 0; i < e.b.p.subs; i++ {
		resp, err := e.client.Post(u, "text/plain", nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("subscriber %d: HTTP %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
		}
		e.fleet = append(e.fleet, &subscriber{resp: resp})
	}
	return nil
}

// oracle computes every append's reference delta: the batch joined
// with the other relation as it stands when the batch arrives.
func (e *subsEpisode) oracle() error {
	plan, err := schema.PlanNaturalJoin(slimLeft, slimRight)
	if err != nil {
		return err
	}
	e.plan = plan
	r, s := append([]tuple.Tuple(nil), e.b.r...), append([]tuple.Tuple(nil), e.b.s...)
	e.want = make([]checksum, len(e.batch))
	for a, batch := range e.batch {
		if a%2 == 0 {
			e.want[a].of(join.Reference(plan, batch, s))
			r = append(r, batch...)
		} else {
			e.want[a].of(join.Reference(plan, r, batch))
			s = append(s, batch...)
		}
	}
	return nil
}

// listen starts one reader per stream, each told the row count its
// stream reaches once each append is delivered.
func (e *subsEpisode) listen() {
	want := e.want
	e.targets = make([]int, len(want))
	e.pending = make([]atomic.Int32, len(want))
	total := 0
	for a, w := range want {
		total += int(w.n)
		e.targets[a] = total
		e.pending[a].Store(int32(len(e.fleet)))
	}
	for _, sub := range e.fleet {
		sub.cross = make([]time.Time, len(want))
		e.readers.Add(1)
		go e.read(sub)
	}
}

// read drains one stream, noting when it has received each append's
// rows; the last stream to get there tells the appender.
func (e *subsEpisode) read(sub *subscriber) {
	defer e.readers.Done()
	br := bufio.NewReader(sub.resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // the CSV header
		sub.err = err
		return
	}
	a := 0
	advance := func() {
		for ; a < len(e.targets) && len(sub.lines) >= e.targets[a]; a++ {
			if e.want[a].n > 0 {
				sub.cross[a] = time.Now()
				if e.pending[a].Add(-1) == 0 {
					e.delivered <- a
				}
			}
		}
	}
	advance()
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			sub.lines = append(sub.lines, line)
			advance()
		}
		if err != nil {
			if err != io.EOF {
				sub.err = err
			}
			return
		}
	}
}

// warm starts the readers and posts the warm-up appends; every
// episode warms up, because its appends and oracle assume the same
// prefix.
func (e *subsEpisode) warm() error {
	e.listen()
	for ; e.next < e.b.p.ops.Warmup; e.next++ {
		if _, _, err := e.appendOne(e.next); err != nil {
			return err
		}
	}
	return nil
}

func (e *subsEpisode) measure(rec *recorder) error {
	var lats []time.Duration
	var fails []bool
	c0 := e.srv.Stats().Device
	rec.begin()
	for ; e.next < len(e.batch); e.next++ {
		lat, delivery, err := e.appendOne(e.next)
		if err != nil && delivery < 0 {
			rec.end()
			return err
		}
		lats, fails = append(lats, lat), append(fails, err != nil)
		if delivery > 0 {
			rec.delivery = append(rec.delivery, delivery)
		}
	}
	rec.end()
	rec.io += weights.Of(e.srv.Stats().Device.Sub(c0))
	if e.b.tr != nil {
		e.b.poolPages = e.srv.Stats().PoolUsed
	}

	bad, err := e.verify()
	if err != nil {
		return err
	}
	for i, lat := range lats {
		rec.op(lat, fails[i] || bad[e.b.p.ops.Warmup+i])
	}
	return nil
}

// appendOne posts append a and waits until every subscriber holds its
// delta rows. It returns the append's round trip and the delivery time
// (0 when the append has no delta rows). An error with delivery < 0
// leaves the streams out of step, so the episode cannot continue.
func (e *subsEpisode) appendOne(a int) (lat, delivery time.Duration, err error) {
	name := "r"
	if a%2 == 1 {
		name = "s"
	}
	id := e.b.tr.begin("serve.append", a, -1)
	t0 := time.Now()
	resp, err := e.client.Post(e.hs.url+"/relations/"+name+"/append", "text/csv", bytes.NewReader(e.bodies[a]))
	if err != nil {
		e.b.tr.end(id)
		return 0, -1, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	e.b.tr.end(id)
	if err != nil {
		return lat, -1, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, -1, fmt.Errorf("append %d: HTTP %d: %s", a, resp.StatusCode, bytes.TrimSpace(body))
	}
	var res struct {
		Subscribers int
		DeltaRows   int64
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return lat, -1, fmt.Errorf("append %d: %w", a, err)
	}
	want := e.want[a].n
	if want == 0 {
		return lat, 0, nil
	}
	wait := e.b.tr.begin("serve.delivery", a, -1)
	defer e.b.tr.end(wait)
	select {
	case got := <-e.delivered:
		if got != a {
			return lat, -1, fmt.Errorf("append %d: delivery of append %d arrived instead", a, got)
		}
	case <-time.After(30 * time.Second):
		return lat, -1, fmt.Errorf("append %d: delta rows not delivered within 30s", a)
	}
	var last time.Time
	for _, sub := range e.fleet {
		if sub.cross[a].After(last) {
			last = sub.cross[a]
		}
	}
	delivery = last.Sub(t0)
	if res.Subscribers != len(e.fleet) || res.DeltaRows != want*int64(len(e.fleet)) {
		err = fmt.Errorf("append %d: server folded into %d views producing %d rows, want %d views x %d rows",
			a, res.Subscribers, res.DeltaRows, len(e.fleet), want)
	}
	return lat, delivery, err
}

// verify ends the streams and checks every subscriber's delta rows,
// append by append, against the reference deltas. It returns which
// appends some subscriber received wrongly.
func (e *subsEpisode) verify() ([]bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		return nil, err
	}
	e.readers.Wait()
	header := strings.Join(csvio.FormatHeader(e.plan.Output), ",") + "\n"
	bad := make([]bool, len(e.want))
	for i, sub := range e.fleet {
		if sub.err != nil {
			return nil, fmt.Errorf("subscriber %d stream: %w", i, sub.err)
		}
		if st := sub.resp.Trailer.Get("X-Vtserve-Status"); st != "draining" {
			return nil, fmt.Errorf("subscriber %d ended %q, want draining", i, st)
		}
		_, rows, err := csvio.ReadTuples(strings.NewReader(header + strings.Join(sub.lines, "")))
		if err != nil {
			return nil, fmt.Errorf("subscriber %d rows: %w", i, err)
		}
		if len(rows) != e.targets[len(e.targets)-1] {
			return nil, fmt.Errorf("subscriber %d received %d delta rows, reference has %d", i, len(rows), e.targets[len(e.targets)-1])
		}
		if e.b.cfg.corrupt && i == 0 {
			// One row of the first measured append that has any.
			for a := e.b.p.ops.Warmup; a < len(e.targets); a++ {
				if e.want[a].n > 0 {
					rows[e.targets[a]-1].V.End++
					break
				}
			}
		}
		lo := 0
		for a, hi := range e.targets {
			var got checksum
			bad[a] = bad[a] || got.of(rows[lo:hi]) != e.want[a]
			lo = hi
		}
	}
	return bad, nil
}

func (e *subsEpisode) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.readers.Wait()
	for _, sub := range e.fleet {
		sub.resp.Body.Close()
	}
	e.client.CloseIdleConnections()
	if herr := e.hs.close(); err == nil {
		err = herr
	}
	if st := e.srv.Stats(); st.PoolUsed != 0 && err == nil {
		err = fmt.Errorf("buffer pool unbalanced: %d pages reserved", st.PoolUsed)
	}
	return err
}

// layers reads the traced appends and times one view's build and one
// fold directly, on the workload's inputs.
func (b *subsBench) layers(tr *tracer, m map[string]float64) error {
	d := newDevice(page.FormatV1)
	r, err := relation.FromTuples(d, slimLeft, b.r)
	if err != nil {
		return err
	}
	s, err := relation.FromTuples(d, slimRight, b.s)
	if err != nil {
		return err
	}
	tr.dev = d
	var deltas []float64
	for rep := 0; rep < probeReps; rep++ {
		root := tr.begin("probe.view", -1, -1)
		pp, _, err := partition.DeterminePartIntervals(r, partition.PlanConfig{
			BuffSize: b.p.viewPages - 3, Weights: weights, Rng: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			return err
		}
		id := tr.begin("incremental.build", -1, root)
		view, err := incremental.New(context.Background(), r, s, incremental.Config{Partitioning: pp.Partitioning, Kernel: join.KernelSweep})
		tr.end(id)
		if err != nil {
			return err
		}
		a := b.p.ops.Warmup // the first measured append, which goes to r
		id = tr.begin("incremental.fold", -1, root)
		n := 0
		for _, t := range b.batch[a] {
			delta, ferr := view.InsertLeft(context.Background(), t)
			if ferr != nil {
				err = ferr
				break
			}
			n += len(delta)
		}
		tr.end(id)
		deltas = append(deltas, float64(n))
		if cerr := view.Close(); err == nil {
			err = cerr
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}
	m["incremental.build_ms"] = tr.medianMS("incremental.build")
	m["incremental.fold_ms"] = tr.medianMS("incremental.fold")
	m["incremental.delta_rows"] = median(deltas)
	m["serve.fanout_ms"] = tr.medianMS("serve.append") - m["incremental.fold_ms"]
	m["serve.view_pool_pages"] = float64(b.poolPages)
	m["serve.append_io"] = tr.medianIO("serve.append")
	m["disk.bytes_per_op"] = tr.medianBytes("serve.append")
	return probeEngine(tr, m, engineInputs{ls: slimLeft, rs: slimRight, r: b.r, s: b.s, format: page.FormatV1, memory: b.p.viewPages})
}
