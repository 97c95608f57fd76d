package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"vtjoin/internal/csvio"
	"vtjoin/internal/disk"
	"vtjoin/internal/page"
	"vtjoin/internal/plan2"
	"vtjoin/internal/query"
	"vtjoin/internal/relation"
	"vtjoin/internal/serve"
	"vtjoin/internal/tuple"
)

type serveParams struct {
	gen      genSpec
	pool     int // server buffer pool, pages
	qpages   int // per-query reservation, pages
	cache    int // plan cache entries
	literals int // distinct literals of the select-join
	rate     float64
	openOps  int // open-loop requests per episode, at rate
	capOps   int // closed-loop capacity requests per episode
	ops      opCounts
}

// serve-mix: reads against /query. The engine inputs are small (2,048
// tuples a side), so the query language, the planner, the server, its
// plan cache and CSV carry the work; a select-join literal drawn from
// 128 values keeps the distinct texts above the 32-entry plan cache.
func newServeMix(cfg config) bench {
	p := serveParams{
		gen:      genSpec{tuples: 2048, keys: 32, lifespan: 1_000_000, maxDur: 10_000},
		pool:     32,
		qpages:   16,
		cache:    32,
		literals: 128,
		rate:     serveRate,
		openOps:  int(serveRate * 5),
		capOps:   240,
		ops:      opCounts{Warmup: 64, Seconds: 6.2},
	}
	if cfg.tiny {
		p.gen.tuples, p.literals = 256, 8
		p.rate, p.openOps, p.capOps, p.ops.Warmup = 400, 24, 12, 8
	}
	p.ops.PerEpisode = p.openOps + p.capOps
	return &serveBench{cfg: cfg, p: p}
}

// serveRate is the open loop's fixed request rate, about a quarter of
// the 160-240 requests/s two closed-loop sessions reached on a 2-core
// x86-64 host. At half that capacity, queueing amplified the host's
// speed drift into 30 % run-to-run swings of the open-loop latency.
// serveLimit is the open loop's latency limit.
const (
	serveRate  = 50.0
	serveLimit = 50 * time.Millisecond
)

type serveBench struct {
	cfg   config
	p     serveParams
	texts []string      // the latest episode's distinct query texts
	r, s  []tuple.Tuple // and inputs, for the layer probes
	tr    *tracer
	// Filled by the traced episodes for the per-layer metrics.
	hits, misses, rejects int64
}

func (b *serveBench) warmEach() bool   { return true }
func (b *serveBench) counts() opCounts { return b.p.ops }

// mix returns the distinct query texts and the request sequence of six
// entries in equal shares: a join under each algorithm with either
// kernel, a difference, an aggregate and a select-join whose time
// window is drawn from p.literals values.
func (p serveParams) mix(seed int64) ([]string, []int) {
	var texts []string
	for _, algo := range []string{"partition", "sortmerge", "nestedloop"} {
		for _, kernel := range []string{"sweep", "scan"} {
			texts = append(texts, fmt.Sprintf("scan r | join scan s using %s kernel %s memory 16", algo, kernel))
		}
	}
	texts = append(texts,
		"scan r | diff (scan r | select key < 8)",
		"scan r | join scan s using sortmerge memory 16 | aggregate count")
	step, width := p.gen.lifespan/int64(p.literals), p.gen.lifespan/8
	for l := 0; l < p.literals; l++ {
		lo := int64(l) * step
		texts = append(texts, fmt.Sprintf(
			"scan r | select vt overlaps [%d, %d] | join (scan s | select vt overlaps [%d, %d]) using partition memory 16",
			lo, lo+width, lo, lo+width))
	}
	// Every run of six requests holds each entry once, in random order,
	// so the mix's proportions are the same in every episode.
	rng := rand.New(rand.NewSource(seed*7 + 3))
	seq := make([]int, p.ops.Warmup+p.openOps+p.capOps)
	var block []int
	for i := range seq {
		if len(block) == 0 {
			block = rng.Perm(6)
		}
		e := block[0]
		block = block[1:]
		switch e {
		case 0, 1, 2:
			seq[i] = 2*e + rng.Intn(2)
		case 3, 4:
			seq[i] = 3 + e
		default:
			seq[i] = 8 + rng.Intn(p.literals)
		}
	}
	return texts, seq
}

type serveEpisode struct {
	b      *serveBench
	seq    []int // text index of every request
	want   []checksum
	d      *disk.Disk
	srv    *serve.Server
	hs     *httpServer
	client *http.Client
	bodies *bodyLog
}

func (b *serveBench) setup(tr *tracer, seed int64) (episode, error) {
	b.tr = tr
	var seq []int
	b.texts, seq = b.p.mix(seed)
	b.r, b.s = b.p.gen.pair(seed)
	d := newDevice(page.FormatV1)
	srv, err := newQueryServer(d, b.r, b.s, serve.Config{
		TotalMemoryPages: b.p.pool, QueryMemoryPages: b.p.qpages, CacheEntries: b.p.cache, Seed: 1,
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
	return &serveEpisode{b: b, seq: seq, d: d, srv: srv, hs: hs, client: http1Client(maxConns), bodies: newBodyLog()}, nil
}

// newQueryServer loads r and s and serves them.
func newQueryServer(d *disk.Disk, r, s []tuple.Tuple, cfg serve.Config) (*serve.Server, error) {
	rel, err := relation.FromTuples(d, slimLeft, r)
	if err != nil {
		return nil, err
	}
	srel, err := relation.FromTuples(d, slimRight, s)
	if err != nil {
		return nil, err
	}
	cfg.Disk = d
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.Catalog().Register("r", rel)
	srv.Catalog().Register("s", srel)
	return srv, nil
}

// oracle executes every distinct text directly — no server, no HTTP —
// for the checksums served answers are verified against.
func (e *serveEpisode) oracle() error {
	e.want = make([]checksum, len(e.b.texts))
	for i, text := range e.b.texts {
		pipe, err := query.Parse(text)
		if err != nil {
			return err
		}
		root, err := plan2.Bind(pipe, e.srv.Catalog())
		if err != nil {
			return err
		}
		if _, err := plan2.Run(plan2.Config{Disk: e.d, MemoryPages: e.b.p.qpages, Seed: 1}, root, e.want[i].Append); err != nil {
			return fmt.Errorf("%q: %w", text, err)
		}
	}
	return nil
}

func (e *serveEpisode) warm() error {
	n := e.b.p.ops.Warmup
	samples, _ := closedLoop(n, maxConns, func(i int) error { return e.query(-1, e.seq[i]) })
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

func (e *serveEpisode) measure(rec *recorder) error {
	p := e.b.p
	open := e.seq[p.ops.Warmup : p.ops.Warmup+p.openOps]
	capacity := e.seq[p.ops.Warmup+p.openOps:]
	c0 := e.d.Counters()
	rec.begin()
	openSamples := openLoop(len(open), p.rate, maxConns, func(i int) error { return e.query(i, open[i]) })
	capSamples, capWall := closedLoop(len(capacity), maxConns, func(i int) error {
		return e.query(len(open)+i, capacity[i])
	})
	rec.end()
	rec.io += weights.Of(e.d.Counters().Sub(c0))

	bad := e.bodies.verify(len(open)+len(capacity), e.want, e.b.cfg.corrupt)
	recordLoad(rec, openSamples, bad[:len(open)], serveLimit)
	for i, s := range capSamples {
		rec.ops++
		if s.err != nil || bad[len(open)+i] {
			rec.failed++
			rec.sloMiss++
		}
	}
	rec.tputOps += int64(len(capacity))
	rec.tputWall += capWall
	if e.b.tr != nil {
		st := e.srv.Stats()
		e.b.hits += st.Cache.Hits
		e.b.misses += st.Cache.Misses
		e.b.rejects += st.Rejects
	}
	return nil
}

// query posts text ti and logs the response body for verification. op
// is the request's index in the measured phases (-1 for warm-up).
func (e *serveEpisode) query(op, ti int) error {
	id := e.b.tr.begin("serve.query", op, -1)
	defer e.b.tr.end(id)
	body, err := postQuery(e.client, e.hs.url, e.b.texts[ti])
	if err != nil {
		return err
	}
	if op >= 0 {
		e.bodies.add(op, ti, body)
	}
	return nil
}

// postQuery sends one query and returns its CSV body once the response
// is complete and its trailer says ok.
func postQuery(c *http.Client, url, text string) ([]byte, error) {
	resp, err := c.Post(url+"/query", "text/plain", strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if st := resp.Trailer.Get("X-Vtserve-Status"); st != "ok" {
		return nil, fmt.Errorf("status trailer %q", st)
	}
	return body, nil
}

func (e *serveEpisode) close() error {
	e.client.CloseIdleConnections()
	err := e.hs.close()
	if st := e.srv.Stats(); st.PoolUsed != 0 && err == nil {
		err = fmt.Errorf("buffer pool unbalanced: %d pages reserved", st.PoolUsed)
	}
	return err
}

// bodyLog keeps one copy of each distinct response body per query text,
// keyed by its CRC, and which body every request received, so every
// response is verified after the timed region without holding them all.
type bodyLog struct {
	mu     sync.Mutex
	bodies map[bodyKey][]byte
	got    map[int]bodyKey // request index -> its body
}

type bodyKey struct {
	text int
	crc  uint32
}

func newBodyLog() *bodyLog {
	return &bodyLog{bodies: make(map[bodyKey][]byte), got: make(map[int]bodyKey)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (l *bodyLog) add(op, text int, body []byte) {
	k := bodyKey{text, crc32.Checksum(body, castagnoli)}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.bodies[k]; !ok {
		l.bodies[k] = body
	}
	l.got[op] = k
}

// verify parses each distinct body, checks it against the reference
// checksum of its text, and returns which of the n requests got a wrong
// answer or none. corrupt alters one row of one body first.
func (l *bodyLog) verify(n int, want []checksum, corrupt bool) []bool {
	ok := make(map[bodyKey]bool, len(l.bodies))
	for k, body := range l.bodies {
		_, ts, err := csvio.ReadTuples(bytes.NewReader(body))
		if err != nil {
			ok[k] = false
			continue
		}
		if corrupt && len(ts) > 0 {
			ts[0].V.End++
			corrupt = false
		}
		var got checksum
		ok[k] = got.of(ts) == want[k.text]
	}
	bad := make([]bool, n)
	for op := range bad {
		k, seen := l.got[op]
		bad[op] = !seen || !ok[k]
	}
	l.bodies, l.got = make(map[bodyKey][]byte), make(map[int]bodyKey)
	return bad
}

// layers measures the query layers one call at a time on the
// workload's texts: normalize and parse, bind and run, in-process
// Execute, and the HTTP round trip around it.
func (b *serveBench) layers(tr *tracer, m map[string]float64) error {
	d := newDevice(page.FormatV1)
	srv, err := newQueryServer(d, b.r, b.s, serve.Config{
		TotalMemoryPages: b.p.pool, QueryMemoryPages: b.p.qpages, CacheEntries: b.p.cache, Seed: 1,
	})
	if err != nil {
		return err
	}
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		return err
	}
	client := http1Client(1)
	tr.dev = d
	texts := b.texts[:min(len(b.texts), 16)]
	for rep := 0; rep < probeReps && err == nil; rep++ {
		for _, text := range texts {
			if err = probeQuery(tr, d, srv, client, hs.url, text, b.p.qpages); err != nil {
				break
			}
		}
	}
	client.CloseIdleConnections()
	if cerr := hs.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["query.normalize_us"] = 1000 * tr.medianMS("query.normalize")
	m["query.parse_us"] = 1000 * tr.medianMS("query.parse")
	m["plan2.bind_us"] = 1000 * tr.medianMS("plan2.bind")
	m["plan2.run_ms"] = tr.medianMS("plan2.run")
	m["serve.execute_ms"] = tr.medianMS("serve.execute")
	m["serve.transport_ms"] = tr.medianMS("serve.http") - m["serve.execute_ms"]
	if b.hits+b.misses > 0 {
		m["serve.cache_hit_frac"] = float64(b.hits) / float64(b.hits+b.misses)
	}
	m["serve.rejects"] = float64(b.rejects)
	m["disk.bytes_per_op"] = tr.medianBytes("serve.query")
	return probeEngine(tr, m, engineInputs{ls: slimLeft, rs: slimRight, r: b.r, s: b.s, format: page.FormatV1, memory: b.p.qpages})
}

func probeQuery(tr *tracer, d *disk.Disk, srv *serve.Server, client *http.Client, url, text string, pages int) error {
	root := tr.begin("probe.query", -1, -1)
	defer tr.end(root)
	id := tr.begin("query.normalize", -1, root)
	key, err := query.Normalize(text)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("query.parse", -1, root)
	pipe, err := query.Parse(key)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("plan2.bind", -1, root)
	node, err := plan2.Bind(pipe, srv.Catalog())
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("plan2.run", -1, root)
	_, err = plan2.Run(plan2.Config{Disk: d, MemoryPages: pages, Seed: 1}, node, func(tuple.Tuple) error { return nil })
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("serve.execute", -1, root)
	_, _, err = srv.Execute(context.Background(), text, func(tuple.Tuple) error { return nil })
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("serve.http", -1, root)
	_, err = postQuery(client, url, text)
	tr.end(id)
	return err
}
