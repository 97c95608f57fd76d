package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"vtjoin/internal/cost"
	"vtjoin/internal/disk"
)

// weights is the paper's 5:1 random:sequential cost model, under which
// every weighted I/O figure of the benchmark is reported.
var weights = cost.Ratio(5)

// span is one timed call the benchmark made into a layer. The
// benchmark records spans only around calls it makes itself, or from
// the phases an engine entry point returns in its cost.Report.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`     // op id the span belongs to
	Parent int     `json:"parent"` // index of the parent span, -1 for a root
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	IO     float64 `json:"weighted_io"` // device counter delta, weighted 5:1
	Pages  int64   `json:"pages"`       // the same delta, unweighted
	Bytes  int64   `json:"bytes"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced runs share their code paths.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	dev   *disk.Disk // device whose counters spans read; may be nil
	spans []span
	marks []disk.Counters
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var c disk.Counters
	if t.dev != nil {
		c = t.dev.Counters()
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.marks = append(t.marks, c)
	return len(t.spans) - 1
}

// end closes span id, charging it the device counter movement since it
// began.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	if t.dev != nil {
		c := t.dev.Counters().Sub(t.marks[id])
		s.IO, s.Pages, s.Bytes = weights.Of(c), c.Total(), c.BytesMoved
	}
}

// phases adds an engine's reported phases as children of span parent,
// laid end to end from the parent's start (the phases run one after
// another, and the report carries their durations, not their times).
func (t *tracer) phases(prefix string, op, parent int, rep *cost.Report) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	for _, ph := range rep.Phases {
		t.spans = append(t.spans, span{
			Name: prefix + "." + ph.Name, Op: op, Parent: parent,
			Start: at, End: at + ph.Wall.Nanoseconds(),
			IO: weights.Of(ph.Counters), Pages: ph.Counters.Total(), Bytes: ph.Counters.BytesMoved,
		})
		t.marks = append(t.marks, disk.Counters{})
		at += ph.Wall.Nanoseconds()
	}
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration of the spans called name, in ms.
func (t *tracer) medianMS(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, ms(time.Duration(s.End-s.Start)))
	}
	return median(xs)
}

// medianIO is the median weighted I/O of the spans called name.
func (t *tracer) medianIO(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, s.IO)
	}
	return median(xs)
}

// medianBytes is the median of the bytes moved by the spans called
// name.
func (t *tracer) medianBytes(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, float64(s.Bytes))
	}
	return median(xs)
}

// selfTimes sums, per span name, the total duration and the self time:
// the duration minus the part of it that child spans cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End-s.Start) - covered(s, children[i])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, at int64 = 0, p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, p.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return time.Duration(sum)
}

type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// renderSelfTimes formats the per-layer self-time table.
func renderSelfTimes(rows []layerTime) string {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %7s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.Self) / float64(all)
		}
		fmt.Fprintf(&b, "%-32s %7d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count, ms(r.Total), ms(r.Self), share)
	}
	return b.String()
}

func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans})
}
