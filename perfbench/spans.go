package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the runtime.
// Spans of one operation share Op; Parent is the ID of the enclosing span
// in the same operation, 0 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name belongs to: the part before the first
// dot ("hybridloop.For" → "hybridloop").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// opTrace collects the spans of one operation while it runs. Loop bodies
// on several workers add spans at once, so slots in the fixed buffer are
// reserved with an atomic counter; the operation's owner reads them only
// after the operation has joined. A span that does not fit is counted as
// lost and gets ID 0, which end ignores.
type opTrace struct {
	tr   *tracer
	op   int64
	buf  []span
	n    atomic.Int32
	lost atomic.Int32
}

// begin opens a span and returns its ID.
func (o *opTrace) begin(name string, parent int32) int32 {
	return o.add(name, parent, o.tr.now(), 0)
}

// end closes the span opened by begin.
func (o *opTrace) end(id int32) {
	if id > 0 {
		o.buf[id-1].End = o.tr.now()
	}
}

// add records a span whose times are already known (end may be set later
// with setEnd).
func (o *opTrace) add(name string, parent int32, start, end int64) int32 {
	i := o.n.Add(1)
	if int(i) > len(o.buf) {
		o.lost.Add(1)
		return 0
	}
	o.buf[i-1] = span{Name: name, Op: o.op, ID: i, Parent: parent, Start: start, End: end}
	return i
}

func (o *opTrace) setEnd(id int32, end int64) {
	if id > 0 {
		o.buf[id-1].End = end
	}
}

func (o *opTrace) spans() []span {
	return o.buf[:min(int(o.n.Load()), len(o.buf))]
}

// tracer owns the spans of a traced run. Finished operations are folded
// into per-layer self-time totals; their spans are kept in memory up to a
// cap and written out when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu      sync.Mutex
	kept    []span
	keepCap int
	dropped int64
	lost    int64
	ops     int64
	// selfNs is the total self time per layer over all finished ops;
	// opSelf and callSelf are the self times, in µs, of each operation
	// root and of each public hybridloop call.
	selfNs   map[string]int64
	opSelf   []float64
	callSelf []float64
	kids     [][]interval // scratch for finish: child intervals by parent ID
}

func newTracer(keepCap int) *tracer {
	return &tracer{epoch: time.Now(), keepCap: keepCap, selfNs: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// newOp returns an operation trace able to hold capacity spans.
func (t *tracer) newOp(capacity int) *opTrace {
	o := &opTrace{tr: t, buf: make([]span, capacity)}
	o.op = t.next.Add(1)
	return o
}

// reset readies o for the next operation, reusing its buffer.
func (t *tracer) reset(o *opTrace) {
	o.op = t.next.Add(1)
	o.n.Store(0)
	o.lost.Store(0)
}

// finish folds a completed operation into the self-time totals and keeps
// its spans while there is room.
func (t *tracer) finish(o *opTrace) {
	ss := o.spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.lost += int64(o.lost.Load())
	if cap(t.kids) < len(ss)+1 {
		t.kids = make([][]interval, len(ss)+1)
	}
	kids := t.kids[:len(ss)+1]
	for i := range kids {
		kids[i] = kids[i][:0]
	}
	for _, s := range ss {
		if s.Parent > 0 && int(s.Parent) <= len(ss) {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for _, s := range ss {
		self := selfTime(interval{s.Start, s.End}, kids[s.ID])
		t.selfNs[s.layer()] += self
		switch {
		case s.Name == "op":
			t.opSelf = addSample(t.opSelf, float64(self)/1e3)
		case s.layer() == "hybridloop":
			t.callSelf = addSample(t.callSelf, float64(self)/1e3)
		}
	}
	if room := t.keepCap - len(t.kept); room > 0 {
		t.kept = append(t.kept, ss[:min(room, len(ss))]...)
		t.dropped += int64(len(ss) - min(room, len(ss)))
	} else {
		t.dropped += int64(len(ss))
	}
}

// metrics returns the tracer's own per-layer figures.
func (t *tracer) metrics(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m["trace.op_self_us_p50"] = newDist(t.opSelf).pct(50)
	m["hybridloop.self_us_p50"] = newDist(t.callSelf).pct(50)
	m["trace.spans"] = float64(int64(len(t.kept)) + t.dropped)
}

// selfSummary is one line per layer: self time per operation.
func (t *tracer) selfSummary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	layers := make([]string, 0, len(t.selfNs))
	for l := range t.selfNs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, " %s=%.2fus", l, float64(t.selfNs[l])/1e3/float64(max(t.ops, 1)))
	}
	return strings.TrimSpace(b.String())
}

// write stores the kept spans as JSON lines, followed by one summary line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	summary := map[string]any{"summary": true, "ops": t.ops, "kept": len(t.kept),
		"dropped": t.dropped, "lost": t.lost, "self_ns": t.selfNs}
	t.mu.Unlock()
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
