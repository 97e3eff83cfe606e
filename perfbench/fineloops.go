package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"hybridloop"
)

// The fineloops workload: one submitter issues a seeded sequence of cheap
// loops back to back (a closed loop). Trip counts are log-uniform in
// [2^fineMinLog, 2^fineMaxLog), so the fixed cost of a loop — submission,
// registration, wake/park, claim phase and join — dominates, and the
// calls rotate over every public entry point.

const (
	kindFor = iota
	kindForEach
	kindReduce
	kindForErr
	kindForCtx
	kindNested // ForWorker over nestedParts parts, each a nested For(w, …)
	numKinds

	fineSpecs    = 4096 // loops in the seeded sequence, repeated for the run
	fineMinLog   = 8
	fineMaxLog   = 17
	fineMaxBegin = 1 << 16 // loops start at a seeded offset below this
	nestedParts  = 4
)

var kindNames = [numKinds]string{
	"hybridloop.For", "hybridloop.ForEach", "hybridloop.Reduce",
	"hybridloop.ForErr", "hybridloop.ForCtx", "hybridloop.ForWorker",
}

type loopSpec struct{ kind, begin, n int }

type fineloops struct {
	p      *hybridloop.Pool
	specs  []loopSpec
	next   int // next spec to run; the sequence continues across phases
	ctx    context.Context
	cancel context.CancelFunc

	// State of the loop in flight, read by the bodies.
	cur      loopSpec
	sum, cnt atomic.Int64
	seen     []uint8 // ForEach marks: seen[i] == epoch once i has run
	epoch    uint8
	dup      atomic.Bool

	forBody  hybridloop.Body
	eachBody func(int)
	chunkSum func(lo, hi int) int64
	errBody  func(lo, hi int) error
	outer    hybridloop.BodyW
}

// fineSequence draws the loops from seed. The draw is stratified: loop i's
// log2 trip count lies in the i-th of fineSpecs equal slices of
// [fineMinLog, fineMaxLog) and entry points rotate through the slices, so
// every seed runs the same mix of sizes and entry points, in its own order
// and with its own offsets; seeds then differ in what they should, not in
// how much work a run holds.
func fineSequence(seed uint64) []loopSpec {
	r := rand.New(rand.NewPCG(seed, 0x66696e656c6f6f70))
	specs := make([]loopSpec, fineSpecs)
	for i := range specs {
		u := (float64(i) + r.Float64()) / fineSpecs
		specs[i] = loopSpec{
			kind:  i % numKinds,
			begin: r.IntN(fineMaxBegin),
			n:     int(math.Exp2(fineMinLog + (fineMaxLog-fineMinLog)*u)),
		}
	}
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func sumRange(lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i)
	}
	return s
}

func (f *fineloops) setup(seed uint64) error {
	f.specs = fineSequence(seed)
	f.next = 0
	f.p = hybridloop.NewPool(0)
	// A context that can be cancelled makes ForCtx take its cancellable
	// path, as under a request context; it is never cancelled.
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.seen = make([]uint8, fineMaxBegin+(1<<fineMaxLog))
	f.epoch = 0
	f.forBody = func(lo, hi int) {
		f.sum.Add(sumRange(lo, hi))
		f.cnt.Add(int64(hi - lo))
	}
	f.eachBody = func(i int) {
		if f.seen[i] == f.epoch {
			f.dup.Store(true)
		}
		f.seen[i] = f.epoch
	}
	f.chunkSum = func(lo, hi int) int64 {
		f.cnt.Add(int64(hi - lo))
		return sumRange(lo, hi)
	}
	f.errBody = func(lo, hi int) error {
		f.forBody(lo, hi)
		return nil
	}
	f.outer = func(w *hybridloop.Worker, lo, hi int) {
		s := f.cur
		for k := lo; k < hi; k++ {
			a, z := nestedBounds(s, k)
			hybridloop.For(w, a, z, f.forBody)
		}
	}
	// Warm up: two passes over the whole sequence.
	for _, s := range append(f.specs, f.specs...) {
		if err := f.call(s, nil); err != nil {
			return err
		}
		if err := f.verify(s); err != nil {
			return err
		}
	}
	return nil
}

func nestedBounds(s loopSpec, k int) (int, int) {
	return s.begin + k*s.n/nestedParts, s.begin + (k+1)*s.n/nestedParts
}

func (f *fineloops) rate() float64 { return 60_000 }

func (f *fineloops) pool() *hybridloop.Pool { return f.p }

func (f *fineloops) close() {
	f.cancel()
	f.p.Close()
}

func addInt64(a, b int64) int64 { return a + b }

// call runs one loop through its entry point. With a non-nil trace the
// bodies record chunk spans under the call span.
func (f *fineloops) call(s loopSpec, tc *fineTrace) error {
	b, e := s.begin, s.begin+s.n
	f.cur = s
	f.sum.Store(0)
	f.cnt.Store(0)
	if s.kind == kindForEach {
		f.epoch++
		if f.epoch == 0 {
			clear(f.seen)
			f.epoch = 1
		}
	}
	forBody, eachBody, chunkSum, errBody, outer := f.forBody, f.eachBody, f.chunkSum, f.errBody, f.outer
	var opts []hybridloop.ForOption
	if tc != nil {
		forBody, chunkSum, errBody, outer = tc.bodies(f)
		opts = tc.opts
	}
	var err error
	switch s.kind {
	case kindFor:
		f.p.For(b, e, forBody, opts...)
	case kindForEach:
		f.p.ForEach(b, e, eachBody, opts...)
	case kindReduce:
		f.sum.Store(hybridloop.Reduce(f.p, b, e, 0, int64(0), chunkSum, addInt64, opts...))
	case kindForErr:
		err = f.p.ForErr(b, e, errBody, opts...)
	case kindForCtx:
		err = f.p.ForCtx(f.ctx, b, e, forBody, opts...)
	case kindNested:
		f.p.ForWorker(0, nestedParts, outer, opts...)
	}
	if tc != nil {
		tc.ot.end(tc.call)
	}
	if err != nil {
		return fmt.Errorf("%s [%d,%d): %w", kindNames[s.kind], b, e, err)
	}
	return nil
}

// verify checks the loop call just ran: the index sum against its closed
// form and the iteration count against the trip count (every iteration
// exactly once), or for ForEach every index marked exactly once.
func (f *fineloops) verify(s loopSpec) error {
	b, e := s.begin, s.begin+s.n
	if s.kind == kindForEach {
		if f.dup.Load() {
			return fmt.Errorf("ForEach [%d,%d): an index ran twice", b, e)
		}
		for i := b; i < e; i++ {
			if f.seen[i] != f.epoch {
				return fmt.Errorf("ForEach [%d,%d): index %d did not run", b, e, i)
			}
		}
		return nil
	}
	if got := f.cnt.Load(); got != int64(s.n) {
		return fmt.Errorf("%s [%d,%d): ran %d iterations, want %d", kindNames[s.kind], b, e, got, s.n)
	}
	if got, want := f.sum.Load(), indexSum(b, e); got != want {
		return fmt.Errorf("%s [%d,%d): index sum %d, want %d", kindNames[s.kind], b, e, got, want)
	}
	return nil
}

func (f *fineloops) run(ph *phase, d time.Duration, tr *tracer) error {
	var ft *fineTraced
	if tr != nil {
		ft = newFineTraced(tr, f.p.Workers())
	}
	ph.windows = fineWindows
	entries0, loops := claimEntries(f.p), int64(0)
	start := time.Now()
	deadline := start.Add(d)
	prevEnd := start
	for {
		s := f.specs[f.next]
		f.next = (f.next + 1) % len(f.specs)
		var tc *fineTrace
		if ft != nil {
			tc = ft.begin(f, s)
		}
		t0 := time.Now()
		err := f.call(s, tc)
		t1 := time.Now()
		ph.attempted++
		if err == nil {
			err = f.verify(s)
		}
		if err != nil {
			return err
		}
		if ft != nil {
			if err := ft.end(f, s, tc); err != nil {
				return err
			}
		}
		ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e3)
		ph.lag = append(ph.lag, float64(t0.Sub(prevEnd))/1e3)
		ph.iters += int64(s.n)
		loops += loopsIn(s)
		prevEnd = time.Now()
		ph.mark(prevEnd.Sub(start), ph.iters)
		if !prevEnd.Before(deadline) {
			break
		}
	}
	ph.elapsed = prevEnd.Sub(start)
	// At most P claim-phase entries per loop (checked per loop in a
	// traced phase, in aggregate here).
	if e := claimEntries(f.p) - entries0; e > loops*int64(f.p.Workers()) {
		return fmt.Errorf("%d claim-phase entries over %d loops, more than P per loop", e, loops)
	}
	if ft != nil {
		ft.metrics(ph.layer)
	}
	return nil
}

// loopsIn is the number of loops one operation runs.
func loopsIn(s loopSpec) int64 {
	if s.kind == kindNested {
		return 1 + nestedParts
	}
	return 1
}

// fineTraced gathers the per-layer figures of a traced fineloops phase.
type fineTraced struct {
	tr      *tracer
	ot      *opTrace
	workers int
	rec     *chunkList

	firstChunk, join, chunkUs []float64
	chunks, calls, ops        int64
	workerSum                 int64
	busyNs, callNs            int64
	entriesMax                float64
}

// fineTrace is the trace of one fineloops operation in flight.
type fineTrace struct {
	ot         *opTrace
	root, call int32
	opts       []hybridloop.ForOption
	entries0   int64
}

func newFineTraced(tr *tracer, workers int) *fineTraced {
	return &fineTraced{tr: tr, ot: tr.newOp(8192), workers: workers, rec: &chunkList{}}
}

func (ft *fineTraced) begin(f *fineloops, s loopSpec) *fineTrace {
	ft.tr.reset(ft.ot)
	ft.rec.chunks = ft.rec.chunks[:0]
	tc := &fineTrace{ot: ft.ot, opts: []hybridloop.ForOption{hybridloop.WithRecorder(ft.rec)}}
	tc.entries0 = claimEntries(f.p)
	tc.root = ft.ot.begin("op", 0)
	tc.call = ft.ot.begin(kindNames[s.kind], tc.root)
	return tc
}

// bodies returns the loop bodies wrapped to record a span per chunk.
func (tc *fineTrace) bodies(f *fineloops) (hybridloop.Body, func(lo, hi int) int64, func(lo, hi int) error, hybridloop.BodyW) {
	ot := tc.ot
	chunk := func(parent int32) hybridloop.Body {
		return func(lo, hi int) {
			id := ot.begin("loop.chunk", parent)
			f.forBody(lo, hi)
			ot.end(id)
		}
	}
	forBody := chunk(tc.call)
	chunkSum := func(lo, hi int) int64 {
		id := ot.begin("loop.chunk", tc.call)
		s := f.chunkSum(lo, hi)
		ot.end(id)
		return s
	}
	errBody := func(lo, hi int) error {
		forBody(lo, hi)
		return nil
	}
	outer := func(w *hybridloop.Worker, lo, hi int) {
		id := ot.begin("loop.outer_chunk", tc.call)
		s := f.cur
		for k := lo; k < hi; k++ {
			a, z := nestedBounds(s, k)
			nid := ot.begin("hybridloop.For", id)
			hybridloop.For(w, a, z, chunk(nid), tc.opts...)
			ot.end(nid)
		}
		ot.end(id)
	}
	return forBody, chunkSum, errBody, outer
}

func (ft *fineTraced) end(f *fineloops, s loopSpec, tc *fineTrace) error {
	ft.ot.end(tc.root)
	loops := loopsIn(s)
	entries := float64(claimEntries(f.p)-tc.entries0) / float64(loops)
	ft.entriesMax = max(ft.entriesMax, entries)
	if entries > float64(ft.workers) {
		return fmt.Errorf("%s: %.2f claim-phase entries per loop, more than P = %d",
			kindNames[s.kind], entries, ft.workers)
	}
	ft.chunks += int64(len(ft.rec.chunks))
	ft.workerSum += int64(distinctWorkers(ft.rec.chunks))
	ft.calls += loops
	ft.ops++
	ss := ft.ot.spans()
	call := ss[tc.call-1]
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	var busy int64
	for _, c := range ss {
		if c.Name != "loop.chunk" {
			continue
		}
		busy += c.End - c.Start
		ft.chunkUs = addSample(ft.chunkUs, float64(c.End-c.Start)/1e3)
		if c.Parent == tc.call {
			first = min(first, c.Start)
			last = max(last, c.End)
		}
	}
	if s.kind != kindNested && first <= last {
		// Direct chunks of the call: ForEach bodies are per index and
		// record none, and a nested call's chunks sit below its parts.
		ft.firstChunk = append(ft.firstChunk, float64(first-call.Start)/1e3)
		ft.join = append(ft.join, float64(call.End-last)/1e3)
		ft.busyNs += busy
		ft.callNs += call.End - call.Start
	}
	ft.tr.finish(ft.ot)
	return nil
}

func (ft *fineTraced) metrics(m map[string]float64) {
	fc, jn := newDist(ft.firstChunk), newDist(ft.join)
	m["hybridloop.first_chunk_us_p50"] = fc.pct(50)
	m["hybridloop.first_chunk_us_p99"] = fc.pct(99)
	m["hybridloop.join_us_p50"] = jn.pct(50)
	m["hybridloop.join_us_p99"] = jn.pct(99)
	m["loop.chunks_per_call"] = float64(ft.chunks) / float64(ft.calls)
	m["loop.chunk_us_p50"] = newDist(ft.chunkUs).pct(50)
	m["loop.workers_per_call"] = float64(ft.workerSum) / float64(ft.ops)
	m["loop.busy_share"] = float64(ft.busyNs) / (float64(ft.workers) * float64(ft.callNs))
	m["sched.loop_entries_per_loop_max"] = ft.entriesMax
}

// claimEntries counts the pool's entries into a hybrid loop's claim phase
// through the steal protocol. Stats.LoopEntries counts every TrySteal that
// did work, which includes steal-half range steals (Stats.RangeSteals,
// bounded by the splits, not by P); the difference is the claim-phase
// entries the paper bounds by P per loop. LoopEntries is bumped after the
// entering worker's work is done, so one entry of a loop can land just
// after the loop returned; the checks allow for that (a thief enters the
// claim phase at most once per loop, and the initiating worker's own
// entry is not counted, so P-1 true entries plus one late one is <= P).
func claimEntries(p *hybridloop.Pool) int64 {
	s := p.Stats()
	return s.LoopEntries - s.RangeSteals
}
