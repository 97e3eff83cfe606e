package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop"
	"hybridloop/internal/metrics"
)

// The serve workload: requests arrive open-loop (seeded Poisson arrivals
// at serveRate) and each runs the examples/server score body on a shared
// gated pool with a metrics plane, beside an endless priority-1 giant
// loop (the batch tenant). Half the requests use TryFor: when the gate
// rejects one, the client backs off and tries again, as a client of a
// shedding server would. The other half use ForCtx and wait in the gate.
// Latency is timed from each request's due time, so a rejection and its
// retries show in the latency tail and in the traced run's
// hybridloop.gate_rejected_ratio. A request still unserved serveGiveUp
// after its due time fails; the rate keeps that far out of reach, so the
// count of failed requests does not depend on timing. The exposition is
// scraped and parsed once a second. It runs in process: examples/server
// is package main, and a loopback HTTP client would mostly measure
// net/http.

const (
	serveN        = 1 << 14
	servePriority = 8
	serveChunk    = 1024
	serveInFlight = 8
	serveRate     = 300.0                  // requests per second
	serveGiveUp   = 5 * time.Second        // ForCtx deadline and TryFor retry limit
	serveBackoff  = 200 * time.Microsecond // between TryFor attempts
	serveScoreTol = 1e-9                   // relative, against the serial reference
	giantN        = 1 << 22
	scrapeEvery   = time.Second
)

type serve struct {
	p          *hybridloop.Pool
	reg        *hybridloop.MetricsRegistry
	stopRotate func()
	rng        *rand.Rand
	ref        float64
	opts       []hybridloop.ForOption
}

func scoreRange(lo, hi int) float64 {
	acc := 0.0
	for i := lo; i < hi; i++ {
		x := float64(i)
		acc += math.Sqrt(x+1) * math.Log1p(x)
	}
	return acc
}

func (s *serve) setup(seed uint64) error {
	s.rng = rand.New(rand.NewPCG(seed, 0x7365727665))
	s.reg = hybridloop.NewMetricsRegistry()
	s.p = hybridloop.NewPool(0, hybridloop.WithMaxInFlightLoops(serveInFlight), hybridloop.WithMetrics(s.reg))
	s.stopRotate = s.reg.RotateEvery(10 * time.Second)
	s.ref = scoreRange(0, serveN)
	s.opts = []hybridloop.ForOption{
		hybridloop.WithPriority(servePriority), hybridloop.WithChunk(serveChunk), hybridloop.WithLabel("score"),
	}
	// Warm up with requests one at a time through both entry points.
	for i := 0; i < 1024; i++ {
		total, err := s.score(i%2 == 1, time.Now(), nil, nil)
		if err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		if err := checkRel("score", total, s.ref, serveScoreTol); err != nil {
			return err
		}
	}
	if _, err := s.scrape(); err != nil {
		return err
	}
	return nil
}

func (s *serve) rate() float64 { return serveRate * 1.5 }

func (s *serve) pool() *hybridloop.Pool { return s.p }

func (s *serve) close() {
	s.stopRotate()
	s.p.Close()
}

// score runs one request's loop: ForCtx with a deadline serveGiveUp after
// due when useCtx, otherwise TryFor, retried after serveBackoff while the
// gate rejects it and the give-up time has not passed. wrap wraps the
// chunk computation; extra adds per-request options.
func (s *serve) score(useCtx bool, due time.Time, wrap func(hybridloop.Body) hybridloop.Body,
	extra []hybridloop.ForOption) (float64, error) {
	var mu sync.Mutex
	total := 0.0
	body := hybridloop.Body(func(lo, hi int) {
		acc := scoreRange(lo, hi)
		mu.Lock()
		total += acc
		mu.Unlock()
	})
	if wrap != nil {
		body = wrap(body)
	}
	opts := s.opts
	if len(extra) > 0 {
		opts = append(append([]hybridloop.ForOption(nil), s.opts...), extra...)
	}
	var err error
	giveUp := due.Add(serveGiveUp)
	if useCtx {
		ctx, cancel := context.WithDeadline(context.Background(), giveUp)
		err = s.p.ForCtx(ctx, 0, serveN, body, opts...)
		cancel()
	} else {
		for {
			err = s.p.TryFor(0, serveN, body, opts...)
			if !errors.Is(err, hybridloop.ErrBackpressure) || !time.Now().Before(giveUp) {
				break
			}
			time.Sleep(serveBackoff)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return total, err
}

// scrape renders and parses the exposition, as a /metrics scrape would.
func (s *serve) scrape() (*metrics.Scrape, error) {
	var b bytes.Buffer
	if err := s.reg.WriteText(&b); err != nil {
		return nil, fmt.Errorf("metrics exposition: %w", err)
	}
	sc, err := metrics.ParseText(&b)
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	return sc, nil
}

// monotone checks that every counter, and every histogram's buckets, sum
// and count, in prev is still present in cur and has not decreased.
func monotone(prev, cur *metrics.Scrape) error {
	for key, pv := range prev.Values {
		base, _, _ := strings.Cut(key, "{")
		fam := base
		if prev.Types[fam] != "counter" {
			for _, suf := range []string{"_bucket", "_count", "_sum"} {
				if strings.HasSuffix(base, suf) {
					fam = strings.TrimSuffix(base, suf)
					break
				}
			}
			if prev.Types[fam] != "histogram" {
				continue
			}
		}
		cv, ok := cur.Values[key]
		if !ok {
			return fmt.Errorf("metrics series %s disappeared between scrapes", key)
		}
		if cv < pv {
			return fmt.Errorf("metrics series %s went from %g to %g between scrapes", key, pv, cv)
		}
	}
	return nil
}

// serveRun is the shared state of one serve phase.
type serveRun struct {
	s  *serve
	tr *tracer

	mu       sync.Mutex
	ph       *phase
	err      error
	failed   int64
	reqIters atomic.Int64

	// Traced only.
	firstChunk, join, chunkUs, scrapeUs []float64
	chunks, calls, workerSum            int64
	busyNs, callNs                      int64
	same, total                         int64
	lastChunks                          []chunk
	series                              float64
}

func (r *serveRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (s *serve) run(ph *phase, d time.Duration, tr *tracer) error {
	r := &serveRun{s: s, tr: tr, ph: ph}
	ph.windows = fineWindows
	gate0, _ := s.p.AdmissionStats()
	loops0, entries0 := s.p.LoopsRegistered(), claimEntries(s.p)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var giantIters atomic.Int64
	bg.Add(2)
	go func() {
		defer bg.Done()
		r.giant(stop, &giantIters)
	}()
	go func() {
		defer bg.Done()
		r.scraper(stop)
	}()

	var reqs sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	due := start
	for {
		due = due.Add(time.Duration(s.rng.ExpFloat64() / serveRate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		issued := time.Now()
		useCtx := s.rng.IntN(2) == 1
		reqs.Add(1)
		go func(due time.Time) {
			defer reqs.Done()
			r.request(due, useCtx)
		}(due)
		ph.attempted++
		r.mu.Lock()
		ph.lag = append(ph.lag, float64(issued.Sub(due))/1e3)
		ph.mark(issued.Sub(start), giantIters.Load()+r.reqIters.Load())
		r.mu.Unlock()
	}
	if w := time.Until(end); w > 0 {
		time.Sleep(w)
	}
	iters := giantIters.Load() + r.reqIters.Load()
	r.mu.Lock()
	ph.mark(d, iters)
	r.mu.Unlock()
	reqs.Wait()
	close(stop)
	bg.Wait()

	ph.elapsed = d
	ph.iters = iters
	ph.failed = r.failed
	if r.err != nil {
		return r.err
	}
	if loops := s.p.LoopsRegistered() - loops0; loops > 0 {
		perLoop := float64(claimEntries(s.p)-entries0) / float64(loops)
		if perLoop > float64(s.p.Workers()) {
			return fmt.Errorf("%.2f claim-phase entries per loop, more than P = %d", perLoop, s.p.Workers())
		}
		ph.layer["sched.loop_entries_per_loop_max"] = perLoop
	}
	if tr != nil {
		gate1, _ := s.p.AdmissionStats()
		admitted, rejected := gate1.Admitted-gate0.Admitted, gate1.Rejected-gate0.Rejected
		ph.layer["hybridloop.gate_rejected_ratio"] = ratio(float64(rejected), float64(admitted+rejected))
		ph.layer["hybridloop.gate_waited_ratio"] = ratio(float64(gate1.Waited-gate0.Waited), float64(admitted))
		r.metrics(ph.layer)
	}
	return nil
}

// giant is the batch tenant: priority-1 loops over giantN iterations, back
// to back until stop, each checked to cover its range exactly once.
func (r *serveRun) giant(stop <-chan struct{}, iters *atomic.Int64) {
	var cnt atomic.Int64
	body := func(lo, hi int) {
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += math.Sqrt(float64(i%4096) + 1)
		}
		if acc < 0 {
			panic("unreachable")
		}
		cnt.Add(int64(hi - lo))
		iters.Add(int64(hi - lo))
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		cnt.Store(0)
		r.s.p.For(0, giantN, body, hybridloop.WithPriority(1), hybridloop.WithLabel("giant"))
		if n := cnt.Load(); n != giantN {
			r.fail(fmt.Errorf("giant loop ran %d iterations, want %d", n, giantN))
			return
		}
	}
}

// scraper scrapes the exposition every scrapeEvery until stop and checks
// that counters never go backwards.
func (r *serveRun) scraper(stop <-chan struct{}) {
	t := time.NewTicker(scrapeEvery)
	defer t.Stop()
	var prev *metrics.Scrape
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		var ot *opTrace
		var id int32
		if r.tr != nil {
			ot = r.tr.newOp(1)
			id = ot.begin("metrics.scrape", 0)
		}
		t0 := time.Now()
		sc, err := r.s.scrape()
		us := float64(time.Since(t0)) / 1e3
		if ot != nil {
			ot.end(id)
			r.tr.finish(ot)
		}
		if err == nil && prev != nil {
			err = monotone(prev, sc)
		}
		if err != nil {
			r.fail(err)
			return
		}
		prev = sc
		r.mu.Lock()
		r.scrapeUs = append(r.scrapeUs, us)
		r.series = float64(len(sc.Values))
		r.mu.Unlock()
	}
}

// request serves one request due at due and files its outcome.
func (r *serveRun) request(due time.Time, useCtx bool) {
	var (
		wrap  func(hybridloop.Body) hybridloop.Body
		extra []hybridloop.ForOption
		rt    *reqTrace
	)
	if r.tr != nil {
		rt = newReqTrace(r.tr, due, useCtx)
		wrap, extra = rt.wrap, []hybridloop.ForOption{hybridloop.WithRecorder(&rt.rec)}
	}
	count := func(b hybridloop.Body) hybridloop.Body {
		return func(lo, hi int) {
			b(lo, hi)
			r.reqIters.Add(int64(hi - lo))
		}
	}
	if wrap != nil {
		inner := wrap
		wrap = func(b hybridloop.Body) hybridloop.Body { return inner(count(b)) }
	} else {
		wrap = count
	}
	if rt != nil {
		rt.callStart()
	}
	total, err := r.s.score(useCtx, due, wrap, extra)
	done := time.Now()
	if rt != nil {
		rt.finish(r, done)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		return
	}
	if cerr := checkRel("score", total, r.s.ref, serveScoreTol); cerr != nil {
		if r.err == nil {
			r.err = cerr
		}
		return
	}
	r.ph.lat = append(r.ph.lat, float64(done.Sub(due))/1e3)
}

func (r *serveRun) metrics(m map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fc, jn := newDist(r.firstChunk), newDist(r.join)
	m["hybridloop.first_chunk_us_p50"] = fc.pct(50)
	m["hybridloop.first_chunk_us_p99"] = fc.pct(99)
	m["hybridloop.join_us_p50"] = jn.pct(50)
	m["hybridloop.join_us_p99"] = jn.pct(99)
	m["loop.chunks_per_call"] = ratio(float64(r.chunks), float64(r.calls))
	m["loop.chunk_us_p50"] = newDist(r.chunkUs).pct(50)
	m["loop.workers_per_call"] = ratio(float64(r.workerSum), float64(r.calls))
	m["loop.busy_share"] = float64(r.busyNs) / (float64(r.s.p.Workers()) * float64(r.callNs))
	if r.total > 0 {
		m["loop.affinity"] = float64(r.same) / float64(r.total)
	}
	m["metrics.scrape_us_p50"] = newDist(r.scrapeUs).pct(50)
	m["metrics.series"] = r.series
}

// reqTrace records one request's spans and chunk placement.
type reqTrace struct {
	tr         *tracer
	ot         *opTrace
	root, call int32
	rec        chunkList
	name       string
}

func newReqTrace(tr *tracer, due time.Time, useCtx bool) *reqTrace {
	rt := &reqTrace{tr: tr, ot: tr.newOp(64), name: "hybridloop.TryFor"}
	if useCtx {
		rt.name = "hybridloop.ForCtx"
	}
	rt.root = rt.ot.add("op", 0, tr.at(due), 0)
	return rt
}

func (rt *reqTrace) callStart() { rt.call = rt.ot.begin(rt.name, rt.root) }

func (rt *reqTrace) wrap(b hybridloop.Body) hybridloop.Body {
	return func(lo, hi int) {
		id := rt.ot.begin("loop.chunk", rt.call)
		b(lo, hi)
		rt.ot.end(id)
	}
}

// finish closes the request's spans and folds them into the phase.
func (rt *reqTrace) finish(r *serveRun, done time.Time) {
	end := rt.tr.at(done)
	rt.ot.setEnd(rt.call, end)
	rt.ot.setEnd(rt.root, end)
	ss := rt.ot.spans()
	call := ss[rt.call-1]
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	var busy int64
	var chunkUs []float64
	for _, c := range ss {
		if c.Name == "loop.chunk" {
			first, last = min(first, c.Start), max(last, c.End)
			busy += c.End - c.Start
			chunkUs = append(chunkUs, float64(c.End-c.Start)/1e3)
		}
	}
	rt.tr.finish(rt.ot)
	chunks := rt.rec.chunks
	r.mu.Lock()
	defer r.mu.Unlock()
	if first > last {
		return // gave up before any chunk ran
	}
	r.firstChunk = append(r.firstChunk, float64(first-call.Start)/1e3)
	r.join = append(r.join, float64(call.End-last)/1e3)
	for _, v := range chunkUs {
		r.chunkUs = addSample(r.chunkUs, v)
	}
	r.busyNs += busy
	r.callNs += call.End - call.Start
	r.chunks += int64(len(chunks))
	r.calls++
	var n int
	for _, c := range chunks {
		n += c.hi - c.lo
	}
	r.workerSum += int64(distinctWorkers(chunks))
	if n == serveN {
		if r.lastChunks != nil {
			same, total := affinitySame(r.lastChunks, chunks)
			r.same += same
			r.total += total
		}
		r.lastChunks = chunks
	}
}
