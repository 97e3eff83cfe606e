package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop"
	"hybridloop/internal/core"
	"hybridloop/internal/deque"
	"hybridloop/internal/loop"
	"hybridloop/internal/metrics"
	"hybridloop/internal/sched"
)

// The layer ladder runs the same empty loop through ever more of the
// stack, so that each rung's cost over the rung below is one layer's
// share: a task through sched.Pool.Run, loop.For on a bare sched.Pool,
// hybridloop.Pool.For, TryFor on a gated pool, TryFor on a gated pool with
// a metrics plane. Below the ladder, the primitives are timed alone and
// against one thief.

const (
	ladderN      = 4096 // iterations per empty loop
	ladderLoops  = 2000 // loops per rung per round
	ladderRounds = 7
	primOps      = 1 << 20 // operations per primitive measurement
	claimSets    = 4096
	claimR       = 16
)

var emptyBody hybridloop.Body = func(lo, hi int) {}

type rung struct {
	name string // metric prefix
	fn   func() error
}

// ladder measures the rungs and the primitives into m, plus the gate and
// metrics-plane figures of the gated rungs.
func ladder(m map[string]float64) error {
	p := runtime.GOMAXPROCS(0)
	sp := sched.NewPool(p, 1)
	defer sp.Close()
	hp := hybridloop.NewPool(p)
	defer hp.Close()
	gp := hybridloop.NewPool(p, hybridloop.WithMaxInFlightLoops(serveInFlight))
	defer gp.Close()
	reg := hybridloop.NewMetricsRegistry()
	mp := hybridloop.NewPool(p, hybridloop.WithMaxInFlightLoops(serveInFlight), hybridloop.WithMetrics(reg))
	defer mp.Close()

	rungs := []rung{
		{"sched.run_empty", func() error {
			sp.Run(func(w *sched.Worker) { emptyBody(0, ladderN) })
			return nil
		}},
		{"loop.for_empty", func() error {
			loop.For(sp, 0, ladderN, loop.Body(emptyBody), loop.Options{Strategy: loop.Hybrid})
			return nil
		}},
		{"hybridloop.for_empty", func() error {
			hp.For(0, ladderN, emptyBody)
			return nil
		}},
		{"hybridloop.gate_empty", func() error { return gp.TryFor(0, ladderN, emptyBody) }},
		{"hybridloop.metrics_empty", func() error { return mp.TryFor(0, ladderN, emptyBody) }},
	}
	gate0, _ := gp.AdmissionStats()
	us := make([][]float64, len(rungs))
	allocs := make([]float64, len(rungs))
	for r := 0; r < ladderRounds; r++ {
		for i, rg := range rungs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for j := 0; j < ladderLoops; j++ {
				if err := rg.fn(); err != nil {
					return fmt.Errorf("ladder %s: %w", rg.name, err)
				}
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			us[i] = append(us[i], float64(el)/1e3/ladderLoops)
			allocs[i] += float64(m1.Mallocs - m0.Mallocs)
		}
	}
	deltaNames := map[string]string{
		"loop.for_empty":           "loop.for_delta",
		"hybridloop.for_empty":     "hybridloop.submit_delta",
		"hybridloop.gate_empty":    "hybridloop.gate_delta",
		"hybridloop.metrics_empty": "hybridloop.metrics_delta",
	}
	for i, rg := range rungs {
		m[rg.name+"_us"] = median(us[i])
		m[rg.name+"_allocs"] = allocs[i] / (ladderRounds * ladderLoops)
		if i > 0 {
			dn := deltaNames[rg.name]
			m[dn+"_us"] = m[rg.name+"_us"] - m[rungs[i-1].name+"_us"]
			m[dn+"_allocs"] = m[rg.name+"_allocs"] - m[rungs[i-1].name+"_allocs"]
		}
	}
	gate1, _ := gp.AdmissionStats()
	admitted, rejected := gate1.Admitted-gate0.Admitted, gate1.Rejected-gate0.Rejected
	m["hybridloop.gate_rejected_ratio"] = ratio(float64(rejected), float64(admitted+rejected))
	m["hybridloop.gate_waited_ratio"] = ratio(float64(gate1.Waited-gate0.Waited), float64(admitted))

	var scrapeUs []float64
	var series int
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		var b bytes.Buffer
		if err := reg.WriteText(&b); err != nil {
			return fmt.Errorf("ladder scrape: %w", err)
		}
		sc, err := metrics.ParseText(&b)
		if err != nil {
			return fmt.Errorf("ladder scrape: %w", err)
		}
		scrapeUs = append(scrapeUs, float64(time.Since(t0))/1e3)
		series = len(sc.Values)
	}
	m["metrics.scrape_us_p50"] = median(scrapeUs)
	m["metrics.series"] = float64(series)
	primitives(m)
	return nil
}

type dqTask func()

// primitives times the deque, RangeSlot and Claimer operations, each
// uncontended and against one thief goroutine.
func primitives(m map[string]float64) {
	task, arg := dqTask(func() {}), new(int)
	newDeque := func() *deque.Deque { return deque.New(dqTask(nil), dqTask(nil), (*int)(nil)) }

	d := newDeque()
	t0 := time.Now()
	for i := 0; i < primOps; i++ {
		d.PushBottom(task, arg, 0)
		d.PopBottom()
	}
	m["deque.push_pop_ns"] = nsPer(time.Since(t0), primOps)

	var stealNs time.Duration
	for done := 0; done < primOps; done += 1024 {
		for i := 0; i < 1024; i++ {
			d.PushBottom(task, arg, 0)
		}
		t0 = time.Now()
		for i := 0; i < 1024; i++ {
			d.Steal()
		}
		stealNs += time.Since(t0)
	}
	m["deque.steal_ns"] = nsPer(stealNs, primOps)

	// One thief calls Steal while the owner pushes twice and pops once per
	// step, so the deque always holds work to fight over.
	d = newDeque()
	var stop atomic.Bool
	var calls int64
	var thiefTime time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for !stop.Load() {
			d.Steal()
			calls++
		}
		thiefTime = time.Since(t0)
	}()
	for i := 0; i < primOps/4; i++ {
		d.PushBottom(task, arg, 0)
		d.PushBottom(task, arg, 0)
		d.PopBottom()
	}
	stop.Store(true)
	wg.Wait()
	m["deque.steal_contended_ns"] = nsPer(thiefTime, calls)

	var s deque.RangeSlot
	const span = 1 << 30
	s.Publish(0, span)
	t0 = time.Now()
	for i := 0; i < primOps; i++ {
		if _, _, ok := s.TakeFront(16); !ok {
			s.Publish(0, span)
		}
	}
	m["deque.take_front_ns"] = nsPer(time.Since(t0), primOps)

	s.Reset()
	s.Publish(0, span)
	t0 = time.Now()
	for i := 0; i < primOps; i++ {
		if _, _, ok := s.StealBack(16, 1, 1<<20); !ok {
			s.Reset()
			s.Publish(0, span)
		}
	}
	m["deque.steal_back_ns"] = nsPer(time.Since(t0), primOps)

	// The owner takes chunks from the front while one thief steals halves
	// from the back; the owner republishes when the slot runs dry.
	s.Reset()
	s.Publish(0, span)
	stop.Store(false)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.StealHalf(16)
		}
	}()
	t0 = time.Now()
	for i := 0; i < primOps/4; i++ {
		if _, _, ok := s.TakeFront(16); !ok {
			s.Publish(0, span)
		}
	}
	m["deque.take_front_contended_ns"] = nsPer(time.Since(t0), primOps/4)
	stop.Store(true)
	wg.Wait()

	m["core.claim_ns"] = claimNs(1)
	m["core.claim_contended_ns"] = claimNs(2)
}

// claimNs is the mean time of one Claimer.Next call when claimers of
// workers 0..claimers-1 run through the same fresh partition sets at once.
func claimNs(claimers int) float64 {
	sets := make([]*core.PartitionSet, claimSets)
	for i := range sets {
		sets[i] = core.NewPartitionSetR(0, 1<<20, claimR)
	}
	var wg sync.WaitGroup
	ns := make([]float64, claimers)
	for w := 0; w < claimers; w++ {
		cl := make([]*core.Claimer, claimSets)
		for i := range cl {
			cl[i] = core.NewClaimer(sets[i], w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calls := 0
			t0 := time.Now()
			for _, c := range cl {
				for {
					calls++
					if _, ok := c.Next(); !ok {
						break
					}
				}
			}
			ns[w] = nsPer(time.Since(t0), int64(calls))
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, v := range ns {
		sum += v
	}
	return sum / float64(claimers)
}

func nsPer(d time.Duration, n int64) float64 { return float64(d) / float64(n) }

// A probe measures, on pools of its own, per-layer metrics that a
// workload's own traffic does not produce. The traced run starts a probe
// only when one of its metrics is still missing.
type probe struct {
	metrics []string
	fn      func(m map[string]float64) error
}

var probes = []probe{
	{[]string{"hybridloop.first_chunk_us_p50", "hybridloop.first_chunk_us_p99",
		"hybridloop.join_us_p50", "hybridloop.join_us_p99"}, probeFirstChunk},
	{[]string{"loop.affinity"}, probeAffinity},
	{[]string{"nas.cg_ms_p50", "nas.mg_ms_p50", "nas.ft_ms_p50", "nas.is_ms_p50"}, probeNAS},
}

// probeFirstChunk times call → first chunk start and last chunk end →
// return on empty loops whose chunks stamp their times.
func probeFirstChunk(m map[string]float64) error {
	p := hybridloop.NewPool(0)
	defer p.Close()
	var first, last atomic.Int64
	epoch := time.Now()
	body := func(lo, hi int) {
		t := int64(time.Since(epoch))
		for {
			f := first.Load()
			if f <= t || first.CompareAndSwap(f, t) {
				break
			}
		}
		e := int64(time.Since(epoch))
		for {
			l := last.Load()
			if l >= e || last.CompareAndSwap(l, e) {
				break
			}
		}
	}
	var fc, jn []float64
	for i := 0; i < ladderLoops; i++ {
		first.Store(math.MaxInt64)
		last.Store(math.MinInt64)
		t0 := int64(time.Since(epoch))
		p.For(0, ladderN, body)
		t1 := int64(time.Since(epoch))
		fc = append(fc, float64(first.Load()-t0)/1e3)
		jn = append(jn, float64(t1-last.Load())/1e3)
	}
	f, j := newDist(fc), newDist(jn)
	m["hybridloop.first_chunk_us_p50"] = f.pct(50)
	m["hybridloop.first_chunk_us_p99"] = f.pct(99)
	m["hybridloop.join_us_p50"] = j.pct(50)
	m["hybridloop.join_us_p99"] = j.pct(99)
	return nil
}

// probeAffinity sweeps one range repeatedly, as an iterative solver does,
// and measures the share of iterations that stay on their worker.
func probeAffinity(m map[string]float64) error {
	p := hybridloop.NewPool(0)
	defer p.Close()
	const n, sweeps = 1 << 16, 64
	rec := &chunkList{}
	var prev []chunk
	var same, total int64
	for i := 0; i < sweeps; i++ {
		rec.chunks = nil
		p.For(0, n, func(lo, hi int) { sumRange(lo, hi) }, hybridloop.WithRecorder(rec))
		cur := rec.chunks
		if prev != nil {
			s, t := affinitySame(prev, cur)
			same += s
			total += t
		}
		prev = cur
	}
	m["loop.affinity"] = float64(same) / float64(total)
	return nil
}

// chunkList is a Recorder keeping every chunk with its worker.
type chunkList struct {
	mu     sync.Mutex
	chunks []chunk
}

func (c *chunkList) Record(worker, lo, hi int) {
	c.mu.Lock()
	c.chunks = append(c.chunks, chunk{lo, hi, worker})
	c.mu.Unlock()
}

// distinctWorkers is the number of workers that ran chunks.
func distinctWorkers(chunks []chunk) int {
	seen := map[int]bool{}
	for _, c := range chunks {
		seen[c.w] = true
	}
	return len(seen)
}

// probeNAS times each verified kernel kernelRuns times on a fresh pool.
func probeNAS(m map[string]float64) error {
	k, err := newNASKernels()
	if err != nil {
		return err
	}
	p := hybridloop.NewPool(0)
	defer p.Close()
	for kern := 0; kern < numKernels; kern++ {
		var ms []float64
		for i := 0; i < kernelRuns; i++ {
			t0 := time.Now()
			if err := k.run(p, kern); err != nil {
				return fmt.Errorf("%s: %w", kernelNames[kern], err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
		m[kernelNames[kern]+"_ms_p50"] = median(ms)
	}
	return nil
}
