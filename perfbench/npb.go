package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"hybridloop"
	"hybridloop/internal/loop"
	"hybridloop/internal/nas"
)

// The npb workload: one submitter runs passes of four verified NAS
// kernels back to back (a closed loop). Kernel work dominates and the
// kernels sweep the same ranges loop after loop, so balance and the claim
// phase's affinity matter and the fixed cost per loop barely does. CG is
// class W (about 0.5 M nonzeros, more than one 2 MiB L2); MG, FT and IS
// are class S. The seed orders the kernels within each pass.

const (
	kernCG = iota
	kernMG
	kernFT
	kernIS
	numKernels
)

var kernelNames = [numKernels]string{"nas.cg", "nas.mg", "nas.ft", "nas.is"}

// Published NPB class S verification values (mg.f, ft.f).
const npbMGClassS = 0.5307707005734e-04

var npbFTClassS = []complex128{
	complex(5.546087004964e+02, 4.845363331978e+02),
	complex(5.546385409189e+02, 4.865304269511e+02),
	complex(5.546148406171e+02, 4.883910722336e+02),
	complex(5.545423607415e+02, 4.901273169046e+02),
	complex(5.544255039624e+02, 4.917475857993e+02),
	complex(5.542683411902e+02, 4.932597244941e+02),
}

// Verification tolerances: cg.f accepts |zeta - zeta_ref| <= 1e-10; mg.f
// a relative 1e-8 on rnm2; ft.f a relative 1e-12 per checksum, which our
// radix-2 FFT meets to 1e-11 against the published digits.
const (
	cgZetaTol  = 1e-10
	mgRnm2Tol  = 1e-8
	ftPublTol  = 1e-11
	kernelRuns = 3 // probe: runs per kernel when a workload has no NAS traffic
)

var (
	ftClassS = nas.FT{N1: 64, N2: 64, N3: 64, Iterations: 6}
	mgClassS = nas.MG{Log2N: 5, Cycles: 4}
)

// nasKernels holds the inputs and references of the four kernels.
type nasKernels struct {
	cg    nas.CGClassParams
	cgCfg nas.CG
	a     *nas.CSR
	ftRef []complex128 // sequential FT checksums, checked against npbFTClassS
}

func newNASKernels() (*nasKernels, error) {
	k := &nasKernels{cg: nas.CGClasses['W']}
	k.cgCfg = nas.CG{N: k.cg.N, NIters: k.cg.NIter, InnerIters: 25, Shift: k.cg.Shift}
	k.a = nas.NPBMatrix(k.cg)
	k.ftRef = nas.NPBFT(ftClassS, nil).Checksums
	if len(k.ftRef) != len(npbFTClassS) {
		return nil, fmt.Errorf("FT S reference has %d checksums, want %d", len(k.ftRef), len(npbFTClassS))
	}
	for i, want := range npbFTClassS {
		if d := cmplx.Abs(k.ftRef[i]-want) / cmplx.Abs(want); !(d <= ftPublTol) {
			return nil, fmt.Errorf("FT S sequential checksum %d = %v, published %v", i+1, k.ftRef[i], want)
		}
	}
	return k, nil
}

// run executes one kernel on p and verifies its result.
func (k *nasKernels) run(p *hybridloop.Pool, kern int, opts ...hybridloop.ForOption) error {
	switch kern {
	case kernCG:
		r := k.cgCfg.ParallelOn(p, k.a, opts...)
		return verifyZeta(r.Zeta, k.cg.ZetaRef)
	case kernMG:
		r := mgClassS.ParallelNPB(p, opts...)
		return checkRel("MG S rnm2", r.Final(), npbMGClassS, mgRnm2Tol)
	case kernFT:
		r := nas.NPBFT(ftClassS, p, opts...)
		for i, want := range k.ftRef {
			if i >= len(r.Checksums) || r.Checksums[i] != want {
				return fmt.Errorf("FT S checksum %d differs from the sequential reference", i+1)
			}
		}
		return nil
	case kernIS:
		r := nas.NPBIS(nas.NPBISClasses['S'], p, opts...)
		return nas.VerifyRanks(r.Keys, r.Ranks)
	}
	return fmt.Errorf("unknown kernel %d", kern)
}

// verifyZeta is cg.f's verification of the CG eigenvalue estimate.
func verifyZeta(zeta, ref float64) error { return checkAbs("CG W zeta", zeta, ref, cgZetaTol) }

type npb struct {
	p            *hybridloop.Pool
	k            *nasKernels
	rng          *rand.Rand
	itersPerPass int64
}

func (n *npb) setup(seed uint64) error {
	k, err := newNASKernels()
	if err != nil {
		return err
	}
	n.k = k
	n.rng = rand.New(rand.NewPCG(seed, 0x6e7062))
	n.p = hybridloop.NewPool(0)
	// Warm up with one pass, counting the loop iterations a pass runs.
	rec := &chunkList{}
	for kern := 0; kern < numKernels; kern++ {
		if err := n.k.run(n.p, kern, hybridloop.WithRecorder(rec)); err != nil {
			return err
		}
	}
	n.itersPerPass = 0
	for _, c := range rec.chunks {
		n.itersPerPass += int64(c.hi - c.lo)
	}
	return nil
}

func (n *npb) rate() float64 { return 10 }

func (n *npb) pool() *hybridloop.Pool { return n.p }

func (n *npb) close() { n.p.Close() }

func (n *npb) run(ph *phase, d time.Duration, tr *tracer) error {
	var nt *npbTrace
	if tr != nil {
		nt = newNPBTrace(tr, n.p)
	}
	ph.windows = coarseWindows
	order := []int{kernCG, kernMG, kernFT, kernIS}
	start := time.Now()
	deadline := start.Add(d)
	prevEnd := start
	for {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t0 := time.Now()
		var root int32
		if nt != nil {
			tr.reset(nt.ot)
			root = nt.ot.begin("op", 0)
		}
		for _, kern := range order {
			var err error
			if nt != nil {
				err = nt.runKernel(n, kern, root)
			} else {
				err = n.k.run(n.p, kern)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", kernelNames[kern], err)
			}
		}
		t1 := time.Now()
		if nt != nil {
			nt.ot.end(root)
			tr.finish(nt.ot)
		}
		ph.attempted++
		ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e3)
		ph.lag = append(ph.lag, float64(t0.Sub(prevEnd))/1e3)
		ph.iters += n.itersPerPass
		prevEnd = time.Now()
		ph.mark(prevEnd.Sub(start), ph.iters)
		if !prevEnd.Before(deadline) {
			break
		}
	}
	ph.elapsed = prevEnd.Sub(start)
	if nt != nil {
		return nt.metrics(ph.layer)
	}
	return nil
}

// npbTrace traces the loops inside the NAS kernels, whose bodies the
// benchmark cannot wrap. hybridloop applies a loop's ForOptions once, on
// the submitting goroutine, right before the loop runs, and the kernels
// pass their options to every loop they start; so a ForOption marks
// where each loop begins (the previous one has then returned) and
// attaches a Recorder, which the runtime calls just before each chunk.
// A chunk's end is taken as the next chunk start on the same worker, or
// the loop's end: chunk times here include the scheduling between chunks.
type npbTrace struct {
	tr      *tracer
	ot      *opTrace
	p       *hybridloop.Pool
	workers int
	hook    hybridloop.ForOption

	kernel    int32 // span of the kernel running
	open      bool  // a loop is running
	loop      int32 // its span (0 if the span buffer was full)
	loopStart int64
	entries0  int64
	err       error // first failed check of a loop closed by the hook

	mu  sync.Mutex
	cur []stamp

	prev                    map[[2]int][]chunk // last loop's chunks per range
	same, total             int64
	chunkUs                 []float64
	kernMs                  [numKernels][]float64
	chunks, loops, workersN int64
	busyNs, loopNs          int64
	entriesMax              float64
}

type stamp struct {
	chunk
	start int64
}

func newNPBTrace(tr *tracer, p *hybridloop.Pool) *npbTrace {
	t := &npbTrace{tr: tr, ot: tr.newOp(1 << 17), p: p, workers: p.Workers(), prev: map[[2]int][]chunk{}}
	t.hook = func(o *loop.Options) {
		if err := t.closeLoop(t.tr.now()); err != nil && t.err == nil {
			t.err = err
		}
		t.loopStart = t.tr.now()
		t.open = true
		t.loop = t.ot.add("hybridloop.For", t.kernel, t.loopStart, 0)
		t.entries0 = claimEntries(t.p)
		o.Recorder = t
	}
	return t
}

func (t *npbTrace) Record(worker, lo, hi int) {
	now := t.tr.now()
	t.mu.Lock()
	t.cur = append(t.cur, stamp{chunk{lo, hi, worker}, now})
	t.mu.Unlock()
}

func (t *npbTrace) runKernel(n *npb, kern int, root int32) error {
	t.kernel = t.ot.begin(kernelNames[kern], root)
	t0 := t.tr.now()
	err := n.k.run(n.p, kern, t.hook)
	end := t.tr.now()
	if cerr := t.closeLoop(end); err == nil {
		err = cerr
	}
	if err == nil {
		err = t.err
	}
	t.ot.setEnd(t.kernel, end)
	t.kernMs[kern] = append(t.kernMs[kern], float64(end-t0)/1e6)
	return err
}

// closeLoop finishes the loop in flight at time end: chunk spans, chunk
// times, affinity against the previous loop over the same range, and the
// per-loop bound on steal-protocol entries.
func (t *npbTrace) closeLoop(end int64) error {
	if !t.open {
		return nil
	}
	t.ot.setEnd(t.loop, end)
	entries := float64(claimEntries(t.p) - t.entries0)
	t.entriesMax = max(t.entriesMax, entries)
	t.mu.Lock()
	cur := t.cur
	t.cur = nil
	t.mu.Unlock()
	loopID := t.loop
	t.open = false
	t.loops++
	t.loopNs += end - t.loopStart
	if entries > float64(t.workers) {
		return fmt.Errorf("%.0f claim-phase entries in one loop, more than P = %d", entries, t.workers)
	}
	if len(cur) == 0 {
		return nil
	}
	sort.Slice(cur, func(i, j int) bool {
		if cur[i].w != cur[j].w {
			return cur[i].w < cur[j].w
		}
		return cur[i].start < cur[j].start
	})
	chunks := make([]chunk, len(cur))
	lo, hi := math.MaxInt, math.MinInt
	var workers int64
	for i, s := range cur {
		e := end
		if i+1 < len(cur) && cur[i+1].w == s.w {
			e = cur[i+1].start
		} else {
			workers++
		}
		t.ot.add("loop.chunk", loopID, s.start, e)
		t.chunkUs = addSample(t.chunkUs, float64(e-s.start)/1e3)
		t.busyNs += e - s.start
		chunks[i] = s.chunk
		lo, hi = min(lo, s.lo), max(hi, s.hi)
	}
	t.chunks += int64(len(cur))
	t.workersN += workers
	key := [2]int{lo, hi}
	if prev, ok := t.prev[key]; ok {
		same, total := affinitySame(prev, chunks)
		t.same += same
		t.total += total
	}
	t.prev[key] = chunks
	return nil
}

func (t *npbTrace) metrics(m map[string]float64) error {
	if t.loops == 0 || t.total == 0 {
		return fmt.Errorf("traced npb phase saw no repeated loops")
	}
	m["loop.chunks_per_call"] = float64(t.chunks) / float64(t.loops)
	m["loop.chunk_us_p50"] = newDist(t.chunkUs).pct(50)
	m["loop.workers_per_call"] = float64(t.workersN) / float64(t.loops)
	m["loop.busy_share"] = float64(t.busyNs) / (float64(t.workers) * float64(t.loopNs))
	m["loop.affinity"] = float64(t.same) / float64(t.total)
	m["sched.loop_entries_per_loop_max"] = t.entriesMax
	for k, ms := range t.kernMs {
		m[kernelNames[k]+"_ms_p50"] = newDist(ms).pct(50)
	}
	return nil
}
