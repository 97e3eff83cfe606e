package hybridloop_test

// Multi-tenant serving tests: many independent loops submitted to one
// pool concurrently (the regime examples/server runs in), plus the
// admission-control behaviors of the public API — TryFor's
// ErrBackpressure, For's inline degradation, and ForCtx's bounded
// blocking admission.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridloop"
	"hybridloop/internal/metrics"
)

// TestConcurrentIndependentLoops submits For, ForErr, and Reduce loops
// from many goroutines at once and verifies every iteration of every
// loop ran exactly once — the loop registry, demand accounting, and
// cross-loop steal protocol must not leak iterations between tenants.
func TestConcurrentIndependentLoops(t *testing.T) {
	before := runtime.NumGoroutine()
	p := hybridloop.NewPool(4)

	const (
		tenants = 12
		n       = 5000
	)
	hits := make([][]int32, tenants)
	for i := range hits {
		hits[i] = make([]int32, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := hits[g]
			switch g % 3 {
			case 0:
				p.For(0, n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&h[i], 1)
					}
				})
			case 1:
				if err := p.ForErr(0, n, func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&h[i], 1)
					}
					return nil
				}); err != nil {
					t.Errorf("tenant %d: ForErr = %v", g, err)
				}
			case 2:
				got := hybridloop.Reduce(p, 0, n, 256, 0,
					func(lo, hi int) int {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&h[i], 1)
						}
						return hi - lo
					},
					func(a, b int) int { return a + b })
				if got != n {
					t.Errorf("tenant %d: Reduce = %d, want %d", g, got, n)
				}
			}
		}(g)
	}
	wg.Wait()

	for g := range hits {
		for i, c := range hits[g] {
			if c != 1 {
				t.Fatalf("tenant %d iteration %d ran %d times, want exactly once", g, i, c)
			}
		}
	}

	p.Close()
	// No goroutine leaks: workers exit on Close and no per-loop helpers
	// linger. Allow slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// autoSiteA/autoSiteB give the tuner two distinct call sites. Each runs
// its loop with a very different body cost so cross-contamination of the
// learned profiles would be visible in the site table.
func autoSiteA(p *hybridloop.Pool, n int, sink *int64) {
	p.For(0, n, func(lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		atomic.AddInt64(sink, s)
	}, hybridloop.WithAuto())
}

func autoSiteB(p *hybridloop.Pool, n int, sink *int64) {
	p.For(0, n, func(lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i) * int64(i%7)
		}
		atomic.AddInt64(sink, s)
	}, hybridloop.WithAuto())
}

// TestTunerSitesNotCrossContaminated runs two Auto call sites from
// concurrent goroutines and checks the tuner kept them as separate
// sites with sane trip counts — concurrent tenants must not blend
// their profiles into one site or lose trips.
func TestTunerSitesNotCrossContaminated(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()

	const trips = 20
	var sink int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < trips; i++ {
			autoSiteA(p, 4096, &sink)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < trips; i++ {
			autoSiteB(p, 4096, &sink)
		}
	}()
	wg.Wait()

	// Sites are keyed by file:line of the For call, so the two helpers
	// must appear as two distinct entries, each having observed exactly
	// its own trips-many decisions — no blending, no lost trips.
	var mine []string
	sites := p.TunerSites()
	for _, s := range sites {
		if !containsStr(s.Site, "multitenant_test.go") {
			continue
		}
		mine = append(mine, s.Site)
		if s.Decisions != trips {
			t.Errorf("site %s saw %d decisions, want %d", s.Site, s.Decisions, trips)
		}
	}
	if len(mine) != 2 || mine[0] == mine[1] {
		t.Fatalf("tuner sites for the two Auto helpers = %v, want 2 distinct entries", mine)
	}
}

// occupyPool fills every in-flight slot of p's gate with loops whose
// bodies block on the returned release function. It waits until the gate
// reports all slots held before returning.
func occupyPool(t *testing.T, p *hybridloop.Pool, slots int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.For(0, 1, func(lo, hi int) { <-ch })
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, ok := p.AdmissionStats(); ok && s.InFlight >= slots {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("occupying loops never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(ch); wg.Wait() }
}

func TestTryForBackpressure(t *testing.T) {
	p := hybridloop.NewPool(2, hybridloop.WithMaxInFlightLoops(1))
	defer p.Close()

	release := occupyPool(t, p, 1)

	var ran atomic.Int64
	err := p.TryFor(0, 100, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if !errors.Is(err, hybridloop.ErrBackpressure) {
		t.Fatalf("TryFor under full gate = %v, want ErrBackpressure", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("rejected TryFor executed %d iterations, want 0", ran.Load())
	}

	release()
	if err := p.TryFor(0, 100, func(lo, hi int) { ran.Add(int64(hi - lo)) }); err != nil {
		t.Fatalf("TryFor after release = %v, want nil", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("admitted TryFor executed %d iterations, want 100", ran.Load())
	}
	if s, _ := p.AdmissionStats(); s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
}

// TestForDegradesInlineUnderBackpressure: a blocking For/ForErr that the
// gate rejects must still complete — serially, on the calling goroutine —
// with every iteration run exactly once.
func TestForDegradesInlineUnderBackpressure(t *testing.T) {
	p := hybridloop.NewPool(2, hybridloop.WithMaxInFlightLoops(1))
	defer p.Close()

	release := occupyPool(t, p, 1)
	defer release()

	const n = 1000
	hits := make([]int32, n)
	p.For(0, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, c := range hits {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times under inline degradation", i, c)
		}
	}

	wantErr := errors.New("boom")
	if err := p.ForErr(0, 10, func(lo, hi int) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("inline ForErr = %v, want %v", err, wantErr)
	}
	if s, _ := p.AdmissionStats(); s.Inline < 2 {
		t.Fatalf("Inline = %d, want >= 2", s.Inline)
	}
}

// TestAdmissionPolicyPerEntryPoint pins each public entry point's
// admission policy on a full gate: For, ForEach, ForErr and ForEachErr
// degrade to a serial inline run; TryFor rejects with ErrBackpressure;
// ForCtx waits under its context (and so times out here); ForWorker waits
// until a slot frees and then runs the whole loop.
func TestAdmissionPolicyPerEntryPoint(t *testing.T) {
	const n = 1000
	count := func(hits []int32, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}
	cases := []struct {
		name    string
		inline  bool  // degrades to an inline run: GateStats.Inline +1
		blocks  bool  // waits until the occupying loop releases its slot
		wantErr error // non-nil: returned with zero iterations run
		run     func(p *hybridloop.Pool, hits []int32) error
	}{
		{"For", true, false, nil, func(p *hybridloop.Pool, hits []int32) error {
			p.For(0, n, func(lo, hi int) { count(hits, lo, hi) })
			return nil
		}},
		{"ForEach", true, false, nil, func(p *hybridloop.Pool, hits []int32) error {
			p.ForEach(0, n, func(i int) { count(hits, i, i+1) })
			return nil
		}},
		{"ForErr", true, false, nil, func(p *hybridloop.Pool, hits []int32) error {
			return p.ForErr(0, n, func(lo, hi int) error { count(hits, lo, hi); return nil })
		}},
		{"ForEachErr", true, false, nil, func(p *hybridloop.Pool, hits []int32) error {
			return p.ForEachErr(0, n, func(i int) error { count(hits, i, i+1); return nil })
		}},
		{"TryFor", false, false, hybridloop.ErrBackpressure, func(p *hybridloop.Pool, hits []int32) error {
			return p.TryFor(0, n, func(lo, hi int) { count(hits, lo, hi) })
		}},
		{"ForCtx", false, false, context.DeadlineExceeded, func(p *hybridloop.Pool, hits []int32) error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			return p.ForCtx(ctx, 0, n, func(lo, hi int) { count(hits, lo, hi) })
		}},
		{"ForWorker", false, true, nil, func(p *hybridloop.Pool, hits []int32) error {
			p.ForWorker(0, n, func(_ *hybridloop.Worker, lo, hi int) { count(hits, lo, hi) })
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := hybridloop.NewPool(2, hybridloop.WithMaxInFlightLoops(1))
			defer p.Close()
			release := sync.OnceFunc(occupyPool(t, p, 1))
			defer release()
			before, _ := p.AdmissionStats()
			hits := make([]int32, n)
			done := make(chan error, 1)
			go func() { done <- tc.run(p, hits) }()

			var err error
			if tc.blocks {
				select {
				case err = <-done:
					t.Fatalf("returned %v while the gate was full, want a wait", err)
				case <-time.After(20 * time.Millisecond):
				}
				for i := range hits {
					if c := atomic.LoadInt32(&hits[i]); c != 0 {
						t.Fatalf("iteration %d ran %d times before admission", i, c)
					}
				}
				release()
			}
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("entry point never returned")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			want := int32(1)
			if tc.wantErr != nil {
				want = 0
			}
			for i, c := range hits {
				if c != want {
					t.Fatalf("iteration %d ran %d times, want %d", i, c, want)
				}
			}
			after, _ := p.AdmissionStats()
			wantInline := before.Inline
			if tc.inline {
				wantInline++
			}
			if after.Inline != wantInline {
				t.Fatalf("GateStats.Inline %d -> %d, want %d", before.Inline, after.Inline, wantInline)
			}
		})
	}
}

// TestInlineRunKeepsLabelSite: a loop the gate degrades to an inline run
// is recorded on the metrics plane under its WithLabel site, as the
// option documents, with strategy="inline".
func TestInlineRunKeepsLabelSite(t *testing.T) {
	reg := hybridloop.NewMetricsRegistry()
	p := hybridloop.NewPool(2, hybridloop.WithMaxInFlightLoops(1), hybridloop.WithMetrics(reg))
	defer p.Close()
	release := occupyPool(t, p, 1)
	defer release()

	p.For(0, 100, func(lo, hi int) {}, hybridloop.WithLabel("x"))

	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	key := `hybridloop_loops_total{site="x",strategy="inline"}`
	if v, ok := sc.Value(key); !ok || v != 1 {
		t.Fatalf("%s = %v (present %v), want 1; loops: %v", key, v, ok, sc.Family("hybridloop_loops_total"))
	}
}

// TestForCtxAdmissionTimeout: ForCtx queues for admission under its
// context; if no slot frees before the deadline it returns ctx's error
// without executing any iteration.
func TestForCtxAdmissionTimeout(t *testing.T) {
	p := hybridloop.NewPool(2, hybridloop.WithMaxInFlightLoops(1))
	defer p.Close()

	release := occupyPool(t, p, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Int64
	err := p.ForCtx(ctx, 0, 100, func(lo, hi int) { ran.Add(1) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ForCtx under full gate = %v, want DeadlineExceeded", err)
	}
	if ran.Load() != 0 {
		t.Fatal("timed-out ForCtx executed iterations")
	}

	// And the waiting variant: a slot freeing admits the queued loop.
	done := make(chan error, 1)
	go func() {
		done <- p.ForCtx(context.Background(), 0, 100, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued ForCtx = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued ForCtx never admitted after slot freed")
	}
	if ran.Load() != 100 {
		t.Fatalf("queued ForCtx executed %d iterations, want 100", ran.Load())
	}
}

// TestSmallLoopLatencyUnderGiantLoop is the behavioral fairness check
// behind examples/server: with a giant low-priority loop saturating the
// pool, a small high-priority loop must still complete promptly instead
// of waiting for the giant loop's partitions to drain. The bound is
// deliberately generous (CI machines); pre-fix the small loop waited for
// a whole giant-loop partition (~hundreds of ms here).
func TestSmallLoopLatencyUnderGiantLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	p := hybridloop.NewPool(4)
	defer p.Close()

	stop := make(chan struct{})
	giantDone := make(chan struct{})
	go func() {
		defer close(giantDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// ~1s of serial work per pass, cut into many chunks so
			// inject-yield points occur at chunk boundaries.
			p.For(0, 1<<22, func(lo, hi int) {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += float64(i % 97)
				}
				if s < 0 {
					panic("unreachable")
				}
			}, hybridloop.WithPriority(1))
		}
	}()

	// Wait for the giant loop to be running before measuring.
	time.Sleep(50 * time.Millisecond)

	var worst time.Duration
	for r := 0; r < 20; r++ {
		start := time.Now()
		p.For(0, 256, func(lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			_ = s
		}, hybridloop.WithPriority(8))
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(stop)
	<-giantDone

	// The small loop is microseconds of work; 250ms of budget absorbs CI
	// noise while still catching "waited for a giant partition to drain".
	if worst > 250*time.Millisecond {
		t.Fatalf("small-loop worst latency %v beside giant loop, want < 250ms", worst)
	}
}

// TestCrossLoopCancelStress pins the Abandon/StealHalf interleaving
// under cross-loop cancellation (run under -race and in the stress job):
// many concurrent ForErr loops, some of which fail mid-flight while
// workers from dying loops steal into live ones. Iterations of loops
// that complete must run exactly once; errors must propagate; nothing
// may deadlock or trip the race detector.
func TestCrossLoopCancelStress(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()

	errBoom := errors.New("boom")
	const (
		rounds  = 30
		tenants = 8
		n       = 20000
	)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < tenants; g++ {
			wg.Add(1)
			go func(g, r int) {
				defer wg.Done()
				if g%2 == 0 {
					// Failing tenant: cancel somewhere mid-range.
					trip := (r*1021 + g*797) % n
					err := p.ForErr(0, n, func(lo, hi int) error {
						if lo <= trip && trip < hi {
							return errBoom
						}
						return nil
					})
					if err != nil && !errors.Is(err, errBoom) {
						t.Errorf("ForErr = %v, want boom or nil", err)
					}
				} else {
					// Surviving tenant: must see exactly-once execution.
					var cnt atomic.Int64
					if err := p.ForErr(0, n, func(lo, hi int) error {
						cnt.Add(int64(hi - lo))
						return nil
					}); err != nil {
						t.Errorf("clean ForErr = %v", err)
					} else if cnt.Load() != n {
						t.Errorf("clean ForErr ran %d iterations, want %d", cnt.Load(), n)
					}
				}
			}(g, r)
		}
		wg.Wait()
	}
}
