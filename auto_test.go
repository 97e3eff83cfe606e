package hybridloop_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"hybridloop"
)

var everyStrategy = []hybridloop.Strategy{
	hybridloop.Hybrid, hybridloop.Static, hybridloop.DynamicStealing,
	hybridloop.DynamicSharing, hybridloop.Guided, hybridloop.Auto,
}

// TestReduceSumIdenticalAcrossAllStrategies covers the deterministic-
// reduction guarantee for every strategy including Auto, and with the
// serial cutoff engaged: fixed block boundaries make the result identical
// bit for bit no matter how chunks were scheduled.
func TestReduceSumIdenticalAcrossAllStrategies(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(7))
	defer pool.Close()
	const n = 30000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Cos(float64(i) * 0.001)
	}
	f := func(i int) float64 { return data[i] }

	want := hybridloop.Sum(pool, 0, n, f, hybridloop.WithStrategy(hybridloop.Hybrid))
	for _, s := range everyStrategy {
		// Repeat Auto invocations so exploration visits several arms; a
		// single pass would only test one configuration.
		reps := 1
		if s == hybridloop.Auto {
			reps = 25
		}
		for r := 0; r < reps; r++ {
			if got := hybridloop.Sum(pool, 0, n, f, hybridloop.WithStrategy(s)); got != want {
				t.Fatalf("Sum under %v rep %d = %v, want %v", s, r, got, want)
			}
			got := hybridloop.Reduce(pool, 0, n, 512, 0.0,
				func(lo, hi int) float64 {
					var acc float64
					for i := lo; i < hi; i++ {
						acc += data[i]
					}
					return acc
				},
				func(a, b float64) float64 { return a + b },
				hybridloop.WithStrategy(s))
			if gotCut := hybridloop.Reduce(pool, 0, n, 512, 0.0,
				func(lo, hi int) float64 {
					var acc float64
					for i := lo; i < hi; i++ {
						acc += data[i]
					}
					return acc
				},
				func(a, b float64) float64 { return a + b },
				hybridloop.WithStrategy(s), hybridloop.WithSerialCutoff(4096)); gotCut != got {
				t.Fatalf("Reduce under %v with serial cutoff = %v, without = %v", s, gotCut, got)
			}
		}
	}
}

func TestAutoLoopCoversEveryIteration(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(3))
	defer pool.Close()
	const n = 8192
	for rep := 0; rep < 30; rep++ {
		counts := make([]int32, n)
		pool.For(0, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}, hybridloop.WithAuto())
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("rep %d: iteration %d ran %d times", rep, i, c)
			}
		}
	}
	sites := pool.TunerSites()
	if len(sites) == 0 {
		t.Fatal("Auto loop left no tuner profile")
	}
	if sites[0].Decisions != 30 {
		t.Fatalf("30 invocations, %d decisions", sites[0].Decisions)
	}
}

// TestAutoSiteIdentity checks that distinct Auto call sites keep
// distinct profiles, one per public entry point, each attributed to the
// caller's line — never to the library file that materialized the loop
// options (hybridloop.go, cancel.go, serve.go) or to Reduce's inner loop
// in parallel.go.
func TestAutoSiteIdentity(t *testing.T) {
	pool := hybridloop.NewPool(2, hybridloop.WithSeed(5))
	defer pool.Close()
	const n = 5000
	body := func(lo, hi int) {}
	auto := hybridloop.WithAuto()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sites := []struct {
		name string
		run  func() error
	}{
		{"For A", func() error { pool.For(0, n, body, auto); return nil }},
		{"For B", func() error { pool.For(0, n, body, auto); return nil }},
		{"Sum", func() error { // via Reduce
			_ = hybridloop.Sum(pool, 0, n, func(i int) float64 { return 1 }, auto)
			return nil
		}},
		{"ForEach", func() error { pool.ForEach(0, n, func(i int) {}, auto); return nil }},
		{"ForErr", func() error {
			return pool.ForErr(0, n, func(lo, hi int) error { return nil }, auto)
		}},
		{"ForEachErr", func() error {
			return pool.ForEachErr(0, n, func(i int) error { return nil }, auto)
		}},
		{"TryFor", func() error { return pool.TryFor(0, n, body, auto) }},
		{"ForCtx", func() error { return pool.ForCtx(ctx, 0, n, body, auto) }},
		{"ForWorker", func() error {
			pool.ForWorker(0, n, func(_ *hybridloop.Worker, lo, hi int) {}, auto)
			return nil
		}},
	}
	for _, s := range sites {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	profiles := pool.TunerSites()
	if len(profiles) != len(sites) {
		t.Fatalf("%d distinct call sites produced %d profiles: %+v", len(sites), len(profiles), profiles)
	}
	for _, s := range profiles {
		if s.Site == "" {
			t.Fatalf("profile with empty site name: %+v", s)
		}
		for _, lib := range []string{"parallel.go", "hybridloop.go", "cancel.go", "serve.go"} {
			if containsStr(s.Site, lib) {
				t.Fatalf("wrapper attribution leak: site %q", s.Site)
			}
		}
		if !containsStr(s.Site, "auto_test.go") {
			t.Fatalf("site %q does not name the caller's file", s.Site)
		}
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestTunerSnapshotWarmStart round-trips learned profiles through the
// public snapshot API: a second pool loading the snapshot starts on the
// committed configuration instead of exploring.
func TestTunerSnapshotWarmStart(t *testing.T) {
	const n = 4096
	run := func(p *hybridloop.Pool, reps int) {
		for r := 0; r < reps; r++ {
			p.For(0, n, func(lo, hi int) {}, hybridloop.WithAuto())
		}
	}
	p1 := hybridloop.NewPool(4, hybridloop.WithSeed(11))
	run(p1, 40)
	// A transient re-exploration (cost drift on a noisy machine) can be
	// in flight at any fixed rep count; keep invoking until the site is
	// committed again.
	sites := p1.TunerSites()
	for tries := 0; len(sites) == 1 && sites[0].State != "committed" && tries < 50; tries++ {
		run(p1, 5)
		sites = p1.TunerSites()
	}
	if len(sites) != 1 || sites[0].State != "committed" {
		t.Fatalf("first pool did not converge: %+v", sites)
	}
	snap, err := p1.TunerSnapshot()
	p1.Close()
	if err != nil {
		t.Fatal(err)
	}

	p2 := hybridloop.NewPool(4, hybridloop.WithSeed(12))
	defer p2.Close()
	if err := p2.LoadTunerSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	run(p2, 1)
	s2 := p2.TunerSites()
	if len(s2) != 1 {
		t.Fatalf("warm pool has %d sites", len(s2))
	}
	if s2[0].State != "committed" {
		t.Fatalf("warm-started site is %s, want committed from the snapshot", s2[0].State)
	}
	if s2[0].Committed != sites[0].Committed {
		t.Fatalf("warm start committed to arm %d, snapshot had %d", s2[0].Committed, sites[0].Committed)
	}
}

// TestAutoReproducibleUnderSeed: the arm sequence handed out for an
// identical invocation sequence is identical across runs with the same
// pool seed (observations differ — wall clock — but the exploration
// schedule and the committed choice's identity may not depend on them
// until costs actually differ enough to matter; here we assert the
// deterministic part: the set and order of explored arms).
func TestAutoReproducibleUnderSeed(t *testing.T) {
	played := func(seed uint64) []int64 {
		p := hybridloop.NewPool(4, hybridloop.WithSeed(seed))
		defer p.Close()
		// Exactly enough invocations to cover the exploration schedule of
		// the single site, so every decision is schedule-driven and none
		// depends on measured cost.
		var arms []int64
		for r := 0; r < 10; r++ {
			p.For(0, 100000, func(lo, hi int) {}, hybridloop.WithAuto())
		}
		for _, s := range p.TunerSites() {
			for i, a := range s.Arms {
				for k := int64(0); k < a.Plays; k++ {
					arms = append(arms, int64(i))
				}
			}
		}
		return arms
	}
	a, b := played(99), played(99)
	if len(a) != len(b) {
		t.Fatalf("play multisets differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("play multisets differ at %d: %v vs %v", i, a, b)
		}
	}
}
