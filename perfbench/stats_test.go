package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"hybridloop/internal/metrics"
	"hybridloop/internal/nas"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	d := newDist(s)
	for _, c := range []struct {
		p            float64
		want         float64
		beyond, size int
	}{
		{50, 50, 50, 100},
		{90, 90, 10, 100},
		{99, 99, 1, 100},
		{100, 100, 0, 100},
		{0.5, 1, 99, 100},
	} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
		if got := d.beyond(c.p); got != c.beyond {
			t.Errorf("beyond p%g = %d, want %d", c.p, got, c.beyond)
		}
		if d.n() != c.size {
			t.Errorf("n = %d, want %d", d.n(), c.size)
		}
	}
	if s[0] != 100 {
		t.Error("newDist sorted its input in place")
	}
	// Few samples: the p99 of 40 samples is the maximum, with none beyond.
	few := newDist([]float64{3, 1, 2, 40, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
		21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 4})
	if few.pct(99) != 40 || few.beyond(99) != 0 || few.pct(90) != 36 || few.beyond(90) != 4 {
		t.Errorf("40 samples: p99 %g (%d beyond), p90 %g (%d beyond)",
			few.pct(99), few.beyond(99), few.pct(90), few.beyond(90))
	}
	if !math.IsNaN(newDist(nil).pct(50)) || !math.IsNaN(median(nil)) {
		t.Error("percentile of no samples is not NaN")
	}
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("median of 3 = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// Two workers' chunks overlap in [30,40); covered time counts once.
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		// Children reaching outside the parent are clipped to it.
		{"clipped", []interval{{-10, 5}, {90, 120}}, 85},
		{"unsorted mix", []interval{{90, 120}, {30, 60}, {10, 40}, {55, 58}}, 40},
		{"covering", []interval{{0, 100}, {40, 50}}, 0},
		{"empty child", []interval{{50, 50}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerFoldsSelfTimeByLayer(t *testing.T) {
	tr := newTracer(10)
	ot := tr.newOp(8)
	root := ot.add("op", 0, 0, 100)
	call := ot.add("hybridloop.For", root, 10, 90)
	ot.add("loop.chunk", call, 20, 60)
	ot.add("loop.chunk", call, 40, 80)
	tr.finish(ot)
	want := map[string]int64{"op": 20, "hybridloop": 20, "loop": 80}
	for l, v := range want {
		if tr.selfNs[l] != v {
			t.Errorf("self %s = %d, want %d", l, tr.selfNs[l], v)
		}
	}
	if len(tr.kept) != 4 || tr.kept[2].Parent != call {
		t.Errorf("kept spans %+v", tr.kept)
	}
	// Spans beyond the buffer are lost, not written out of bounds.
	small := tr.newOp(1)
	small.begin("op", 0)
	if id := small.begin("loop.chunk", 1); id != 0 || small.lost.Load() != 1 {
		t.Errorf("overflowing span got id %d, lost %d", id, small.lost.Load())
	}
	small.end(0)
}

func TestAffinitySame(t *testing.T) {
	prev := []chunk{{50, 100, 1}, {0, 50, 0}}
	cur := []chunk{{75, 100, 1}, {0, 25, 0}, {25, 75, 1}}
	same, total := affinitySame(prev, cur)
	if same != 75 || total != 100 {
		t.Errorf("same/total = %d/%d, want 75/100", same, total)
	}
	same, total = affinitySame(prev, []chunk{{0, 100, 2}})
	if same != 0 || total != 100 {
		t.Errorf("disjoint workers: same/total = %d/%d, want 0/100", same, total)
	}
	same, _ = affinitySame(cur, cur)
	if same != 100 {
		t.Errorf("identical placement: same = %d, want 100", same)
	}
}

func TestIndexSum(t *testing.T) {
	for _, r := range [][2]int{{0, 0}, {0, 1}, {5, 6}, {3, 300}, {65535, 65535 + 131072}, {7, 3}} {
		var want int64
		for i := r[0]; i < r[1]; i++ {
			want += int64(i)
		}
		if got := indexSum(r[0], r[1]); got != want {
			t.Errorf("indexSum(%d, %d) = %d, want %d", r[0], r[1], got, want)
		}
		if r[1] >= r[0] && sumRange(r[0], r[1]) != want {
			t.Errorf("sumRange(%d, %d) = %d, want %d", r[0], r[1], sumRange(r[0], r[1]), want)
		}
	}
}

func TestVerificationRejectsPerturbedValues(t *testing.T) {
	ref := nas.CGClasses['W'].ZetaRef
	if err := verifyZeta(ref, ref); err != nil {
		t.Errorf("exact zeta rejected: %v", err)
	}
	if err := verifyZeta(ref+5e-11, ref); err != nil {
		t.Errorf("zeta within 1e-10 rejected: %v", err)
	}
	for _, z := range []float64{ref + 1e-9, ref - 1e-9, math.NaN()} {
		if verifyZeta(z, ref) == nil {
			t.Errorf("zeta %.15g accepted against %.15g", z, ref)
		}
	}
	if checkRel("MG S rnm2", npbMGClassS*(1+1e-7), npbMGClassS, mgRnm2Tol) == nil {
		t.Error("rnm2 off by a relative 1e-7 accepted")
	}
	if checkRel("score", 1.0000001, 1, serveScoreTol) == nil {
		t.Error("score off by a relative 1e-7 accepted")
	}
}

func TestFineloopsVerifyRejectsWrongResult(t *testing.T) {
	f := &fineloops{seen: make([]uint8, 64), epoch: 3}
	s := loopSpec{kind: kindFor, begin: 10, n: 20}
	f.cnt.Store(20)
	f.sum.Store(indexSum(10, 30))
	if err := f.verify(s); err != nil {
		t.Fatalf("correct loop rejected: %v", err)
	}
	f.sum.Add(1)
	if f.verify(s) == nil {
		t.Error("wrong index sum accepted")
	}
	f.sum.Add(-1)
	f.cnt.Store(19)
	if f.verify(s) == nil {
		t.Error("missing iteration accepted")
	}
	each := loopSpec{kind: kindForEach, begin: 4, n: 8}
	for i := 4; i < 12; i++ {
		f.seen[i] = 3
	}
	if err := f.verify(each); err != nil {
		t.Fatalf("complete ForEach rejected: %v", err)
	}
	f.seen[7] = 2
	if f.verify(each) == nil {
		t.Error("ForEach with an index not run accepted")
	}
	f.seen[7] = 3
	f.dup.Store(true)
	if f.verify(each) == nil {
		t.Error("ForEach with an index run twice accepted")
	}
}

func scrapeOf(t *testing.T, text string) *metrics.Scrape {
	t.Helper()
	s, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMonotoneScrapes(t *testing.T) {
	const prev = `# TYPE c_total counter
c_total{w="0"} 5
# TYPE g gauge
g 9
# TYPE h histogram
h_bucket{le="+Inf"} 3
h_sum 1.5
h_count 3
`
	p := scrapeOf(t, prev)
	ok := scrapeOf(t, strings.NewReplacer(`c_total{w="0"} 5`, `c_total{w="0"} 6`, "g 9", "g 1").Replace(prev))
	if err := monotone(p, ok); err != nil {
		t.Errorf("growing counters and a falling gauge rejected: %v", err)
	}
	for name, cur := range map[string]string{
		"counter down":   strings.Replace(prev, `c_total{w="0"} 5`, `c_total{w="0"} 4`, 1),
		"count down":     strings.Replace(prev, "h_count 3", "h_count 2", 1),
		"series missing": strings.Replace(prev, `c_total{w="0"} 5`, `c_total{w="1"} 5`, 1),
	} {
		if monotone(p, scrapeOf(t, cur)) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
