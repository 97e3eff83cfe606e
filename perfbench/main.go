// Command perfbench is the repository's benchmark: it runs one named
// workload against the hybridloop runtime for a fixed time, checks every
// result it computes, and prints its metrics by name and unit, ending with
// one JSON line.
//
//	bash perfbench/run.sh --workload fineloops --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload untraced, then traced (spans recorded around the
// benchmark's calls into each layer), then the layer ladder, and prints
// the per-layer metrics; spans are written under .bench_build/spans/.
// MAPPING.md lists which layer metric should move which end-to-end metric.
// A wrong result prints "correct": false and exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybridloop"
)

const (
	// setups is how many times a run builds its workload; setup_s is the
	// median, and the last build is the one measured.
	setups = 5
	// A phase is cut into equal windows, and throughput and latency are
	// medians over the windows, so a burst of interference from outside
	// the process moves one window rather than the result. Workloads with
	// many ops use fineWindows; npb, with a few dozen passes a run, uses
	// coarseWindows so each window still holds more than ten passes.
	fineWindows   = 6
	coarseWindows = 3
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"latency_p99_us", "us"},
	{"ok_ratio", "ratio"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"iters_per_s", "1/s"},
}

// perLayer are the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"hybridloop.first_chunk_us_p50", "us"},
	{"hybridloop.first_chunk_us_p99", "us"},
	{"hybridloop.join_us_p50", "us"},
	{"hybridloop.join_us_p99", "us"},
	{"hybridloop.self_us_p50", "us"},
	{"hybridloop.for_empty_us", "us"},
	{"hybridloop.for_empty_allocs", "count"},
	{"hybridloop.submit_delta_us", "us"},
	{"hybridloop.submit_delta_allocs", "count"},
	{"hybridloop.gate_empty_us", "us"},
	{"hybridloop.gate_empty_allocs", "count"},
	{"hybridloop.gate_delta_us", "us"},
	{"hybridloop.gate_delta_allocs", "count"},
	{"hybridloop.metrics_empty_us", "us"},
	{"hybridloop.metrics_empty_allocs", "count"},
	{"hybridloop.metrics_delta_us", "us"},
	{"hybridloop.metrics_delta_allocs", "count"},
	{"hybridloop.gate_rejected_ratio", "ratio"},
	{"hybridloop.gate_waited_ratio", "ratio"},
	{"loop.chunks_per_call", "count"},
	{"loop.chunk_us_p50", "us"},
	{"loop.workers_per_call", "count"},
	{"loop.busy_share", "ratio"},
	{"loop.affinity", "ratio"},
	{"loop.for_empty_us", "us"},
	{"loop.for_empty_allocs", "count"},
	{"loop.for_delta_us", "us"},
	{"loop.for_delta_allocs", "count"},
	{"sched.tasks_per_op", "count"},
	{"sched.steals_per_op", "count"},
	{"sched.range_steals_per_op", "count"},
	{"sched.failed_sweeps_per_op", "count"},
	{"sched.parks_per_op", "count"},
	{"sched.loop_entries_per_op", "count"},
	{"sched.loop_entries_per_loop_max", "count"},
	{"sched.steal_success_ratio", "ratio"},
	{"sched.busy_ratio", "ratio"},
	{"sched.run_empty_us", "us"},
	{"sched.run_empty_allocs", "count"},
	{"deque.push_pop_ns", "ns"},
	{"deque.steal_ns", "ns"},
	{"deque.steal_contended_ns", "ns"},
	{"deque.take_front_ns", "ns"},
	{"deque.take_front_contended_ns", "ns"},
	{"deque.steal_back_ns", "ns"},
	{"core.claim_ns", "ns"},
	{"core.claim_contended_ns", "ns"},
	{"nas.cg_ms_p50", "ms"},
	{"nas.mg_ms_p50", "ms"},
	{"nas.ft_ms_p50", "ms"},
	{"nas.is_ms_p50", "ms"},
	{"metrics.scrape_us_p50", "us"},
	{"metrics.series", "count"},
	{"loadgen.lag_us_p50", "us"},
	{"loadgen.lag_us_p99", "us"},
	{"go.gc_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.op_self_us_p50", "us"},
	{"trace.spans", "count"},
}

// workload is one traffic mix the benchmark can drive.
type workload interface {
	// setup builds the workload's inputs from seed, its pool and its
	// reference results, and warms them up.
	setup(seed uint64) error
	// run drives the workload for d, checks every result and fills ph.
	// tr is nil in an untraced phase; in a traced phase the workload
	// records spans and adds its layer metrics to ph.layer.
	run(ph *phase, d time.Duration, tr *tracer) error
	// rate is an upper estimate of operations per second, used to size
	// the sample buffers before measuring so their growth is not counted
	// as the workload's allocation.
	rate() float64
	pool() *hybridloop.Pool
	close()
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	elapsed           time.Duration
	attempted, failed int64
	lat, lag          []float64 // µs: successful-op latency, generator lateness
	iters             int64     // loop iterations completed, all tenants
	layer             map[string]float64

	// The workload sets windows; mark records the cuts.
	windows int
	d       time.Duration
	cuts    []cut

	// Filled by drive.
	mallocs, bytes uint64
	gcs            uint32
	stats          hybridloop.Stats // scheduler counter deltas
}

func (ph *phase) ok() int64 { return ph.attempted - ph.failed }

// cut is the state of a phase at the end of one of its windows.
type cut struct {
	at    time.Duration // since the phase started
	n     int           // latency samples so far
	iters int64         // iterations so far
}

// mark records the end of every window that elapsed has passed.
func (ph *phase) mark(elapsed time.Duration, iters int64) {
	for len(ph.cuts) < ph.windows && elapsed >= ph.d*time.Duration(len(ph.cuts)+1)/time.Duration(ph.windows) {
		ph.cuts = append(ph.cuts, cut{elapsed, len(ph.lat), iters})
	}
}

// stretch is one window's figures.
type stretch struct {
	lat          dist
	ops, itersPS float64
}

// stretches splits a phase into its windows. A window in which no op
// completed (an op longer than a window) is merged into the next.
func (ph *phase) stretches() ([]stretch, error) {
	if ph.windows < 1 || len(ph.cuts) != ph.windows {
		return nil, fmt.Errorf("phase marked %d of %d windows", len(ph.cuts), ph.windows)
	}
	var out []stretch
	prev := cut{}
	for _, c := range ph.cuts {
		secs := (c.at - prev.at).Seconds()
		if c.n == prev.n || secs <= 0 {
			continue
		}
		out = append(out, stretch{
			lat:     newDist(ph.lat[prev.n:c.n]),
			ops:     float64(c.n-prev.n) / secs,
			itersPS: float64(c.iters-prev.iters) / secs,
		})
		prev = c
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no op completed in the phase")
	}
	return out, nil
}

func newWorkload(name string) workload {
	switch name {
	case "fineloops":
		return &fineloops{}
	case "npb":
		return &npb{}
	case "serve":
		return &serve{}
	}
	return nil
}

// drive runs one phase and takes the allocation, GC and scheduler
// counter deltas around it.
func drive(w workload, d time.Duration, tr *tracer) (*phase, error) {
	n := int(w.rate()*d.Seconds()) + 16
	ph := &phase{lat: make([]float64, 0, n), lag: make([]float64, 0, n), layer: map[string]float64{},
		d: d}
	runtime.GC()
	var m0, m1 runtime.MemStats
	s0 := w.pool().Stats()
	runtime.ReadMemStats(&m0)
	err := w.run(ph, d, tr)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	s1 := w.pool().Stats()
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.bytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcs = m1.NumGC - m0.NumGC
	ph.stats = statsDelta(s0, s1)
	return ph, nil
}

func statsDelta(a, b hybridloop.Stats) hybridloop.Stats {
	return hybridloop.Stats{
		Tasks:        b.Tasks - a.Tasks,
		Steals:       b.Steals - a.Steals,
		FailedSteals: b.FailedSteals - a.FailedSteals,
		LoopEntries:  b.LoopEntries - a.LoopEntries,
		RangeSteals:  b.RangeSteals - a.RangeSteals,
		Parks:        b.Parks - a.Parks,
		BusyNanos:    b.BusyNanos - a.BusyNanos,
		IdleNanos:    b.IdleNanos - a.IdleNanos,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fineloops, npb or serve")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 20, "measured seconds")
	traced := fl.Int("trace", 0, "1 = traced run with per-layer metrics")
	spansDir := fl.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fineloops|npb|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "host: %s\n", fingerprint())
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)

	fail := func(err error, attempted, failed int64) int {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		out, _ := json.Marshal(result{Correct: false, Attempted: max(attempted, 1), Failed: max(failed, 1),
			Metrics: map[string]metricValue{}})
		fmt.Fprintln(stdout, string(out))
		return 1
	}

	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(*seed); err != nil {
			return fail(fmt.Errorf("setup: %w", err), 0, 0)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	d := time.Duration(*seconds) * time.Second
	steal0, total0 := cpuSteal()
	m := map[string]float64{}
	var defs []metricDef
	var res *phase
	if *traced == 0 {
		ph, err := drive(w, d, nil)
		if err != nil {
			return fail(err, 0, 0)
		}
		res = ph
		defs = endToEnd
		if err := endToEndMetrics(stdout, m, ph, setupS); err != nil {
			return fail(err, ph.attempted, ph.failed)
		}
	} else {
		ph, tr, err := tracedRun(w, d, m)
		if err != nil {
			return fail(err, 0, 0)
		}
		res = ph
		defs = perLayer
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			return fail(err, ph.attempted, ph.failed)
		}
		fmt.Fprintf(stdout, "spans: %s (self time per op by layer: %s)\n", path, tr.selfSummary())
		for _, md := range perLayer {
			fmt.Fprintf(stdout, "%s = %.6g %s\n", md.name, m[md.name], md.unit)
		}
	}
	out := result{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, md := range defs {
		v, ok := m[md.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s was not measured", md.name), res.attempted, res.failed)
		}
		out.Metrics[md.name] = metricValue{Value: v, Unit: md.unit}
	}
	if res.attempted < 1 {
		return fail(fmt.Errorf("no operation attempted"), 0, 0)
	}
	// Context for reading the figures: the share of the host's CPU time
	// that its hypervisor gave to other guests while this run measured.
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Fprintf(stdout, "host: cpu steal %.1f%% during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err, res.attempted, res.failed)
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// endToEndMetrics derives the user-visible metrics from an untraced
// phase and prints them with their sample counts.
func endToEndMetrics(w io.Writer, m map[string]float64, ph *phase, setupS []float64) error {
	secs := ph.elapsed.Seconds()
	m["setup_s"] = median(setupS)
	m["ok_ratio"] = ratio(float64(ph.ok()), float64(ph.attempted))
	m["allocs_per_op"] = ratio(float64(ph.mallocs), float64(ph.attempted))
	m["bytes_per_op"] = ratio(float64(ph.bytes), float64(ph.attempted))
	lat := newDist(ph.lat)
	fmt.Fprintf(w, "setup_s = %.4f s (median of %d set-ups)\n", m["setup_s"], len(setupS))
	st, err := ph.stretches()
	if err != nil {
		return err
	}
	med := func(f func(stretch) float64) float64 {
		v := make([]float64, len(st))
		for i, x := range st {
			v[i] = f(x)
		}
		return median(v)
	}
	m["ops_per_s"] = med(func(x stretch) float64 { return x.ops })
	m["iters_per_s"] = med(func(x stretch) float64 { return x.itersPS })
	minN := lat.n()
	for _, x := range st {
		minN = min(minN, x.lat.n())
	}
	fmt.Fprintf(w, "ops_per_s = %.2f 1/s (median over %d windows; %d ok of %d attempted in %.2f s)\n",
		m["ops_per_s"], len(st), ph.ok(), ph.attempted, secs)
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("latency_p%.0f_us", p)
		m[name] = med(func(x stretch) float64 { return x.lat.pct(p) })
		fmt.Fprintf(w, "%s = %.2f us (median over %d windows of >= %d samples, >= %d beyond; whole run %.2f us, n=%d, %d beyond)\n",
			name, m[name], len(st), minN, newDist(make([]float64, minN)).beyond(p), lat.pct(p), lat.n(), lat.beyond(p))
	}
	fmt.Fprintf(w, "ok_ratio = %.6f ratio (%d failed of %d)\n", m["ok_ratio"], ph.failed, ph.attempted)
	fmt.Fprintf(w, "allocs_per_op = %.3f count (%d mallocs over %d ops)\n", m["allocs_per_op"], ph.mallocs, ph.attempted)
	fmt.Fprintf(w, "bytes_per_op = %.1f B (%d bytes over %d ops)\n", m["bytes_per_op"], ph.bytes, ph.attempted)
	fmt.Fprintf(w, "iters_per_s = %.4g 1/s (%d iterations in %.2f s)\n", m["iters_per_s"], ph.iters, secs)
	return nil
}

// tracedRun measures the workload untraced, then traced, then runs the
// layer ladder and the workload's probes, and fills the per-layer
// metrics. It returns the traced phase and its tracer.
func tracedRun(w workload, d time.Duration, m map[string]float64) (*phase, *tracer, error) {
	plain, err := drive(w, d*3/10, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(200_000)
	ph, err := drive(w, d*45/100, tr)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range ph.layer {
		m[k] = v
	}
	tr.metrics(m)
	ops := float64(ph.attempted)
	st := ph.stats
	m["sched.tasks_per_op"] = float64(st.Tasks) / ops
	m["sched.steals_per_op"] = float64(st.Steals) / ops
	m["sched.range_steals_per_op"] = float64(st.RangeSteals) / ops
	m["sched.failed_sweeps_per_op"] = float64(st.FailedSteals) / ops
	m["sched.parks_per_op"] = float64(st.Parks) / ops
	m["sched.loop_entries_per_op"] = float64(st.LoopEntries) / ops
	// Hybrid loops move work by range steals rather than deque steals, so
	// both count as successes against the sweeps that found nothing.
	moved := float64(st.Steals + st.RangeSteals)
	m["sched.steal_success_ratio"] = ratio(moved, moved+float64(st.FailedSteals))
	m["sched.busy_ratio"] = float64(st.BusyNanos) / (float64(w.pool().Workers()) * float64(ph.elapsed))
	m["go.gc_per_s"] = float64(ph.gcs) / ph.elapsed.Seconds()
	lag := newDist(ph.lag)
	m["loadgen.lag_us_p50"] = lag.pct(50)
	m["loadgen.lag_us_p99"] = lag.pct(99)
	m["trace.overhead_ratio"] = (float64(ph.ok()) / ph.elapsed.Seconds()) /
		(float64(plain.ok()) / plain.elapsed.Seconds())
	// The ladder always runs; probes only for metrics the workload's own
	// traffic left unmeasured. Neither overrides a workload figure.
	extra := map[string]float64{}
	if err := ladder(extra); err != nil {
		return nil, nil, err
	}
	for _, pr := range probes {
		for _, name := range pr.metrics {
			if _, ok := m[name]; !ok {
				if err := pr.fn(extra); err != nil {
					return nil, nil, err
				}
				break
			}
		}
	}
	for k, v := range extra {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return ph, tr, nil
}

// fingerprint identifies the host and the code measured.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, revision())
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// /proc/stat, or zeros where that is not available.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// revision is the VCS revision the binary was built from, or, when the
// sources are not a git checkout, a digest of the module's Go sources.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not enter the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:12]
}
