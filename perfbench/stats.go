package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a set of samples summarised by nearest-rank percentiles. The
// sample count travels with every percentile so a tail figure is never
// quoted without the number of samples behind it.
type dist struct {
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.sorted) }

// pct returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It
// returns NaN for an empty set.
func (d dist) pct(p float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.sorted[rank-1]
}

// beyond is the number of samples strictly above the p-th percentile's
// rank: how many samples the tail figure rests on.
func (d dist) beyond(p float64) int {
	n := len(d.sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// median of a small set of values (set-up times, windows, ladder rounds):
// the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	d := newDist(v)
	n := d.n()
	if n == 0 {
		return math.NaN()
	}
	return (d.sorted[(n-1)/2] + d.sorted[n/2]) / 2
}

// maxSamples caps each per-chunk or per-call sample set of a traced
// phase, which keeps its first maxSamples values, to bound memory.
const maxSamples = 1 << 20

func addSample(s []float64, v float64) []float64 {
	if len(s) < maxSamples {
		s = append(s, v)
	}
	return s
}

// interval is a closed-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns parent's duration minus the part of it covered by the
// union of children, each clipped to parent. Children may overlap each
// other (chunks on different workers run at once), so covered time is
// counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if curE < curS || c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// chunk is one executed chunk of a loop: iterations [lo, hi) ran on
// worker w.
type chunk struct {
	lo, hi int
	w      int
}

// affinitySame counts the iterations of cur that ran on the same worker as
// in prev, a previous loop over the same range, and the iterations of cur
// in total. It is the paper's loop-affinity measure (Figure 2) computed
// from chunk lists rather than per-iteration maps. Both slices are sorted
// in place by lo; chunks within one loop must not overlap.
func affinitySame(prev, cur []chunk) (same, total int64) {
	byLo := func(c []chunk) {
		sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	}
	byLo(prev)
	byLo(cur)
	i := 0
	for _, c := range cur {
		total += int64(c.hi - c.lo)
		for i < len(prev) && prev[i].hi <= c.lo {
			i++
		}
		for j := i; j < len(prev) && prev[j].lo < c.hi; j++ {
			if prev[j].w != c.w {
				continue
			}
			lo, hi := max(prev[j].lo, c.lo), min(prev[j].hi, c.hi)
			if hi > lo {
				same += int64(hi - lo)
			}
		}
	}
	return same, total
}

// indexSum is the closed form of sum_{i=lo}^{hi-1} i.
func indexSum(lo, hi int) int64 {
	if hi <= lo {
		return 0
	}
	return (int64(lo) + int64(hi) - 1) * int64(hi-lo) / 2
}

// checkAbs fails unless |got-want| <= tol. NaN never passes.
func checkAbs(what string, got, want, tol float64) error {
	if !(math.Abs(got-want) <= tol) {
		return fmt.Errorf("%s = %.15g, want %.15g within %g", what, got, want, tol)
	}
	return nil
}

// checkRel fails unless |got-want| <= tol*|want|. NaN never passes.
func checkRel(what string, got, want, tol float64) error {
	if !(math.Abs(got-want) <= tol*math.Abs(want)) {
		return fmt.Errorf("%s = %.15g, want %.15g within relative %g", what, got, want, tol)
	}
	return nil
}

// ratio returns num/den, or 0 when den is 0 (nothing attempted).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
