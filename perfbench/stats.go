package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark names it: a p99 needs at least 1000 samples.
const minBeyond = 10

// tailQ is the tail the per-layer latencies are reported at. It is p95,
// not p99, because the slowest workload (inline, 10 to 16 rounds a second
// on two cores) completes a few hundred rounds in a run: enough for a p95
// with ten samples beyond it, too few for a p99.
const (
	tailQ    = 0.95
	tailName = "p95"
)

// ledgerTolerance is the share of the measured round that the named stages
// may leave unexplained before a traced run fails its accounting check.
const ledgerTolerance = 0.10

// tails are the percentiles a tail may be named at, highest first.
var tails = []struct {
	q    float64
	name string
}{{0.999, "p999"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}, {0.75, "p75"}}

// supported reports whether n samples leave at least minBeyond of them
// above the nearest-rank q-quantile.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// pickTail returns the highest named percentile that n samples support, or
// ok false when even the lowest has fewer than minBeyond samples beyond it.
func pickTail(n int) (q float64, name string, ok bool) {
	for _, t := range tails {
		if supported(n, t.q) {
			return t.q, t.name, true
		}
	}
	return 0, "", false
}

// quantile is the nearest-rank q-quantile of xs (which it does not modify).
// Failed operations enter as +Inf, so they miss every latency limit and
// push the tail up instead of vanishing from it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantile is quantile that refuses to name an unsupported tail.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if !supported(len(xs), q) {
		return 0, fmt.Errorf("%d samples leave fewer than %d beyond the %g quantile", len(xs), minBeyond, q)
	}
	return quantile(xs, q), nil
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geoMean is the geometric mean of positive ratios, the right average for
// speedups: one session twice as fast and one twice as slow average to 1.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ops accounts for one kind of operation: a latency sample per attempt,
// +Inf for an attempt that failed for any reason (transport error, non-2xx
// status, a refused or shed request).
type ops struct {
	ms     []float64
	failed int
}

// add records one attempt.
func (o *ops) add(d time.Duration, err error) {
	if err != nil {
		o.failed++
		o.ms = append(o.ms, math.Inf(1))
		return
	}
	o.ms = append(o.ms, ms(d))
}

// merge appends another tally's attempts.
func (o *ops) merge(p ops) {
	o.ms = append(o.ms, p.ms...)
	o.failed += p.failed
}

// attempted counts every attempt, failed or not.
func (o *ops) attempted() int { return len(o.ms) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Times are offsets from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Round  int64  `json:"round"`  // shared by every span of one client operation
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	SID    string `json:"sid,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children are counted
// once, and a child running past its parent counts only inside the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, iv := range c {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// accounting checks that named stages explain a measured total: it returns
// the unexplained share (total minus the stage sum, over the total) and an
// error when that share's magnitude exceeds tol.
func accounting(total float64, stages map[string]float64, tol float64) (float64, error) {
	var sum float64
	for _, v := range stages {
		sum += v
	}
	if !(total > 0) {
		return math.NaN(), fmt.Errorf("no measured total to account for")
	}
	frac := (total - sum) / total
	if math.Abs(frac) > tol {
		return frac, fmt.Errorf("stages sum to %.3f of a %.3f total: %.1f%% unexplained exceeds the %.0f%% tolerance",
			sum, total, 100*frac, 100*tol)
	}
	return frac, nil
}
