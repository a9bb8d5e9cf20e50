package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPickTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		name string
		ok   bool
	}{
		{9, "", false},
		{39, "", false},
		{40, "p75", true},
		{99, "p75", true},
		{100, "p90", true},
		{199, "p90", true},
		{200, "p95", true},
		{999, "p95", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p999", true},
	}
	for _, c := range cases {
		_, name, ok := pickTail(c.n)
		if name != c.name || ok != c.ok {
			t.Errorf("pickTail(%d) = %q, %v; want %q, %v", c.n, name, ok, c.name, c.ok)
		}
	}
}

func TestTailQuantileRefusesUnsupportedTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailQuantile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples was named")
	}
	xs = append(xs, 1000)
	got, err := tailQuantile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 990th value, with exactly ten samples above it.
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.61, 4}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{2, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geoMean(2, 0.5) = %v, want 1", got)
	}
	if got := geoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(1, 4, 16) = %v, want 4", got)
	}
	if got := geoMean([]float64{3, 0}); !math.IsNaN(got) {
		t.Errorf("geoMean with a zero ratio = %v, want NaN", got)
	}
}

func TestFailedOpMissesEveryLimit(t *testing.T) {
	var o ops
	for i := 0; i < 9; i++ {
		o.add(time.Millisecond, nil)
	}
	o.add(time.Microsecond, errors.New("HTTP 429"))
	if o.attempted() != 10 || o.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 10, 1", o.attempted(), o.failed)
	}
	// The failed attempt was fast, but it lands above every latency limit:
	// with one attempt in ten failed, the p95 is past any limit.
	if got := quantile(o.ms, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 10%% failed = %v, want +Inf", got)
	}
	if got := quantile(o.ms, 0.9); got != 1 {
		t.Errorf("p90 with 10%% failed = %v ms, want 1", got)
	}
	if got := median(o.ms); got != 1 {
		t.Errorf("median = %v ms, want 1", got)
	}
	var p ops
	p.add(2*time.Millisecond, nil)
	o.merge(p)
	if o.attempted() != 11 || o.failed != 1 {
		t.Errorf("after merge attempted %d, failed %d; want 11, 1", o.attempted(), o.failed)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		// Two children overlapping on [30,40], one running past the parent.
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 90, End: 130},
		// A grandchild: covered time of span 1, not of the root.
		{ID: 4, Parent: 1, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// Root: 100 minus the union [10,60] + [90,100] = 60 covered.
	want := []int64{40, 20, 30, 40, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{50, 60}, {10, 20}, {12, 18}}); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := covered(0, 10, [][2]int64{{20, 30}}); got != 0 {
		t.Errorf("covered outside the parent = %d, want 0", got)
	}
}

func TestAccountingWithinTolerance(t *testing.T) {
	stages := map[string]float64{"transport": 0.6, "learn": 3.5, "store": 0.5}
	frac, err := accounting(5, stages, 0.10)
	if err != nil || math.Abs(frac-0.08) > 1e-12 {
		t.Errorf("accounting(5) = %v, %v; want 0.08 unexplained, no error", frac, err)
	}
	if _, err := accounting(6, stages, 0.10); err == nil {
		t.Error("23% unexplained passed a 10% tolerance")
	}
	// Stages that overshoot the total are as wrong as stages that miss it.
	if _, err := accounting(4, stages, 0.10); err == nil {
		t.Error("stages 15% above the total passed a 10% tolerance")
	}
	if _, err := accounting(0, stages, 0.10); err == nil {
		t.Error("a zero total was accounted for")
	}
}

func TestSessionSeedIsStableNonzeroAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, -5, 1 << 62} {
		for ep := 0; ep < 5; ep++ {
			for i := -4; i < 16; i++ {
				s := sessionSeed(seed, ep, i)
				if s <= 0 || s >= 1<<53 {
					t.Fatalf("sessionSeed(%d, %d, %d) = %d, outside (0, 2^53)", seed, ep, i, s)
				}
				if seen[s] {
					t.Fatalf("sessionSeed(%d, %d, %d) = %d repeats", seed, ep, i, s)
				}
				seen[s] = true
				if s != sessionSeed(seed, ep, i) {
					t.Fatal("sessionSeed is not deterministic")
				}
			}
		}
	}
}
