package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"deepcat/internal/obs"
)

// tally sums the operation accounting of a set of episodes.
func tally(eps []*episode) (rounds, suggests, creates, all ops) {
	for _, e := range eps {
		rounds.merge(e.rounds)
		suggests.merge(e.suggests)
		creates.merge(e.creates)
		for _, o := range []ops{e.suggests, e.observes, e.creates, e.deletes, e.gets, e.seeding} {
			all.merge(o)
		}
	}
	return rounds, suggests, creates, all
}

// roundsPerSecond is completed rounds over the wall time of the rounds
// phases.
func roundsPerSecond(eps []*episode) float64 {
	var n int
	var wall time.Duration
	for _, e := range eps {
		n += e.rounds.attempted() - e.rounds.failed
		wall += e.wall
	}
	return float64(n) / wall.Seconds()
}

// daemonDeltas are the daemon's counters and histograms accumulated over
// the rounds phases of a set of episodes.
type daemonDeltas struct {
	counters map[string]float64
	hists    map[string]*obs.HistogramSnapshot
}

func deltas(eps []*episode) daemonDeltas {
	d := daemonDeltas{counters: map[string]float64{}, hists: map[string]*obs.HistogramSnapshot{}}
	for _, e := range eps {
		seen := map[string]bool{}
		for _, ins := range e.after.Instruments {
			if seen[ins.Name] {
				continue
			}
			seen[ins.Name] = true
			switch ins.Kind {
			case "counter":
				d.counters[ins.Name] += float64(e.after.CounterTotal(ins.Name)) - float64(e.before.CounterTotal(ins.Name))
			case "histogram":
				cur := e.after.HistogramTotal(ins.Name)
				if cur == nil {
					continue
				}
				h := d.hists[ins.Name]
				if h == nil {
					h = &obs.HistogramSnapshot{Bounds: cur.Bounds, Counts: make([]uint64, len(cur.Counts))}
					d.hists[ins.Name] = h
				}
				prev := e.before.HistogramTotal(ins.Name)
				for i, c := range cur.Counts {
					h.Counts[i] += c
					if prev != nil {
						h.Counts[i] -= prev.Counts[i]
					}
				}
				h.Count += cur.Count
				h.Sum += cur.Sum
				if prev != nil {
					h.Count -= prev.Count
					h.Sum -= prev.Sum
				}
			}
		}
	}
	return d
}

// meanMs is a histogram's mean in milliseconds (0 when it saw nothing).
func (d daemonDeltas) meanMs(name string) float64 {
	h := d.hists[name]
	if h == nil || h.Count == 0 {
		return 0
	}
	return 1e3 * h.Sum / float64(h.Count)
}

func (d daemonDeltas) count(name string) float64 {
	if h := d.hists[name]; h != nil {
		return float64(h.Count)
	}
	return 0
}

const (
	histSuggest = "deepcat_suggest_duration_seconds"
	histLearn   = "deepcat_observe_duration_seconds"
	histCkpt    = "deepcat_checkpoint_duration_seconds"
)

// mechanism asserts that a workload exercised the path it exists for.
func mechanism(wl workload, eps []*episode) []error {
	var out []error
	fail := func(format string, args ...any) { out = append(out, fmt.Errorf("mechanism: "+format, args...)) }
	d := deltas(eps)
	switch wl.name {
	case "inline":
		learn, sug, ck := d.meanMs(histLearn), d.meanMs(histSuggest), d.meanMs(histCkpt)
		for _, e := range eps {
			if e.spineAttached {
				fail("inline ran with a spine attached")
				break
			}
		}
		if !(learn > sug && learn > ck) {
			fail("learning (%.2f ms) is not the largest stage (suggest %.2f ms, checkpoint %.2f ms)", learn, sug, ck)
		}
	case "churn":
		creates, warm := 0, 0
		for _, e := range eps {
			creates += e.creates.attempted()
			warm += e.warm
		}
		if creates == 0 || warm != creates {
			fail("%d of %d creates warm-started", warm, creates)
		}
		// Churn is the workload where the learner pool runs, so its
		// episodes must last long enough for a learner pass.
		trainings := 0
		for _, e := range eps {
			for _, l := range e.spineStats.Lanes {
				trainings += l.Trainings
			}
		}
		if trainings == 0 {
			fail("the spine's learners never trained")
		}
	}
	return out
}

// endToEndReport computes the metrics a user of the daemon sees, over the
// untraced episodes.
func endToEndReport(wl workload, eps []*episode) (*result, error) {
	rounds, suggests, creates, all := tally(eps)
	var resume, speedups []float64
	for _, e := range eps {
		for _, d := range e.resumes {
			resume = append(resume, d.Seconds())
		}
		speedups = append(speedups, e.speedups...)
	}
	r := newResult(wl, eps, all)
	r.set("round_p50_ms", median(rounds.ms), "ms")
	r.set("suggest_p50_ms", median(suggests.ms), "ms")
	r.set("setup_s", medianOver(eps, func(e *episode) float64 { return e.setup.Seconds() }), "s")
	r.set("rounds_per_s", roundsPerSecond(eps), "1/s")
	r.set("ok_ratio", 1-float64(all.failed)/float64(all.attempted()), "ratio")
	r.set("best_speedup", geoMean(speedups), "x")
	r.set("resume_s", median(resume), "s")
	r.set("create_p50_ms", median(creates.ms), "ms")
	r.set("mem_avg_mb", medianOver(eps, func(e *episode) float64 { return e.avgMem / (1 << 20) }), "MB")
	r.summary(fmt.Sprintf("%d episodes, %d rounds, %d creates, %d ops attempted, %d failed",
		len(eps), rounds.attempted(), creates.attempted(), all.attempted(), all.failed))
	for i, e := range eps {
		r.summary(fmt.Sprintf("episode %d: setup %.3f s, %.1f rounds/s, round p50 %.2f ms, resumes %v",
			i, e.setup.Seconds(), roundsPerSecond([]*episode{e}), median(e.rounds.ms), e.resumes))
	}
	for _, x := range []struct {
		name string
		ms   []float64
	}{{"round", rounds.ms}, {"suggest", suggests.ms}, {"create", creates.ms}} {
		line := fmt.Sprintf("%s: %d samples, p50 %.2f ms", x.name, len(x.ms), median(x.ms))
		if q, name, ok := pickTail(len(x.ms)); ok {
			line += fmt.Sprintf(", highest supported tail %s %.2f ms", name, quantile(x.ms, q))
		}
		r.summary(line)
	}
	return r.finish(), nil
}

// medianOver is the median of f over the episodes.
func medianOver(eps []*episode, f func(*episode) float64) float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return median(xs)
}

// reporter accumulates metrics, checks and summary lines.
type reporter struct {
	res   result
	notes []string
}

func newResult(wl workload, eps []*episode, all ops) *reporter {
	b := &reporter{res: result{Correct: true, Attempted: all.attempted(), Failed: all.failed, Metrics: map[string]metric{}}}
	b.summary("workload " + wl.name + ": " + wl.why)
	var errs []error
	for _, e := range eps {
		errs = append(errs, e.problems...)
	}
	errs = append(errs, mechanism(wl, eps)...)
	for i, err := range errs {
		b.res.Correct = false
		if i < 20 {
			b.summary("CHECK FAILED: " + err.Error())
		}
	}
	if len(errs) > 20 {
		b.summary(fmt.Sprintf("CHECK FAILED: %d more", len(errs)-20))
	}
	return b
}

func (b *reporter) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (b *reporter) summary(line string) { b.notes = append(b.notes, line) }

// tail sets name to the tailQ quantile of xs, refusing an unsupported
// tail.
func (b *reporter) tail(name string, xs []float64) error {
	v, err := tailQuantile(xs, tailQ)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.set(name, v, "ms")
	return nil
}

// finish prints the human summary to standard error and returns the
// result.
func (b *reporter) finish() *result {
	for _, n := range b.notes {
		logf("%s", n)
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		logf("  %-32s %14.4f %s", n, m.Value, m.Unit)
	}
	for n, m := range b.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.res.Correct = false
			logf("CHECK FAILED: %s is %v", n, m.Value)
			b.res.Metrics[n] = metric{Value: -1, Unit: m.Unit}
		}
	}
	return &b.res
}
