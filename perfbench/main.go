// Command perfbench is the tuning service's end-to-end benchmark. It runs
// the deepcat-serve daemon in process, wired with the same constructors the
// command uses, and drives it over loopback HTTP with a closed-loop client
// that owns its sessions and runs round after round of suggest, evaluate
// the action on the session's seeded simulated cluster, observe.
//
// A run repeats episodes (a fresh daemon set up, a fixed number of rounds
// per session, graceful restarts) until --seconds have passed and at
// least minRounds rounds were measured, so that every tail it prints has ten
// samples beyond it. It checks every answer, prints a human summary on
// standard error and, as the last line of standard output, one JSON object
// with the metrics: end-to-end ones with --trace 0, per-layer ones with
// --trace 1. A traced run alternates untraced and traced episodes and
// reports the tracing overhead between them. LEDGER.md says what each
// workload and metric is for.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// minRounds is the smallest measured sample whose tail (tailQ) has
// minBeyond rounds beyond it.
const minRounds = 200

// hardStop ends a run that has not met its floors in time; its tails are
// then unsupported and it fails instead of naming them.
const hardStop = 150 * time.Second

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload: inline or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "least time to measure")
	traceOn := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "run"), "working directory for checkpoints, logs and traces")
	flag.Parse()

	var wl workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl.name == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		logf("perfbench: want --workload inline|churn, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	res, err := run(dir, wl, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		logf("perfbench: %v", rmErr)
	}
	if err != nil {
		logf("perfbench: %s: %v", wl.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run repeats episodes until the run's floors are met and reports them.
func run(dir string, wl workload, seed int64, least time.Duration, traced bool) (*result, error) {
	start := time.Now()
	var plain, withTrace []*episode
	n := 0
	// floorsMet reports whether the run has measured enough: its time is
	// up, counting the next measured episode as half done so that a run
	// ends within half an episode of --seconds, and the tails have their
	// samples.
	floorsMet := func(episodes int) bool {
		el := time.Since(start)
		return episodes > 0 && el+el/time.Duration(2*episodes) >= least && n >= minRounds
	}
	for idx := 0; ; idx++ {
		// A traced run alternates untraced and traced episodes, so that
		// the tracing overhead compares episodes run side by side, and
		// measures its floors on the traced ones.
		tracedEp := traced && idx%2 == 1
		ep, err := runEpisode(filepath.Join(dir, fmt.Sprintf("ep%d", idx)), wl, seed, idx, tracedEp)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", idx, err)
		}
		if tracedEp {
			withTrace = append(withTrace, ep)
		} else {
			plain = append(plain, ep)
		}
		if tracedEp || !traced {
			n += ep.rounds.attempted()
		}
		measured := len(plain)
		if traced {
			measured = len(withTrace)
		}
		if floorsMet(measured) || time.Since(start) > hardStop {
			break
		}
	}
	if traced {
		if err := saveTraces(dir, wl, seed, withTrace); err != nil {
			logf("perfbench: writing spans: %v", err)
		}
		return layerReport(wl, plain, withTrace)
	}
	return endToEndReport(wl, plain)
}

// saveTraces writes the traced episodes' spans next to the working
// directory, where they outlive the run.
func saveTraces(dir string, wl workload, seed int64, eps []*episode) error {
	var all []span
	for _, e := range eps {
		base := len(all)
		for _, s := range e.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	out := filepath.Join(filepath.Dir(dir), "..", "traces")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(out, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed)), all)
}
