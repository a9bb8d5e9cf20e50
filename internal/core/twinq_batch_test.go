package core

import (
	"math"
	"math/rand"
	"testing"

	"deepcat/internal/mat"
	"deepcat/internal/rl"
	"deepcat/internal/trace"
)

// eventSink is a minimal trace.Recorder that retains candidate events.
type eventSink struct{ events []trace.Event }

func (s *eventSink) Emit(ev trace.Event) {
	if ev.Kind == trace.KindCandidate {
		s.events = append(s.events, ev)
	}
}

// TestBatchedOptimizeMatchesSequential is the tentpole equivalence property:
// the batched Twin-Q search must reach the same decision as the sequential
// reference — accepted action bit for bit, tries, optimized flag, and the
// full candidate trace stream — across thresholds that exercise accept-at-1,
// accept-mid-search and never-accept, in both min(Q1,Q2) and SingleQ modes,
// with warm and cold scratches. Each path gets its own identically-seeded
// RNG: the walk draws consumed up to the decision are the same; only the
// stream position after a mid-chunk acceptance may differ, which no decision
// depends on.
func TestBatchedOptimizeMatchesSequential(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 7)
	d.OfflineTrain(e, 40, nil)
	agent := d.Agent
	rng := rand.New(rand.NewSource(99))
	scr := newTwinqScratch() // shared across trials: warm-arena reuse is part of the property

	for trial := 0; trial < 120; trial++ {
		state := e.IdleState()
		for i := range state {
			state[i] = rng.Float64()
		}
		action := e.Space().RandomAction(rng)
		o := *NewTwinQOptimizer()
		o.SingleQ = trial%3 == 0
		switch trial % 5 {
		case 0:
			o.QTh = math.Inf(-1) // raw recommendation always accepted
		case 1:
			o.QTh = math.Inf(1) // threshold unreachable: full 64-try search
		case 2:
			o.MaxTries = 1 + rng.Intn(8) // tiny budgets hit partial chunks
		default:
			// Sample thresholds around the critics' actual output range so
			// acceptance lands at arbitrary points inside chunks.
			q1, q2 := agent.QValues(state, action)
			o.QTh = minF(q1, q2) + (rng.Float64()*2-1)*0.5
		}
		seed := rng.Int63()

		seqRec := &eventSink{}
		seqRNG := rand.New(rand.NewSource(seed))
		wantA, wantTries, wantOpt := o.optimizeSequential(seqRNG, agent, state, action, seqRec)

		batRec := &eventSink{}
		batRNG := rand.New(rand.NewSource(seed))
		gotA, gotTries, gotOpt := o.optimize(batRNG, agent, state, action, batRec, scr)

		if gotTries != wantTries || gotOpt != wantOpt {
			t.Fatalf("trial %d (QTh=%g singleQ=%v maxTries=%d): tries/opt = %d/%v, want %d/%v",
				trial, o.QTh, o.SingleQ, o.MaxTries, gotTries, gotOpt, wantTries, wantOpt)
		}
		if len(gotA) != len(wantA) {
			t.Fatalf("trial %d: action dim %d, want %d", trial, len(gotA), len(wantA))
		}
		for i := range gotA {
			if gotA[i] != wantA[i] {
				t.Fatalf("trial %d (QTh=%g tries=%d): action[%d] = %v, want %v (bit mismatch)",
					trial, o.QTh, gotTries, i, gotA[i], wantA[i])
			}
		}
		if len(batRec.events) != len(seqRec.events) {
			t.Fatalf("trial %d: %d candidate events, want %d", trial, len(batRec.events), len(seqRec.events))
		}
		for i := range batRec.events {
			g, w := batRec.events[i].Candidate, seqRec.events[i].Candidate
			if g.Try != w.Try || g.Q1 != w.Q1 || g.Q2 != w.Q2 || g.MinQ != w.MinQ ||
				g.QTh != w.QTh || g.Accepted != w.Accepted || !sameVec(g.Action, w.Action) {
				t.Fatalf("trial %d: candidate event %d differs:\n got %+v\nwant %+v", trial, i, g, w)
			}
		}
	}
}

// TestSuggestStatsMatchSequential pins the satellite fix: the tries and
// rejection counters SuggestWithStats reports from the batched path must be
// exactly what the sequential reference would report, so the service's
// twinq_candidates/twinq_rejections metrics and the trace stream stay
// consistent across the refactor.
func TestSuggestStatsMatchSequential(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 11)
	d.OfflineTrain(e, 30, nil)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Each probe restores both tuners fresh from the snapshot so their RNG
	// streams start identical; a single Suggest is compared per probe (after
	// a mid-chunk acceptance only the unread remainder of the stream may
	// differ between the paths, so multi-step streams are not comparable).
	srng := rand.New(rand.NewSource(5))
	for probe := 0; probe < 8; probe++ {
		state := e.IdleState()
		for i := range state {
			state[i] = srng.Float64()
		}
		ref, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		raw := ref.Agent.Act(state)
		wantA, wantTries, wantOpt := ref.Cfg.TwinQ.optimizeSequential(ref.rng, ref.Agent, state, raw, nil)

		got, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		gotA, st := got.SuggestWithStats(state, false)
		if st.Tries != wantTries || st.Optimized != wantOpt {
			t.Fatalf("probe %d: SuggestStats = {%d %v}, want {%d %v}",
				probe, st.Tries, st.Optimized, wantTries, wantOpt)
		}
		if !sameVec(gotA, wantA) {
			t.Fatalf("probe %d: suggested action differs from sequential reference", probe)
		}
	}
}

// TestSuggestSteadyStateAllocs verifies the hot path: once the per-tuner
// scratch is warm, Suggest allocates only the returned action (plus the
// small fixed overhead of the stats plumbing), not the hundreds of per-try
// slices the sequential path paid.
func TestSuggestSteadyStateAllocs(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 13)
	d.OfflineTrain(e, 30, nil)
	state := e.IdleState()
	d.Suggest(state, false) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		d.Suggest(state, false)
	})
	if allocs > 9 {
		t.Fatalf("warm Suggest allocates %v per run, want <= 9", allocs)
	}
}

// optimizeSequential is the pre-batching reference implementation of
// Algorithm 1: one per-sample critic pair per candidate, early exit on
// acceptance. It is kept verbatim as the oracle for the batched-vs-
// sequential equivalence test; the two must agree on the accepted action
// (bit for bit), tries, the optimized flag and the emitted candidate events
// for any inputs.
func (o *TwinQOptimizer) optimizeSequential(rng *rand.Rand, agent *rl.TD3, s, a []float64, rec trace.Recorder) (out []float64, tries int, optimized bool) {
	score := func(s, a []float64) (q1, q2, sc float64) {
		q1, q2 = agent.QValues(s, a)
		sc = q1
		if !o.SingleQ && q2 < q1 {
			sc = q2
		}
		return q1, q2, sc
	}
	emit := func(try int, act []float64, q1, q2, sc float64) {
		if rec == nil {
			return
		}
		rec.Emit(trace.Event{Kind: trace.KindCandidate, Candidate: &trace.Candidate{
			Try:      try,
			Action:   mat.CloneSlice(act),
			Q1:       q1,
			Q2:       q2,
			MinQ:     sc,
			QTh:      o.QTh,
			Accepted: sc >= o.QTh,
		}})
	}
	cur := mat.CloneSlice(a)
	bestA := mat.CloneSlice(a)
	q1, q2, bestQ := score(s, cur)
	tries = 1
	emit(tries, cur, q1, q2, bestQ)
	if bestQ >= o.QTh {
		return bestA, tries, false
	}
	for tries < o.MaxTries {
		for i := range cur {
			cur[i] = mat.Clip(cur[i]+o.Sigma*rng.NormFloat64(), 0, 1)
		}
		q1, q2, q := score(s, cur)
		tries++
		emit(tries, cur, q1, q2, q)
		if q > bestQ {
			bestQ = q
			copy(bestA, cur)
		}
		if q >= o.QTh {
			return bestA, tries, true
		}
	}
	return bestA, tries, !sameVec(bestA, a)
}
