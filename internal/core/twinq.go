package core

import (
	"math/rand"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
	"deepcat/internal/rl"
	"deepcat/internal/trace"
)

// TwinQOptimizer implements Algorithm 1 of the paper. During online tuning
// it scores each recommended action with the smaller of the two offline-
// trained critic outputs — a cost-free estimate of the configuration's
// quality (Fig. 3) — and, when the score falls below the threshold Q_th,
// perturbs the action with Gaussian noise and re-scores it, repeating until
// an estimated close-to-optimal action is found. No configuration is
// actually executed during the search, so the expensive evaluation of
// sub-optimal configurations is avoided entirely.
//
// The search scores candidates in batches: perturbations are generated in
// chunks (in the exact per-candidate, per-dimension RNG draw order of the
// sequential loop) and both critics score a whole chunk in two lane-major
// passes with the state embedding hoisted out (rl.TD3.QValuesBatch). The
// decision is identical to the sequential loop — same accepted action bit
// for bit, same tries count, same optimized flag, same trace events — which
// the sequential reference loop and the equivalence tests in
// twinq_batch_test.go pin down. Chunks are sized so the common cases stay cheap: the first round
// scores the raw recommendation together with a handful of perturbations
// (one SIMD lane group), then full-width chunks cover the remaining try
// budget.
type TwinQOptimizer struct {
	// QTh is the Q-value threshold Q_th: actions scoring below it are
	// considered sub-optimal (the paper sweeps it in Fig. 12 and picks
	// 0.3). A larger Q_th explores more aggressively around the
	// sub-optimal space; a smaller one exploits known-good regions.
	QTh float64
	// Sigma is the standard deviation of the Gaussian perturbation noise
	// epsilon.
	Sigma float64
	// MaxTries bounds the perturbation loop. Algorithm 1 as printed loops
	// unboundedly; a bound is required for the (early-training) case where
	// no action in the vicinity scores above Q_th. When the bound is hit,
	// the best-scoring action seen is returned.
	MaxTries int
	// SingleQ scores actions with Critic1 alone instead of min(Q1, Q2);
	// used by the ablation benches to quantify what the twin indicator
	// contributes over a single (overestimating) critic.
	SingleQ bool
}

// NewTwinQOptimizer returns an optimizer with the paper's settings
// (Q_th = 0.3) and a perturbation scale suited to [0,1]-normalized actions.
func NewTwinQOptimizer() *TwinQOptimizer {
	return &TwinQOptimizer{QTh: 0.3, Sigma: 0.12, MaxTries: 64}
}

// Chunk schedule for the batched search: one round of the raw
// recommendation plus firstChunk perturbations (8 candidates — exactly one
// SIMD lane group — so early acceptance stays cheap), then maxChunk per
// round until the try budget runs out. With MaxTries=64 that is 8+56: every
// lane is a live candidate and the worst case pads nothing.
const (
	firstChunk = 7
	maxChunk   = 56
)

// twinqScratch holds the reusable buffers of the batched search. One scratch
// serves one search at a time; DeepCAT keeps one per tuner instance (the
// service serializes Suggests per session, so that is also one per session).
type twinqScratch struct {
	ar     *nn.Arena
	qb     *rl.QBatch // state-embedding-hoisted scorer, rebound per agent
	cand   []float64  // candidate chunk, lane-major dim x kp
	q1, q2 []float64
	best   []float64
	walk   []float64 // current random-walk position, row-major
	act    []float64 // actor output buffer for SuggestWithStats
}

func newTwinqScratch() *twinqScratch { return &twinqScratch{ar: nn.NewArena()} }

// ensure sizes the buffers for a chunk of kp dim-dimensional candidate
// lanes. The walk/best buffers only depend on dim, so growing kp mid-search
// never moves them.
func (s *twinqScratch) ensure(dim, kp int) {
	if len(s.cand) < kp*dim {
		s.cand = make([]float64, kp*dim)
	}
	if len(s.q1) < kp {
		s.q1 = make([]float64, kp)
		s.q2 = make([]float64, kp)
	}
	if len(s.best) < dim {
		s.best = make([]float64, dim)
		s.walk = make([]float64, dim)
	}
}

// action returns the stable actor-output buffer.
func (s *twinqScratch) action(dim int) []float64 {
	if len(s.act) < dim {
		s.act = make([]float64, dim)
	}
	return s.act[:dim]
}

// Optimize applies Algorithm 1 to action a under state s using agent's twin
// critics. It returns the accepted action, the number of candidate actions
// scored, and whether the original action was replaced. The input slice is
// not modified.
func (o *TwinQOptimizer) Optimize(rng *rand.Rand, agent *rl.TD3, s, a []float64) (out []float64, tries int, optimized bool) {
	return o.optimize(rng, agent, s, a, nil, nil)
}

// optimize is Optimize with an optional flight recorder and reusable
// scratch. Every candidate scored — the raw recommendation and each
// perturbation — is emitted with both critic values, its score and the
// threshold verdict; candidates a chunk scored beyond the accepted one are
// neither counted nor emitted, so tries and the trace stream match the
// sequential loop exactly. Recording is passive: the search consumes exactly
// the same random draws and reaches the same decision with rec nil or set.
func (o *TwinQOptimizer) optimize(rng *rand.Rand, agent *rl.TD3, s, a []float64, rec trace.Recorder, scr *twinqScratch) (out []float64, tries int, optimized bool) {
	if scr == nil {
		scr = newTwinqScratch()
	}
	dim := len(a)
	// SingleQ only changes which critic value the verdict uses; both are
	// always computed, so tracing sees Q1 and Q2 in either mode.
	pick := func(q1, q2 float64) float64 {
		if !o.SingleQ && q2 < q1 {
			return q2
		}
		return q1
	}
	if scr.qb == nil || scr.qb.Agent() != agent {
		scr.qb = agent.NewQBatch()
	}
	scr.qb.SetState(s)
	scr.ensure(dim, 1)
	best := scr.best[:dim]
	copy(best, a)
	cur := scr.walk[:dim]
	copy(cur, a)
	var bestQ float64
	sigma := o.Sigma

	// Each round generates its candidates by continuing the random walk
	// (cur = cur + eps per candidate, eps ~ N(0, sigma^2), clipped into the
	// action box — the exact per-candidate, per-dimension draw order of the
	// sequential loop) straight into lane-major storage, one candidate per
	// lane, so both critics score the round with no transpose step. The
	// first round carries the raw recommendation in lane 0 plus up to
	// firstChunk perturbations drawn eagerly; when acceptance lands before
	// the end of a round, the walk draws already spent on the remaining
	// lanes are simply discarded. Only the RNG stream position after the
	// search can differ from the sequential loop — never an accepted action,
	// a tries count, or a trace event, which is what the equivalence test
	// pins down.
	first := true
	for tries < o.MaxTries {
		k := o.MaxTries - tries
		base := 0
		if first {
			if k > 1+firstChunk {
				k = 1 + firstChunk
			}
			base = 1
		} else if k > maxChunk {
			k = maxChunk
		}
		kp := (k + 7) &^ 7
		scr.ensure(dim, kp)
		// Stale values in pad lanes are fine: they are old candidates, all
		// finite, and their scores are never read (ScoreLanes contract).
		xt := scr.cand[:dim*kp]
		if first {
			for i := 0; i < dim; i++ {
				xt[i*kp] = a[i]
			}
		}
		for c := base; c < k; c++ {
			for i := 0; i < dim; i++ {
				v := mat.Clip(cur[i]+sigma*rng.NormFloat64(), 0, 1)
				cur[i] = v
				xt[i*kp+c] = v
			}
		}
		scr.qb.ScoreLanes(scr.ar, xt, kp, k, scr.q1[:k], scr.q2[:k])
		for c := 0; c < k; c++ {
			q := pick(scr.q1[c], scr.q2[c])
			tries++
			if rec != nil {
				act := make([]float64, dim)
				for i := range act {
					act[i] = xt[i*kp+c]
				}
				rec.Emit(trace.Event{Kind: trace.KindCandidate, Candidate: &trace.Candidate{
					Try:      tries,
					Action:   act,
					Q1:       scr.q1[c],
					Q2:       scr.q2[c],
					MinQ:     q,
					QTh:      o.QTh,
					Accepted: q >= o.QTh,
				}})
			}
			if q > bestQ || (first && c == 0) {
				bestQ = q
				for i := 0; i < dim; i++ {
					best[i] = xt[i*kp+c]
				}
			}
			if q >= o.QTh {
				return mat.CloneSlice(best), tries, !(first && c == 0)
			}
		}
		first = false
	}
	// Threshold unreachable in MaxTries attempts: fall back to the best
	// candidate scored, which still dominates the raw recommendation.
	return mat.CloneSlice(best), tries, !sameVec(best, a)
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
