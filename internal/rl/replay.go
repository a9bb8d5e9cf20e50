package rl

import (
	"fmt"
	"math/rand"
)

// Sampler is the interface all replay buffers implement. Add stores a
// transition (evicting the oldest when full) and Sample draws a mini-batch.
type Sampler interface {
	// Add stores a (deep-copied) transition.
	Add(tr Transition)
	// Len returns the number of stored transitions.
	Len() int
	// Sample draws n transitions; when fewer than n are stored it samples
	// with replacement from what is available. On an empty buffer RDPER
	// returns an empty batch (check Batch.Len before training); the other
	// implementations panic. An implementation may reuse the returned
	// batch's backing arrays on its next Sample call.
	Sample(rng *rand.Rand, n int) Batch
}

// PrioritySampler is implemented by samplers whose sampling distribution
// depends on per-transition priorities that the learner refreshes with new
// TD errors after each training step.
type PrioritySampler interface {
	Sampler
	// UpdatePriorities sets new |TD error|-based priorities for the
	// transitions identified by a previous Sample's Batch.Indices. tdErrs
	// is typically an agent's TrainStats.TDErrors, which the agent's next
	// Train overwrites, so implementations must not retain it.
	UpdatePriorities(indices []int, tdErrs []float64)
}

// UniformReplay is the conventional experience replay: a fixed-capacity ring
// buffer sampled uniformly at random. This is the mechanism the paper's
// "TD3 (conventional ER)" baseline in Fig. 4 uses.
type UniformReplay struct {
	cap  int
	buf  []Transition
	next int
	full bool
}

// NewUniformReplay creates a buffer holding at most capacity transitions.
func NewUniformReplay(capacity int) *UniformReplay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: non-positive replay capacity %d", capacity))
	}
	return &UniformReplay{cap: capacity, buf: make([]Transition, 0, capacity)}
}

// Add stores a transition, evicting the oldest when the buffer is full.
func (u *UniformReplay) Add(tr Transition) {
	c := tr.Clone()
	if len(u.buf) < u.cap {
		u.buf = append(u.buf, c)
		return
	}
	u.buf[u.next] = c
	u.next = (u.next + 1) % u.cap
	u.full = true
}

// Len returns the number of stored transitions.
func (u *UniformReplay) Len() int { return len(u.buf) }

// Sample draws n transitions uniformly with replacement.
func (u *UniformReplay) Sample(rng *rand.Rand, n int) Batch {
	if len(u.buf) == 0 {
		panic("rl: Sample from empty UniformReplay")
	}
	b := Batch{
		Transitions: make([]Transition, n),
		Indices:     make([]int, n),
		Weights:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		idx := rng.Intn(len(u.buf))
		b.Transitions[i] = u.buf[idx]
		b.Indices[i] = idx
		b.Weights[i] = 1
	}
	return b
}

// sampleInto appends n uniform draws (with replacement) to dst without
// allocating when dst's backing arrays have capacity; a no-op when the
// buffer is empty or n <= 0. Only transitions are appended — the caller owns
// Indices and Weights.
func (u *UniformReplay) sampleInto(rng *rand.Rand, n int, dst *Batch) {
	if len(u.buf) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		dst.Transitions = append(dst.Transitions, u.buf[rng.Intn(len(u.buf))])
	}
}
