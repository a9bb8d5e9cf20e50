package nn

import (
	"math/rand"
	"testing"

	"deepcat/internal/mat"
)

// benchNet mirrors the tuner networks: 41 inputs (state 9 + action 32),
// two hidden layers of 64, scalar output.
func benchNet(b *testing.B) *MLP {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return NewMLP(rng, []int{41, 64, 64, 1}, []Activation{ReLU, ReLU, Linear})
}

func BenchmarkForward(b *testing.B) {
	m := benchNet(b)
	x := mat.RandVec(rand.New(rand.NewSource(2)), 41, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkForwardBackward is one training pass of the critic shape over a
// 32-sample minibatch — ForwardLanes plus BackwardBatch with parameter
// gradients — the unit of work TD3.Train repeats per network. ns/sample
// divides by the batch.
func BenchmarkForwardBackward(b *testing.B) {
	const k = 32
	m := benchNet(b)
	rng := rand.New(rand.NewSource(3))
	xt := mat.RandVec(rng, 41*k, 0, 1)
	gradOut := mat.RandVec(rng, k, -1, 1)
	g := m.NewGrads()
	var tp BatchTape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardLanes(&tp, xt, k, k)
		m.BackwardBatch(&tp, gradOut, g, nil, 0, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/sample")
}

func BenchmarkAdamStep(b *testing.B) {
	m := benchNet(b)
	g := m.NewGrads()
	var tp BatchTape
	m.ForwardLanes(&tp, mat.RandVec(rand.New(rand.NewSource(4)), 41*8, 0, 1), 8, 8)
	m.BackwardBatch(&tp, mat.RandVec(rand.New(rand.NewSource(5)), 8, -1, 1), g, nil, 0, 0)
	opt := NewAdam(m, 1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m, g, 1)
	}
}

func BenchmarkSoftUpdate(b *testing.B) {
	m := benchNet(b)
	target := m.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.SoftUpdate(m, 0.005)
	}
}
