package rl

import (
	"math/rand"
	"testing"

	"deepcat/internal/mat"
)

func benchTransition(rng *rand.Rand) Transition {
	return Transition{
		State:     mat.RandVec(rng, 9, 0, 1),
		Action:    mat.RandVec(rng, 32, 0, 1),
		Reward:    rng.NormFloat64(),
		NextState: mat.RandVec(rng, 9, 0, 1),
	}
}

func BenchmarkRDPERAddSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	buf := NewRDPER(100000, 0, 0.6)
	for i := 0; i < 1000; i++ {
		buf.Add(benchTransition(rng))
	}
	tr := benchTransition(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Add(tr)
		buf.Sample(rng, 32)
	}
}

func BenchmarkPERSampleUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	buf := NewPrioritizedReplay(100000)
	for i := 0; i < 1000; i++ {
		buf.Add(benchTransition(rng))
	}
	errs := make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := buf.Sample(rng, 32)
		buf.UpdatePriorities(batch.Indices, errs)
	}
}

func BenchmarkSumTreeSet(b *testing.B) {
	s := NewSumTree(1 << 16)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(i&(1<<16-1), rng.Float64())
	}
}

func BenchmarkTD3TrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultTD3Config(9, 32)
	cfg.Hidden = []int{64, 64}
	agent, err := NewTD3(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := NewUniformReplay(10000)
	for i := 0; i < 500; i++ {
		buf.Add(benchTransition(rng))
	}
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Transitions = batch.Transitions[:0]
		buf.sampleInto(rng, 32, &batch)
		agent.Train(rng, batch)
	}
}

func BenchmarkDDPGTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultDDPGConfig(9, 32)
	cfg.Hidden = []int{64, 64}
	agent, err := NewDDPG(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := NewUniformReplay(10000)
	for i := 0; i < 500; i++ {
		buf.Add(benchTransition(rng))
	}
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Transitions = batch.Transitions[:0]
		buf.sampleInto(rng, 32, &batch)
		agent.Train(rng, batch)
	}
}

func BenchmarkTD3Act(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultTD3Config(9, 32)
	cfg.Hidden = []int{64, 64}
	agent, _ := NewTD3(rng, cfg)
	s := mat.RandVec(rng, 9, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(s)
	}
}
