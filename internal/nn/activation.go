// Package nn implements the small feed-forward neural networks, manual
// backpropagation and Adam optimization that back the DDPG and TD3 agents of
// the DeepCAT reproduction. Everything is pure Go and deterministic given a
// seeded *rand.Rand.
//
// The package is built around three types:
//
//   - MLP: a multi-layer perceptron with per-layer activations.
//   - Grads: a gradient accumulator with the same shape as an MLP.
//   - Adam: the optimizer, holding first/second-moment state per parameter.
//
// Training runs a whole mini-batch lane-major: ForwardLanes records every
// layer's activations on a BatchTape, BackwardBatch turns them into Grads
// with GEMMs on the mat.MulLanes kernels, and one optimizer step follows.
// Inference has a per-sample Forward and a batched ForwardBatch; all of
// them agree bit for bit with per-sample evaluation.
package nn

import (
	"fmt"
	"math"
)

// Activation identifies an element-wise activation function.
type Activation int

// Supported activations. Linear is the identity and is typically used on
// critic outputs; Tanh bounds actor outputs; ReLU is the default hidden
// activation; Sigmoid maps to (0,1) and suits [0,1]-normalized action
// spaces.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
)

// String returns the conventional lowercase name of the activation.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// apply computes the activation of x.
func (a Activation) apply(x float64) float64 {
	switch a {
	case Linear:
		return x
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// scaleByDeriv multiplies every delta[j] by the derivative at output y[j],
// bit-identical to delta[j] *= derivFromOutput(y[j]) with the activation
// switch hoisted out of the loop.
func (a Activation) scaleByDeriv(delta, y []float64) {
	switch a {
	case Linear:
		// σ' = 1.
	case ReLU:
		for j, v := range y {
			d := 0.0
			if v > 0 {
				d = 1
			}
			delta[j] *= d
		}
	case Tanh:
		for j, v := range y {
			delta[j] *= 1 - v*v
		}
	case Sigmoid:
		for j, v := range y {
			delta[j] *= v * (1 - v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// derivFromOutput computes the derivative dσ/dx expressed in terms of the
// activation output y = σ(x). All supported activations admit this form,
// which lets the backward pass avoid storing pre-activations.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Linear:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}
