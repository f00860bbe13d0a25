package nn

import (
	"math/rand"
	"testing"

	"hadfl/internal/tensor"
)

func benchTrainStep(b *testing.B, m *Model, x *tensor.Tensor, labels []int) {
	b.Helper()
	opt := NewSGD(0.05, 0.9, 0)
	var grad *tensor.Tensor
	// Steady-state steps allocate nothing on the serial kernel path
	// (alloc_test.go); at Parallelism() > 1 the counts here include
	// the kernel pool's per-dispatch coordination.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		grad = tensor.Ensure(grad, logits.Dim(0), logits.Dim(1))
		SoftmaxCrossEntropyInto(grad, logits, labels)
		m.Backward(grad)
		opt.Step(m)
	}
}

func BenchmarkTrainStepResMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewResMLP(rng, 32, 32, 2, 10)
	x := tensor.RandNormal(rng, 0, 1, 64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	benchTrainStep(b, m, x, labels)
}

func BenchmarkTrainStepResNetTiny(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewResNetTiny(rng, 3, 8, 10)
	x := tensor.RandNormal(rng, 0, 1, 32, 3, 8, 8)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	benchTrainStep(b, m, x, labels)
}

func BenchmarkTrainStepVGGTiny(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := NewVGGTiny(rng, 3, 8, 10)
	x := tensor.RandNormal(rng, 0, 1, 32, 3, 8, 8)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	benchTrainStep(b, m, x, labels)
}

func BenchmarkParametersRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := NewResMLP(rng, 32, 32, 2, 10)
	b.ReportMetric(float64(m.NumParams()), "params")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetParameters(m.Parameters())
	}
}
