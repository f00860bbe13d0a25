package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks for the compute core. Run serial-vs-parallel with:
//
//	go test -bench BenchmarkMatMul -benchmem ./internal/tensor
//
// Sizes mirror the training hot paths: the dense stack's [batch×width]
// products and the im2col matrices of the convolutional profile.

func benchMatMulInto(b *testing.B, m, k, n, par int) {
	prev := Parallelism()
	SetParallelism(par)
	defer SetParallelism(prev)
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, m, k)
	bb := RandNormal(rng, 0, 1, k, n)
	dst := New(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bb)
	}
}

func BenchmarkMatMulInto64x64x64(b *testing.B)     { benchMatMulInto(b, 64, 64, 64, 1) }
func BenchmarkMatMulInto256(b *testing.B)          { benchMatMulInto(b, 256, 256, 256, 1) }
func BenchmarkMatMulInto256Parallel(b *testing.B)  { benchMatMulInto(b, 256, 256, 256, 8) }
func BenchmarkMatMulInto1024(b *testing.B)         { benchMatMulInto(b, 1024, 256, 256, 1) }
func BenchmarkMatMulInto1024Parallel(b *testing.B) { benchMatMulInto(b, 1024, 256, 256, 8) }

func benchTransB(b *testing.B, m, k, n, par int) {
	prev := Parallelism()
	SetParallelism(par)
	defer SetParallelism(prev)
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, m, k)
	w := RandNormal(rng, 0, 1, n, k)
	bias := RandNormal(rng, 0, 1, n)
	dst := New(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBBiasInto(dst, a, w, bias)
	}
}

func BenchmarkDenseForwardFused512(b *testing.B)         { benchTransB(b, 512, 256, 256, 1) }
func BenchmarkDenseForwardFused512Parallel(b *testing.B) { benchTransB(b, 512, 256, 256, 8) }

func BenchmarkVecMean(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, k = 1 << 16, 4
	vecs := make([][]float64, k)
	for i := range vecs {
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMeanInto(dst, vecs)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := RandNormal(rng, 0, 1, 32, 3, 8, 8)
	cols := New(32*8*8, 3*3*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, 3, 3, 1, 1)
	}
}

// BenchmarkCol2Im scatters the column matrix of the conv profile's
// 3×3 convolutions back over a 32×8×8×8 batch: stride 1 (the 8×8
// layers) and stride 2 (the downsampling convolution).
func BenchmarkCol2Im(b *testing.B) {
	for _, stride := range []int{1, 2} {
		b.Run(fmt.Sprintf("c8s%d", stride), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			o := Conv2DShape(8, 3, stride, 1)
			cols := RandNormal(rng, 0, 1, 32*o*o, 8*3*3)
			img := New(32, 8, 8, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2ImInto(img, cols, 3, 3, stride, 1)
			}
		})
	}
}

// BenchmarkConvGEMM times the three products of one conv layer's train
// step at the conv profile's im2col shapes, serially. A shape RxKxO has
// R = N·OH·OW rows, K = C·KH·KW columns and O output channels:
// fwd is cols·Wᵀ+b (R×O), dw is dW += gᵀ·cols (O×K) and dx is g·W (R×K).
func BenchmarkConvGEMM(b *testing.B) {
	prev := Parallelism()
	SetParallelism(1)
	defer SetParallelism(prev)
	shapes := [][3]int{{2048, 27, 8}, {2048, 72, 8}, {512, 72, 16}, {512, 144, 16}}
	for _, op := range []string{"fwd", "dw", "dx"} {
		for _, s := range shapes {
			r, k, o := s[0], s[1], s[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", op, r, k, o), func(b *testing.B) {
				rng := rand.New(rand.NewSource(6))
				cols := RandNormal(rng, 0, 1, r, k)
				w := RandNormal(rng, 0, 1, o, k)
				bias := RandNormal(rng, 0, 1, o)
				g := RandNormal(rng, 0, 1, r, o)
				y, dw, dcols := New(r, o), New(o, k), New(r, k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch op {
					case "fwd":
						MatMulTransBBiasInto(y, cols, w, bias)
					case "dw":
						MatMulTransAAccInto(dw, g, cols)
					case "dx":
						MatMulInto(dcols, g, w)
					}
				}
			})
		}
	}
}
