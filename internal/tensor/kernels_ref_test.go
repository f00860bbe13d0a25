package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference kernels: plain loop nests defining the arithmetic that the
// register-tiled kernels in matmul.go and the clamped im2col/col2im in
// conv.go must reproduce bit for bit — per output element, a sum from
// +0 (or from dst when accumulating) over the inner index in ascending
// order, with the bias added last; the a·b and aᵀ·b forms skip
// products whose left factor is exactly zero. TestKernelOracle
// compares the two on every call shape.

func refMatMulRows(dd, ad, bd []float64, i0, i1, k, n int) {
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := p0 + blockK
		if p1 > k {
			p1 = k
		}
		for i := i0; i < i1; i++ {
			arow := ad[i*k : (i+1)*k]
			drow := dd[i*n : (i+1)*n]
			if p0 == 0 {
				for j := range drow {
					drow[j] = 0
				}
			}
			for p := p0; p < p1; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}

func refMatMulTransARows(dd, ad, bd []float64, i0, i1, k, m, n int, acc bool) {
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := p0 + blockK
		if p1 > k {
			p1 = k
		}
		for i := i0; i < i1; i++ {
			drow := dd[i*n : (i+1)*n]
			if p0 == 0 && !acc {
				for j := range drow {
					drow[j] = 0
				}
			}
			for p := p0; p < p1; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}

func refMatMulTransBRows(dd, ad, bd, bias []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			if bias != nil {
				s += bias[j]
			}
			drow[j] = s
		}
	}
}

func refIm2colRange(cd, xd []float64, n0, n1, c, h, w, oh, ow, kh, kw, stride, pad, rowLen int) {
	if pad > 0 {
		// Padding positions are skipped below and must read as zero.
		seg := cd[n0*oh*ow*rowLen : n1*oh*ow*rowLen]
		for i := range seg {
			seg[i] = 0
		}
	}
	for ni := n0; ni < n1; ni++ {
		imgBase := ni * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := ((ni*oh+oy)*ow + ox) * rowLen
				for ci := 0; ci < c; ci++ {
					chBase := imgBase + ci*h*w
					colBase := row + ci*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue // stays zero
						}
						rowBase := chBase + iy*w
						dst := colBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							cd[dst+kx] = xd[rowBase+ix]
						}
					}
				}
			}
		}
	}
}

func refCol2imRange(xd, cd []float64, n0, n1, c, h, w, oh, ow, kh, kw, stride, pad, rowLen int) {
	seg := xd[n0*c*h*w : n1*c*h*w]
	for i := range seg {
		seg[i] = 0
	}
	for ni := n0; ni < n1; ni++ {
		imgBase := ni * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := ((ni*oh+oy)*ow + ox) * rowLen
				for ci := 0; ci < c; ci++ {
					chBase := imgBase + ci*h*w
					colBase := row + ci*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowBase := chBase + iy*w
						src := colBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							xd[rowBase+ix] += cd[src+kx]
						}
					}
				}
			}
		}
	}
}

// sparseTensor fills a tensor of the given shape with normal values of
// which about a third are exact zeros, half of those negative, so the
// zero skip and signed-zero sums are exercised.
func sparseTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		switch rng.Intn(6) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		default:
			t.data[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestKernelOracle checks the GEMM and im2col/col2im kernels, through
// their Into entry points and so through the parallel shard split,
// against the reference loops bit for bit: random shapes with row and
// column tails, inner sizes on both sides of blockK, inputs and
// accumulators with signed zeros, with and without accumulation and
// bias, at several parallelism levels.
func TestKernelOracle(t *testing.T) {
	ms := []int{1, 2, 3, 7, 8, 33, 64, 67}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 27, 30, 73, 144}
	ks := []int{1, 27, 72, 144, 300}
	for _, par := range []int{1, 2, 8} {
		withParallelism(t, par, func() {
			rng := rand.New(rand.NewSource(int64(par)))
			for it := 0; it < 60; it++ {
				m, n, k := ms[rng.Intn(len(ms))], ns[rng.Intn(len(ns))], ks[rng.Intn(len(ks))]
				shape := fmt.Sprintf("par %d m %d n %d k %d", par, m, n, k)
				a, b := sparseTensor(rng, m, k), sparseTensor(rng, k, n)
				at, bt := sparseTensor(rng, k, m), sparseTensor(rng, n, k)
				bias := sparseTensor(rng, n)

				got, want := sparseTensor(rng, m, n), New(m, n)
				MatMulInto(got, a, b)
				refMatMulRows(want.data, a.data, b.data, 0, m, k, n)
				checkBits(t, "MatMulInto "+shape, got, want)

				for _, acc := range []bool{false, true} {
					got := sparseTensor(rng, m, n)
					want := got.Clone()
					matMulTransAInto(got, at, b, acc)
					refMatMulTransARows(want.data, at.data, b.data, 0, m, k, m, n, acc)
					checkBits(t, fmt.Sprintf("MatMulTransA acc=%v %s", acc, shape), got, want)
				}

				for _, bs := range [][]float64{nil, bias.data} {
					got, want := sparseTensor(rng, m, n), New(m, n)
					matMulTransBInto(got, a, bt, bs)
					refMatMulTransBRows(want.data, a.data, bt.data, bs, 0, m, k, n)
					checkBits(t, fmt.Sprintf("MatMulTransB bias=%v %s", bs != nil, shape), got, want)
				}
			}
			for it := 0; it < 40; it++ {
				nImg, c := 1+rng.Intn(3), []int{1, 3, 8}[rng.Intn(3)]
				kk, stride, pad := []int{1, 3}[rng.Intn(2)], 1+rng.Intn(2), rng.Intn(3)
				h, w := kk+rng.Intn(9), kk+rng.Intn(9)
				oh, ow := Conv2DShape(h, kk, stride, pad), Conv2DShape(w, kk, stride, pad)
				shape := fmt.Sprintf("par %d n %d c %d %dx%d k %d stride %d pad %d", par, nImg, c, h, w, kk, stride, pad)
				rowLen := c * kk * kk

				x := sparseTensor(rng, nImg, c, h, w)
				got, want := sparseTensor(rng, nImg*oh*ow, rowLen), sparseTensor(rng, nImg*oh*ow, rowLen)
				Im2ColInto(got, x, kk, kk, stride, pad)
				refIm2colRange(want.data, x.data, 0, nImg, c, h, w, oh, ow, kk, kk, stride, pad, rowLen)
				checkBits(t, "Im2ColInto "+shape, got, want)

				cols := sparseTensor(rng, nImg*oh*ow, rowLen)
				gotImg, wantImg := sparseTensor(rng, nImg, c, h, w), sparseTensor(rng, nImg, c, h, w)
				Col2ImInto(gotImg, cols, kk, kk, stride, pad)
				refCol2imRange(wantImg.data, cols.data, 0, nImg, c, h, w, oh, ow, kk, kk, stride, pad, rowLen)
				checkBits(t, "Col2ImInto "+shape, gotImg, wantImg)
			}
		})
	}
}

func checkBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i, v, math.Float64bits(v), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}
