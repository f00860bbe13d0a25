package tensor

import "fmt"

// Matrix kernels. All three product shapes (a·b, aᵀ·b, a·bᵀ) come in
// allocating, into, and (where the nn backward passes accumulate)
// into-accumulate forms, plus a fused matmul+bias epilogue for the
// dense/conv forward path. The into forms run register-tiled micro-
// kernels and shard independent output rows across the package worker
// pool (see parallel.go).
//
// The tiles only change which partial sums live in registers, never
// the arithmetic: every output element is computed exactly as by the
// naive loops (kernels_ref_test.go) — it starts from +0, or from dst in
// the accumulate forms, adds its products one at a time in ascending
// inner index, and takes the bias last. So every variant is bit-
// identical to those loops and to itself at every parallelism level.
// The a·b and aᵀ·b forms skip a product whose a factor is exactly
// zero, as those loops do: skipping is not the same as adding 0·b,
// which is NaN for an infinite b and turns a -0 accumulator into +0.
//
// The tiles are one output row each, so any row shard is tile-aligned
// and the shard grain needs no rounding.
//
// Each kernel's sharded body is a named function — not a closure — and
// the serial path calls it directly, so kernels allocate nothing when
// Parallelism() is 1 or the matrix is below the sharding threshold.
// Only the parallel dispatch spends a few words on coordination.

// blockK is the inner-dimension block of the a·b and aᵀ·b kernels: the
// blockK rows of b one block reads stay resident in cache while a
// chunk of output rows streams over them.
const blockK = 256

// MatMul returns the matrix product a·b for 2-D tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v · %v", a.shape, b.shape))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage. dst must be m×n.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, dd := a.data, b.data, dst.data
	if runSerial(m * n * k) {
		gemmRows(dd, ad, bd, 0, m, k, n, k, 1, false)
		return
	}
	parallelFor(m, rowGrain(m, 2*n*k), func(i0, i1 int) {
		gemmRows(dd, ad, bd, i0, i1, k, n, k, 1, false)
	})
}

// gemmRows computes output rows [i0, i1) of dst = x·b, or dst += x·b
// with acc, for b k×n and x[i][p] = ad[i*rs+p*ps]: x is a itself for
// a·b (rs = k, ps = 1) and aᵀ for aᵀ·b (rs = 1, ps = m).
//
// Per row and k-block the nonzero x factors and the offsets of their b
// rows are gathered first, so the zero test runs once per (i, p) as in
// the naive loop. The row is then swept once per four gathered
// factors, each element kept in a register across its four additions:
// one load and one store of dst per four products instead of per
// product.
func gemmRows(dd, ad, bd []float64, i0, i1, k, n, rs, ps int, acc bool) {
	var xs [blockK]float64
	var bo [blockK]int
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := min(p0+blockK, k)
		for i := i0; i < i1; i++ {
			d := dd[i*n : (i+1)*n]
			if p0 == 0 && !acc {
				clear(d)
			}
			nz := 0
			for p, ai := p0, i*rs+p0*ps; p < p1; p, ai = p+1, ai+ps {
				if x := ad[ai]; x != 0 {
					xs[nz], bo[nz] = x, p*n
					nz++
				}
			}
			t := 0
			for ; t+4 <= nz; t += 4 {
				x0, x1, x2, x3 := xs[t], xs[t+1], xs[t+2], xs[t+3]
				b0 := bd[bo[t]:][:len(d)]
				b1 := bd[bo[t+1]:][:len(d)]
				b2 := bd[bo[t+2]:][:len(d)]
				b3 := bd[bo[t+3]:][:len(d)]
				for j, v := range d {
					v += x0 * b0[j]
					v += x1 * b1[j]
					v += x2 * b2[j]
					v += x3 * b3[j]
					d[j] = v
				}
			}
			for ; t < nz; t++ {
				x := xs[t]
				b := bd[bo[t]:][:len(d)]
				for j, v := range b {
					d[j] += x * v
				}
			}
		}
	}
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n), producing m×n,
// without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions differ: %vᵀ · %v", a.shape, b.shape))
	}
	out := New(m, b.shape[1])
	matMulTransAInto(out, a, b, false)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b for a (k×m), b (k×n), dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) { matMulTransAInto(dst, a, b, false) }

// MatMulTransAAccInto computes dst += aᵀ·b, the dense/conv weight-
// gradient accumulation (dW += gradᵀ·x) without a temporary.
func MatMulTransAAccInto(dst, a, b *Tensor) { matMulTransAInto(dst, a, b, true) }

func matMulTransAInto(dst, a, b *Tensor, acc bool) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dimensions differ: %vᵀ · %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, dd := a.data, b.data, dst.data
	if runSerial(m * n * k) {
		gemmRows(dd, ad, bd, 0, m, k, n, 1, m, acc)
		return
	}
	parallelFor(m, rowGrain(m, 2*n*k), func(i0, i1 int) {
		gemmRows(dd, ad, bd, i0, i1, k, n, 1, m, acc)
	})
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k), producing m×n,
// without materializing the transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m := a.shape[0]
	if b.shape[1] != a.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v · %vᵀ", a.shape, b.shape))
	}
	out := New(m, b.shape[0])
	matMulTransBInto(out, a, b, nil)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ for a (m×k), b (n×k), dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) { matMulTransBInto(dst, a, b, nil) }

// MatMulTransBBiasInto computes dst = a·bᵀ + bias broadcast over rows —
// the fused dense/conv forward epilogue (bias has n elements).
func MatMulTransBBiasInto(dst, a, b, bias *Tensor) {
	if bias.Dims() != 1 || bias.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransBBiasInto bias %v, want [%d]", bias.shape, b.shape[0]))
	}
	matMulTransBInto(dst, a, b, bias.data)
}

func matMulTransBInto(dst, a, b *Tensor, bias []float64) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dimensions differ: %v · %vᵀ", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, dd := a.data, b.data, dst.data
	if runSerial(m * n * k) {
		matMulTransBRows(dd, ad, bd, bias, 0, m, k, n)
		return
	}
	parallelFor(m, rowGrain(m, 2*n*k), func(i0, i1 int) {
		matMulTransBRows(dd, ad, bd, bias, i0, i1, k, n)
	})
}

// matMulTransBRows computes output rows [i0, i1) of dst = a·bᵀ (+bias)
// in 1×4 register tiles: four independent dot products over one a row
// and four b rows, each summed in ascending p with the bias added last.
// Four accumulators hide the add latency that bounds a lone dot
// product. 2×4 and 1×8 tiles measured no faster on amd64, where the
// compiler's two-operand SSE2 code spills the 2×4 tile's registers.
func matMulTransBRows(dd, ad, bd, bias []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		a := ad[i*k : (i+1)*k]
		d := dd[i*n : (i+1)*n]
		for j := 0; j < n; j += 4 {
			o1, o2, o3 := colOffsets(j, n)
			b0 := bd[j*k : (j+1)*k][:len(a)]
			b1 := bd[(j+o1)*k : (j+o1+1)*k][:len(a)]
			b2 := bd[(j+o2)*k : (j+o2+1)*k][:len(a)]
			b3 := bd[(j+o3)*k : (j+o3+1)*k][:len(a)]
			var c0, c1, c2, c3 float64
			for p, x := range a {
				c0 += x * b0[p]
				c1 += x * b1[p]
				c2 += x * b2[p]
				c3 += x * b3[p]
			}
			if bias != nil {
				c0 += bias[j]
				c1 += bias[j+o1]
				c2 += bias[j+o2]
				c3 += bias[j+o3]
			}
			d[j], d[j+o1], d[j+o2], d[j+o3] = c0, c1, c2, c3
		}
	}
}

// colOffsets returns the offsets of a 1×4 tile's columns 1–3 from its
// first column j, clamped to the last column n-1. Past the edge of the
// matrix the tile repeats its last column instead of running a tail
// loop: the repeat computes the same element with the same operations,
// so its duplicate store writes identical bits.
func colOffsets(j, n int) (o1, o2, o3 int) {
	last := n - 1 - j
	return min(1, last), min(2, last), min(3, last)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// AddRowVector adds the length-n vector v to every row of the m×n matrix a,
// in place, and returns a. Used to apply bias terms.
func AddRowVector(a, v *Tensor) *Tensor {
	if a.Dims() != 2 || v.Dims() != 1 || v.shape[0] != a.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", a.shape, v.shape))
	}
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, bv := range v.data {
			row[j] += bv
		}
	}
	return a
}

// SumRows returns the length-n column-sum of the m×n matrix a. Used to
// reduce bias gradients over a batch.
func SumRows(a *Tensor) *Tensor {
	out := New(a.shape[1])
	SumRowsAccInto(out, a)
	return out
}

// SumRowsInto computes dst = column sums of a (dst has a.Dim(1) elems).
func SumRowsInto(dst, a *Tensor) {
	dst.Zero()
	SumRowsAccInto(dst, a)
}

// SumRowsAccInto computes dst += column sums of the m×n matrix a, the
// bias-gradient reduction (dB += Σ_batch grad). Rows accumulate in
// ascending order per column regardless of parallelism.
func SumRowsAccInto(dst, a *Tensor) {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRowsAccInto needs a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	mustShape("SumRowsAccInto dst", dst, n)
	ad, dd := a.data, dst.data
	if runSerial(m * n * 8) {
		sumRowsCols(dd, ad, 0, n, m, n)
		return
	}
	parallelFor(n, rowGrain(n, 2*m), func(j0, j1 int) {
		sumRowsCols(dd, ad, j0, j1, m, n)
	})
}

// sumRowsCols accumulates columns [j0, j1) of the column-sum reduction,
// traversing rows in ascending order.
func sumRowsCols(dd, ad []float64, j0, j1, m, n int) {
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		for j := j0; j < j1; j++ {
			dd[j] += row[j]
		}
	}
}
