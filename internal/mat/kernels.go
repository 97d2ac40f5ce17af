// Blocked matrix-multiply kernels. These are the repository's numeric inner
// loops: every GNN message pass, dense layer, and autodiff backward step
// bottoms out here, so the kernels are written for cache locality and zero
// steady-state allocation rather than brevity.
//
// Layout of the file: the public *Into variants overwrite a caller-owned
// destination (zero, then accumulate), the public *Accum variants add into
// it (the gradient `+=` pattern), and both delegate to unexported
// accumulate-only cores. The cores block the k dimension in kcBlock-sized
// tiles and unroll it four-wide so each pass over an output row folds four
// rank-1 updates into one load/store sweep.
//
// Determinism contract: for a fixed set of operand shapes the floating-point
// summation order is a pure function of the shapes — blocking and unrolling
// never depend on values (the all-zero skip only elides exact +0
// contributions) — so repeated runs are bit-identical. The order differs
// from the naive triple loop's, so results may differ from the pre-blocked
// kernels in the last ulp, but never across runs of the same binary.
package mat

import "fmt"

const (
	// kcBlock is the k-dimension tile: one tile of b (kcBlock rows) is
	// streamed across every row of a before the next tile, keeping the
	// active slice of b hot in cache while output rows are revisited.
	kcBlock = 64
	// jcBlock caps the output-row span touched per pass so very wide
	// matrices do not thrash the active b tile out of cache.
	jcBlock = 512
)

// MatMulInto computes a×b into dst, overwriting it. dst must be
// a.Rows×b.Cols and must not alias a or b. It returns dst.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmul dst", dst, a.Rows, b.Cols)
	dst.Zero()
	matMulAccum(dst, a, b)
	return dst
}

// MatMulAccum adds a×b into dst. Shape rules match MatMulInto.
func MatMulAccum(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmul dst", dst, a.Rows, b.Cols)
	matMulAccum(dst, a, b)
	return dst
}

// MatMulTransAInto computes aᵀ×b into dst, overwriting it. dst must be
// a.Cols×b.Cols and must not alias a or b. It returns dst.
func MatMulTransAInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: matmulTransA shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulTransA dst", dst, a.Cols, b.Cols)
	dst.Zero()
	matMulTransAAccum(dst, a, b)
	return dst
}

// MatMulTransAAccum adds aᵀ×b into dst. Shape rules match MatMulTransAInto.
func MatMulTransAAccum(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: matmulTransA shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulTransA dst", dst, a.Cols, b.Cols)
	matMulTransAAccum(dst, a, b)
	return dst
}

// MatMulTransBInto computes a×bᵀ into dst, overwriting it. dst must be
// a.Rows×b.Rows and must not alias a or b. It returns dst.
func MatMulTransBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: matmulTransB shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulTransB dst", dst, a.Rows, b.Rows)
	dst.Zero()
	matMulTransBAccum(dst, a, b)
	return dst
}

// MatMulTransBAccum adds a×bᵀ into dst. Shape rules match MatMulTransBInto.
func MatMulTransBAccum(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: matmulTransB shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulTransB dst", dst, a.Rows, b.Rows)
	matMulTransBAccum(dst, a, b)
	return dst
}

// matMulAccum adds a×b into dst using a k-blocked, four-wide-unrolled sweep:
// for each k tile, each output row absorbs four rank-1 updates per pass, so
// the row is loaded and stored once per four k steps instead of once per
// step, and the active b tile stays cache-resident across all rows of a.
func matMulAccum(dst, a, b *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Cols
	if m == 0 || kk == 0 || n == 0 {
		return
	}
	for k0 := 0; k0 < kk; k0 += kcBlock {
		k1 := k0 + kcBlock
		if k1 > kk {
			k1 = kk
		}
		for j0 := 0; j0 < n; j0 += jcBlock {
			j1 := j0 + jcBlock
			if j1 > n {
				j1 = n
			}
			for i := 0; i < m; i++ {
				arow := a.Data[i*kk : (i+1)*kk]
				orow := dst.Data[i*n+j0 : i*n+j1]
				k := k0
				for ; k+3 < k1; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					b0 := b.Data[k*n+j0 : k*n+j1 : k*n+j1]
					b1 := b.Data[(k+1)*n+j0 : (k+1)*n+j1 : (k+1)*n+j1]
					b2 := b.Data[(k+2)*n+j0 : (k+2)*n+j1 : (k+2)*n+j1]
					b3 := b.Data[(k+3)*n+j0 : (k+3)*n+j1 : (k+3)*n+j1]
					for j := range orow {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[k*n+j0 : k*n+j1 : k*n+j1]
					for j := range orow {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// matMulTransAAccum adds aᵀ×b into dst. a's rows are the contraction
// dimension, so the kernel walks them four at a time and scatters grouped
// rank-1 updates into dst rows; the four-wide grouping halves the traffic on
// dst the same way matMulAccum's unroll does.
func matMulTransAAccum(dst, a, b *Matrix) {
	kk, m, n := a.Rows, a.Cols, b.Cols
	if m == 0 || kk == 0 || n == 0 {
		return
	}
	k := 0
	for ; k+3 < kk; k += 4 {
		a0row := a.Data[k*m : (k+1)*m]
		a1row := a.Data[(k+1)*m : (k+2)*m]
		a2row := a.Data[(k+2)*m : (k+3)*m]
		a3row := a.Data[(k+3)*m : (k+4)*m]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := a0row[i], a1row[i], a2row[i], a3row[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n : (i+1)*n]
			for j := range orow {
				orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
	}
	for ; k < kk; k++ {
		arow := a.Data[k*m : (k+1)*m]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n : (i+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// matMulTransBAccum adds a×bᵀ into dst. Each output element is a dot
// product of contiguous rows, computed with four independent accumulators to
// break the add-latency chain; the accumulators fold in a fixed
// shape-determined order so results stay bit-identical across runs.
func matMulTransBAccum(dst, a, b *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	if m == 0 || n == 0 {
		return
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			brow := b.Data[j*kk : (j+1)*kk : (j+1)*kk]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+3 < kk; k += 4 {
				s0 += arow[k] * brow[k]
				s1 += arow[k+1] * brow[k+1]
				s2 += arow[k+2] * brow[k+2]
				s3 += arow[k+3] * brow[k+3]
			}
			var tail float64
			for ; k < kk; k++ {
				tail += arow[k] * brow[k]
			}
			orow[j] += (s0 + s1) + (s2 + s3) + tail
		}
	}
}

// AddInto computes a+b into dst, overwriting it. dst may alias a or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	mustSameShape("add", a, b)
	mustShape("add dst", dst, a.Rows, a.Cols)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// SubInto computes a−b into dst, overwriting it. dst may alias a or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	mustSameShape("sub", a, b)
	mustShape("sub dst", dst, a.Rows, a.Cols)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// MulInto computes a⊙b into dst, overwriting it. dst may alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	mustSameShape("mul", a, b)
	mustShape("mul dst", dst, a.Rows, a.Cols)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// ScaleInto computes s·a into dst, overwriting it. dst may alias a.
func ScaleInto(dst, a *Matrix, s float64) *Matrix {
	mustShape("scale dst", dst, a.Rows, a.Cols)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * s
	}
	return dst
}

// ApplyInto computes f applied elementwise to a into dst, overwriting it.
// dst may alias a.
func ApplyInto(dst, a *Matrix, f func(float64) float64) *Matrix {
	mustShape("apply dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// mustShape panics unless m is rows×cols.
func mustShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("mat: %s shape mismatch: have %dx%d, want %dx%d", op, m.Rows, m.Cols, rows, cols))
	}
}
