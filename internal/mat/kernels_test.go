package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the reference triple loop the blocked kernels replaced;
// the equivalence tests below hold the blocked results to it within
// rounding, and BenchmarkMatMulBlocked measures the speedup against it.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(k, i)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func naiveMatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// maxRelDiff returns max_i |a_i − b_i| / max(1, |a_i|).
func maxRelDiff(t *testing.T, a, b *Matrix) float64 {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var worst float64
	for i := range a.Data {
		scale := math.Abs(a.Data[i])
		if scale < 1 {
			scale = 1
		}
		if d := math.Abs(a.Data[i]-b.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// kernelShapes covers block-boundary cases: empty, tiny, exact multiples of
// the unroll width and k tile, and off-by-one around both.
var kernelShapes = [][3]int{
	{0, 3, 4}, {3, 0, 4}, {3, 4, 0},
	{1, 1, 1}, {2, 3, 4}, {5, 7, 3},
	{4, 4, 4}, {8, 64, 8}, {8, 63, 8}, {8, 65, 8},
	{17, 129, 31}, {33, 128, 65}, {3, 200, 600},
}

func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range kernelShapes {
		m, k, n := shape[0], shape[1], shape[2]
		a := RandNormal(m, k, 1, rng)
		b := RandNormal(k, n, 1, rng)
		at := RandNormal(k, m, 1, rng)
		bt := RandNormal(n, k, 1, rng)
		// Sprinkle zeros so the zero-skip paths run.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}

		if d := maxRelDiff(t, naiveMatMul(a, b), MatMul(a, b)); d > 1e-12 {
			t.Errorf("MatMul %dx%dx%d: rel diff %g", m, k, n, d)
		}
		if d := maxRelDiff(t, naiveMatMulTransA(at, b), MatMulTransA(at, b)); d > 1e-12 {
			t.Errorf("MatMulTransA %dx%dx%d: rel diff %g", m, k, n, d)
		}
		if d := maxRelDiff(t, naiveMatMulTransB(a, bt), MatMulTransB(a, bt)); d > 1e-12 {
			t.Errorf("MatMulTransB %dx%dx%d: rel diff %g", m, k, n, d)
		}

		// Into overwrites stale contents; Accum adds on top of them.
		dst := RandNormal(m, n, 1, rng)
		if d := maxRelDiff(t, MatMul(a, b), MatMulInto(dst, a, b)); d != 0 {
			t.Errorf("MatMulInto %dx%dx%d: diff %g from MatMul", m, k, n, d)
		}
		base := RandNormal(m, n, 1, rng)
		sum := base.Clone()
		MatMulAccum(sum, a, b)
		want := Add(base, MatMul(a, b))
		if d := maxRelDiff(t, want, sum); d > 1e-12 {
			t.Errorf("MatMulAccum %dx%dx%d: rel diff %g", m, k, n, d)
		}

		dstA := RandNormal(m, n, 1, rng)
		if d := maxRelDiff(t, MatMulTransA(at, b), MatMulTransAInto(dstA, at, b)); d != 0 {
			t.Errorf("MatMulTransAInto %dx%dx%d: diff %g", m, k, n, d)
		}
		baseA := RandNormal(m, n, 1, rng)
		sumA := baseA.Clone()
		MatMulTransAAccum(sumA, at, b)
		if d := maxRelDiff(t, Add(baseA, MatMulTransA(at, b)), sumA); d > 1e-12 {
			t.Errorf("MatMulTransAAccum %dx%dx%d: rel diff %g", m, k, n, d)
		}

		dstB := RandNormal(m, n, 1, rng)
		if d := maxRelDiff(t, MatMulTransB(a, bt), MatMulTransBInto(dstB, a, bt)); d != 0 {
			t.Errorf("MatMulTransBInto %dx%dx%d: diff %g", m, k, n, d)
		}
		baseB := RandNormal(m, n, 1, rng)
		sumB := baseB.Clone()
		MatMulTransBAccum(sumB, a, bt)
		if d := maxRelDiff(t, Add(baseB, MatMulTransB(a, bt)), sumB); d > 1e-12 {
			t.Errorf("MatMulTransBAccum %dx%dx%d: rel diff %g", m, k, n, d)
		}
	}
}

// TestBlockedKernelsBitDeterministic pins the determinism contract the
// checkpoint bit-identity tests depend on: the same operands give the same
// bits, every run.
func TestBlockedKernelsBitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandNormal(33, 130, 1, rng)
	b := RandNormal(130, 65, 1, rng)
	first := MatMul(a, b)
	for rep := 0; rep < 5; rep++ {
		again := MatMul(a, b)
		for i := range first.Data {
			if math.Float64bits(first.Data[i]) != math.Float64bits(again.Data[i]) {
				t.Fatalf("rep %d: element %d differs bitwise: %v vs %v", rep, i, first.Data[i], again.Data[i])
			}
		}
	}
}

func TestIntoVariantsShapeChecks(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	bad := New(2, 3) // wrong dst shape for every product below
	for name, f := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(bad, a, b) },
		"MatMulAccum":      func() { MatMulAccum(bad, a, b) },
		"MatMulTransAInto": func() { MatMulTransAInto(bad, New(3, 2), b) },
		"MatMulTransBInto": func() { MatMulTransBInto(New(2, 2), a, New(5, 4)) },
		"AddInto":          func() { AddInto(bad, New(2, 4), New(2, 4)) },
		"SubInto":          func() { SubInto(bad, New(2, 4), New(2, 4)) },
		"MulInto":          func() { MulInto(bad, New(2, 4), New(2, 4)) },
		"ScaleInto":        func() { ScaleInto(bad, New(2, 4), 2) },
		"ApplyInto":        func() { ApplyInto(bad, New(2, 4), math.Abs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestElementwiseIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(4, 5, 1, rng)
	b := RandNormal(4, 5, 1, rng)
	dst := New(4, 5)
	if d := maxRelDiff(t, Add(a, b), AddInto(dst, a, b)); d != 0 {
		t.Errorf("AddInto diff %g", d)
	}
	if d := maxRelDiff(t, Sub(a, b), SubInto(dst, a, b)); d != 0 {
		t.Errorf("SubInto diff %g", d)
	}
	if d := maxRelDiff(t, Mul(a, b), MulInto(dst, a, b)); d != 0 {
		t.Errorf("MulInto diff %g", d)
	}
	if d := maxRelDiff(t, Scale(a, 2.5), ScaleInto(dst, a, 2.5)); d != 0 {
		t.Errorf("ScaleInto diff %g", d)
	}
	if d := maxRelDiff(t, Apply(a, math.Abs), ApplyInto(dst, a, math.Abs)); d != 0 {
		t.Errorf("ApplyInto diff %g", d)
	}
	// Aliasing dst with an operand is allowed for the elementwise variants.
	alias := a.Clone()
	AddInto(alias, alias, b)
	if d := maxRelDiff(t, Add(a, b), alias); d != 0 {
		t.Errorf("AddInto aliased diff %g", d)
	}
}

func TestIntoVariantsDoNotAllocate(t *testing.T) {
	a := New(16, 48)
	b := New(48, 32)
	bt := New(32, 48)
	at := New(48, 16)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	for i := range bt.Data {
		bt.Data[i] = float64(i%3) - 1
	}
	for i := range at.Data {
		at.Data[i] = float64(i%11) - 5
	}
	dst := New(16, 32)
	dstA := New(16, 32)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(dst, a, b)
		MatMulTransAInto(dstA, at, b)
		MatMulTransBInto(dst, a, bt)
		MatMulAccum(dst, a, b)
		MatMulTransAAccum(dstA, at, b)
		MatMulTransBAccum(dst, a, bt)
		AddInto(dst, dst, dst)
		SubInto(dst, dst, dstA)
		MulInto(dst, dst, dstA)
		ScaleInto(dst, dst, 0.5)
		ApplyInto(dst, dst, math.Abs)
	})
	if allocs != 0 {
		t.Fatalf("Into kernels allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkMatMulBlocked compares the blocked kernel against the naive
// triple loop at the CI-gated 256×256 shape. The workflow gate requires
// blocked ≥ 2x naive (min of 3 runs).
func BenchmarkMatMulBlocked(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(42))
	x := RandNormal(n, n, 1, rng)
	y := RandNormal(n, n, 1, rng)
	dst := New(n, n)
	b.Run(fmt.Sprintf("impl=naive/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveMatMul(x, y)
		}
	})
	b.Run(fmt.Sprintf("impl=blocked/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, x, y)
		}
	})
}
