package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const gemmTol = 1e-9

func TestMatMulNaiveKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMulNaive(dst, a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !dst.Equal(want, gemmTol) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 6, 6)
	id := NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(6, 6)
	MatMulNaive(dst, a, id)
	if !dst.Equal(a, gemmTol) {
		t.Fatal("A·I != A")
	}
}

func TestGEMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulNaive(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestGEMMAliasPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for aliased dst")
		}
	}()
	MatMulNaive(a, a, NewMatrix(2, 2))
}

// TestBlockedMatchesNaive is the kernel cross-check: the blocked kernel must
// agree with the reference for many shapes, including non-multiples of the
// block size and degenerate 1-row/1-col cases.
func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {63, 64, 65},
		{64, 64, 64}, {100, 1, 100}, {1, 100, 1}, {37, 129, 41}}
	for _, sh := range shapes {
		a := randMatrix(rng, sh[0], sh[1])
		b := randMatrix(rng, sh[1], sh[2])
		want := NewMatrix(sh[0], sh[2])
		MatMulNaive(want, a, b)
		for _, block := range []int{0, 8, 16, 64, 128} {
			got := NewMatrix(sh[0], sh[2])
			MatMulBlocked(got, a, b, block)
			if d := got.MaxAbsDiff(want); d > gemmTol {
				t.Fatalf("shape %v block %d: max diff %g", sh, block, d)
			}
		}
	}
}

func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, workers := range []int{1, 2, 3, 8} {
		a := randMatrix(rng, 150, 70)
		b := randMatrix(rng, 70, 90)
		want := NewMatrix(150, 90)
		MatMulNaive(want, a, b)
		got := NewMatrix(150, 90)
		MatMulParallel(got, a, b, 32, workers)
		if d := got.MaxAbsDiff(want); d > gemmTol {
			t.Fatalf("workers=%d: max diff %g", workers, d)
		}
	}
}

func TestMatMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 40, 17)
	b := randMatrix(rng, 40, 23)
	want := NewMatrix(17, 23)
	MatMulNaive(want, a.Transpose(), b)
	got := NewMatrix(17, 23)
	MatMulATB(got, a, b)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("ATB mismatch: %g", d)
	}
	gotP := NewMatrix(17, 23)
	MatMulATBParallel(gotP, a, b, 4)
	if d := gotP.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("ATB parallel mismatch: %g", d)
	}
}

// TestGEMMLinearity is a property test: GEMM must be linear in its left
// operand, (A1+A2)·B = A1·B + A2·B.
func TestGEMMLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a1 := randMatrix(rng, m, k)
		a2 := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		sum := a1.Clone()
		for i := range sum.Data {
			sum.Data[i] += a2.Data[i]
		}
		lhs := NewMatrix(m, n)
		MatMulBlocked(lhs, sum, b, 8)
		r1 := NewMatrix(m, n)
		r2 := NewMatrix(m, n)
		MatMulBlocked(r1, a1, b, 8)
		MatMulBlocked(r2, a2, b, 8)
		for i := range r1.Data {
			r1.Data[i] += r2.Data[i]
		}
		return lhs.MaxAbsDiff(r1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOneHotMatMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const batch, groups, width, out = 9, 7, 5, 13
	in := groups * width
	w := randMatrix(rng, in, out)
	idx := make([][]int32, batch)
	dense := NewMatrix(batch, in)
	for s := 0; s < batch; s++ {
		for g := 0; g < groups; g++ {
			hot := g*width + rng.Intn(width)
			idx[s] = append(idx[s], int32(hot))
			dense.Set(s, hot, 1)
		}
	}
	want := NewMatrix(batch, out)
	MatMulNaive(want, dense, w)
	got := NewMatrix(batch, out)
	OneHotMatMul(got, idx, w, nil)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("one-hot mismatch: %g", d)
	}
	gotP := NewMatrix(batch, out)
	OneHotMatMulParallel(gotP, idx, w, nil, 4)
	if d := gotP.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("one-hot parallel mismatch: %g", d)
	}
}

func TestOneHotMatMulEmptyActives(t *testing.T) {
	w := randMatrix(rand.New(rand.NewSource(7)), 4, 3)
	got := NewMatrix(2, 3)
	got.Fill(99) // must be overwritten with zeros
	OneHotMatMul(got, [][]int32{{}, {}}, w, nil)
	for _, v := range got.Data {
		if v != 0 {
			t.Fatal("empty active set should produce zero rows")
		}
	}
}

func TestMatMulParallelSmallFallback(t *testing.T) {
	// Rows smaller than 2*block must fall back to the serial path and still
	// be correct.
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 3, 5)
	b := randMatrix(rng, 5, 4)
	want := NewMatrix(3, 4)
	MatMulNaive(want, a, b)
	got := NewMatrix(3, 4)
	MatMulParallel(got, a, b, 64, 8)
	if d := got.MaxAbsDiff(want); d > gemmTol {
		t.Fatalf("small fallback mismatch: %g", d)
	}
}

// matMulCallsOracle is the blocked kernel as it was before narrow products
// ran inline: one axpy2/axpyDispatch call per reduction pair and element,
// whatever the width. The narrow path must reproduce it bit for bit.
func matMulCallsOracle[T Float](dst, a, b *Dense[T], block int) {
	dst.Zero()
	k, n := a.Cols, b.Cols
	for ii := 0; ii < a.Rows; ii += block {
		iMax := min(ii+block, a.Rows)
		for kk := 0; kk < k; kk += block {
			kMax := min(kk+block, k)
			for jj := 0; jj < n; jj += block {
				jMax := min(jj+block, n)
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*k : i*k+k]
					drow := dst.Data[i*n+jj : i*n+jMax]
					kkk := kk
					for ; kkk+1 < kMax; kkk += 2 {
						av0, av1 := arow[kkk], arow[kkk+1]
						if av0 == 0 && av1 == 0 {
							continue
						}
						axpy2(av0, av1, b.Data[kkk*n+jj:kkk*n+jMax],
							b.Data[(kkk+1)*n+jj:(kkk+1)*n+jMax], drow)
					}
					for ; kkk < kMax; kkk++ {
						if av := arow[kkk]; av != 0 {
							axpyDispatch(av, b.Data[kkk*n+jj:kkk*n+jMax], drow)
						}
					}
				}
			}
		}
	}
}

// atbCallsOracle is MatMulATB with one axpyDispatch call per element.
func atbCallsOracle[T Float](dst, a, b *Dense[T]) {
	dst.Zero()
	n := b.Cols
	for s := 0; s < a.Rows; s++ {
		for i, av := range a.Row(s) {
			if av != 0 {
				axpyDispatch(av, b.Row(s), dst.Data[i*n:i*n+n])
			}
		}
	}
}

func sameBitsDense[T Float](a, b *Dense[T]) bool {
	for i := range a.Data {
		if !sameBits64(float64(a.Data[i]), float64(b.Data[i])) {
			return false
		}
	}
	return true
}

// TestNarrowProductsMatchCalls: readout-width products (n < simdMinLen) run
// inline and must equal the per-call kernel bit for bit, over odd reduction
// lengths, odd block edges and zeros in a (the skip paths).
func TestNarrowProductsMatchCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{1, 2, 3, 15} {
		for _, k := range []int{1, 7, 131} {
			for _, block := range []int{3, 5, 64} {
				m := 70
				a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
				for i := range a.Data {
					if rng.Intn(3) == 0 {
						a.Data[i] = 0
					}
				}
				want, got := NewMatrix(m, n), NewMatrix(m, n)
				matMulCallsOracle(want, a, b, block)
				MatMulBlocked(got, a, b, block)
				if !sameBitsDense(got, want) {
					t.Fatalf("MatMulBlocked n %d k %d block %d differs from the per-call kernel", n, k, block)
				}
				MatMulParallel(got, a, b, block, 3)
				if !sameBitsDense(got, want) {
					t.Fatalf("MatMulParallel n %d k %d block %d differs from the per-call kernel", n, k, block)
				}
				a32, b32 := Cast[float32](a), Cast[float32](b)
				want32, got32 := NewMatrix32(m, n), NewMatrix32(m, n)
				matMulCallsOracle(want32, a32, b32, block)
				MatMulBlocked(got32, a32, b32, block)
				if !sameBitsDense(got32, want32) {
					t.Fatalf("float32 MatMulBlocked n %d k %d block %d differs from the per-call kernel", n, k, block)
				}
			}
			// aᵀ·c with a m×k and c m×n: k rows of n, more than the 64 rows
			// MatMulATBParallel needs to shard at k = 131.
			a, c := randMatrix(rng, 9, k), randMatrix(rng, 9, n)
			a.Data[0], a.Data[len(a.Data)-1] = 0, 0
			want, got := NewMatrix(k, n), NewMatrix(k, n)
			atbCallsOracle(want, a, c)
			MatMulATB(got, a, c)
			if !sameBitsDense(got, want) {
				t.Fatalf("MatMulATB n %d k %d differs from the per-call kernel", n, k)
			}
			MatMulATBParallel(got, a, c, 3)
			if !sameBitsDense(got, want) {
				t.Fatalf("MatMulATBParallel n %d k %d differs from the per-call kernel", n, k)
			}
		}
	}
}
