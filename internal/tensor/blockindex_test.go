package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestBlockIndexDense checks the nil-mask (fully dense) construction: every
// block active, full row lists, Density 1.
func TestBlockIndexDense(t *testing.T) {
	bi := NewBlockIndex(nil, 4, 3, 5, 2)
	if got, want := bi.ActiveBlocks(), 4*5; got != want {
		t.Fatalf("ActiveBlocks() = %d, want %d", got, want)
	}
	if got, want := bi.ActiveElems(), int64(4*5*3*2); got != want {
		t.Fatalf("ActiveElems() = %d, want %d", got, want)
	}
	if bi.Density() != 1 || bi.Sparsity() != 0 {
		t.Fatalf("dense index reports density %v, sparsity %v", bi.Density(), bi.Sparsity())
	}
	for f := 0; f < 4; f++ {
		active := bi.Active(f)
		if len(active) != 5 {
			t.Fatalf("Active(%d) has %d entries, want 5", f, len(active))
		}
		for j, h := range active {
			if int(h) != j {
				t.Fatalf("Active(%d)[%d] = %d, want %d", f, j, h, j)
			}
		}
	}
}

// TestBlockIndexMasked checks CSR construction from a hand-written mask:
// per-row active lists stay sorted, and the counters/fractions match.
func TestBlockIndexMasked(t *testing.T) {
	// 3 input hypercolumns × 2 hidden HCUs, row-major like the kernels' mask.
	mask := []bool{
		true, false, // fi 0 → h {0}
		false, false, // fi 1 → silent
		true, true, // fi 2 → h {0, 1}
	}
	bi := NewBlockIndex(mask, 3, 4, 2, 5)
	if got, want := bi.ActiveBlocks(), 3; got != want {
		t.Fatalf("ActiveBlocks() = %d, want %d", got, want)
	}
	if got, want := bi.ActiveElems(), int64(3*4*5); got != want {
		t.Fatalf("ActiveElems() = %d, want %d", got, want)
	}
	if got, want := bi.Density(), 0.5; got != want {
		t.Fatalf("Density() = %v, want %v", got, want)
	}
	if got, want := bi.Sparsity(), 0.5; got != want {
		t.Fatalf("Sparsity() = %v, want %v", got, want)
	}
	wantRows := [][]int32{{0}, {}, {0, 1}}
	for f, want := range wantRows {
		got := bi.Active(f)
		if len(got) != len(want) {
			t.Fatalf("Active(%d) = %v, want %v", f, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Active(%d) = %v, want %v", f, got, want)
			}
		}
	}
}

// TestBlockIndexEqual checks Equal across same-mask rebuilds, differing
// active sets, differing geometry, and nil.
func TestBlockIndexEqual(t *testing.T) {
	mask := []bool{true, false, false, true}
	a := NewBlockIndex(mask, 2, 3, 2, 3)
	if !a.Equal(NewBlockIndex(mask, 2, 3, 2, 3)) {
		t.Fatal("identical rebuilds are not Equal")
	}
	other := []bool{true, false, true, false}
	if a.Equal(NewBlockIndex(other, 2, 3, 2, 3)) {
		t.Fatal("differing active sets compare Equal")
	}
	if a.Equal(NewBlockIndex(mask, 2, 4, 2, 3)) {
		t.Fatal("differing block shapes compare Equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) = true")
	}
}

// TestBlockIndexPanics checks the constructor and kernel guard rails.
func TestBlockIndexPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero geometry", func() { NewBlockIndex(nil, 0, 3, 2, 3) })
	mustPanic("short mask", func() { NewBlockIndex(make([]bool, 3), 2, 3, 2, 3) })
	mustPanic("non-tiling index", func() {
		w := NewDense[float64](6, 6)
		OneHotMatMul(w, make([][]int32, 6), w, NewBlockIndex(nil, 2, 2, 2, 3))
	})
}

// TestOneHotMatMulSparseMatchesDense checks the frozen-silent contract
// (DESIGN.md §15) at the tensor level: when silent blocks of W hold exact
// zeros — the invariant ZeroSilent establishes on every index rebuild — the
// gather through the block index is bit-identical to the nil-index one,
// serial and parallel.
func TestOneHotMatMulSparseMatchesDense(t *testing.T) {
	const fi, mi, h, m, batch = 5, 4, 3, 6, 17
	rng := rand.New(rand.NewSource(7))
	mask := make([]bool, fi*h)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	bi := NewBlockIndex(mask, fi, mi, h, m)
	w := NewDense[float64](fi*mi, h*m)
	for f := 0; f < fi; f++ {
		for j := 0; j < h; j++ {
			if !mask[f*h+j] {
				continue // silent blocks stay exactly zero
			}
			for r := f * mi; r < (f+1)*mi; r++ {
				for c := j * m; c < (j+1)*m; c++ {
					w.Set(r, c, rng.NormFloat64())
				}
			}
		}
	}
	idx := make([][]int32, batch)
	for s := range idx {
		for f := 0; f < fi; f++ {
			idx[s] = append(idx[s], int32(f*mi+rng.Intn(mi)))
		}
	}
	want := NewDense[float64](batch, h*m)
	OneHotMatMul(want, idx, w, nil)
	got := NewDense[float64](batch, h*m)
	OneHotMatMul(got, idx, w, bi)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("serial sparse gather diverges at flat index %d: %v != %v", i, got.Data[i], v)
		}
	}
	for i := range got.Data {
		got.Data[i] = -1
	}
	OneHotMatMulParallel(got, idx, w, bi, 4)
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("parallel sparse gather diverges at flat index %d: %v != %v", i, got.Data[i], v)
		}
	}
}

// TestZeroSilentAndBlockCast checks the two block-indexed matrix helpers at
// H > 1 with an M that is no multiple of any SIMD width: ZeroSilent clears
// exactly the silent blocks, and a block-indexed float32 recast over a
// matrix whose silent blocks are zero gives the same bits as the nil-index
// (whole-matrix) recast, for the full and a partial index alike.
func TestZeroSilentAndBlockCast(t *testing.T) {
	const fi, mi, h, m = 4, 3, 3, 37
	rng := rand.New(rand.NewSource(9))
	mask := make([]bool, fi*h)
	for i := range mask {
		mask[i] = i%3 != 1
	}
	partial := NewBlockIndex(mask, fi, mi, h, m)
	w := NewDense[float64](fi*mi, h*m)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	before := w.Clone()
	ZeroSilent(w, nil) // no silent block
	ZeroSilent(w, NewBlockIndex(nil, fi, mi, h, m))
	if d := w.MaxAbsDiff(before); d != 0 {
		t.Fatalf("ZeroSilent without silent blocks changed the matrix by %g", d)
	}
	ZeroSilent(w, partial)
	for r := 0; r < w.Rows; r++ {
		for c := 0; c < w.Cols; c++ {
			want := before.At(r, c)
			if !mask[(r/mi)*h+c/m] {
				want = 0
			}
			if got := w.At(r, c); got != want || (want == 0 && math.Signbit(got)) {
				t.Fatalf("ZeroSilent (%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
	want := NewDense[float32](w.Rows, w.Cols)
	CastInto(want, w, nil)
	for _, bi := range []*BlockIndex{NewBlockIndex(nil, fi, mi, h, m), partial} {
		got := NewDense[float32](w.Rows, w.Cols)
		CastInto(got, w, bi)
		for i, v := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%d active blocks: recast diverges at %d: %v != %v",
					bi.ActiveBlocks(), i, got.Data[i], v)
			}
		}
	}
}
