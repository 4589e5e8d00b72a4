package tensor

import (
	"fmt"
	"sync"
)

// DefaultBlock is the cache-block edge used by the blocked GEMM kernels.
// 64×64 float64 tiles are 32 KiB — sized for a typical L1d cache (float32
// tiles are half that, which only helps). The block size is a parameter so
// the blocking ablation bench can sweep it; it is a multiple of both SIMD
// lane widths so blocked panels stay lane-aligned.
const DefaultBlock = 64

func checkGEMM[T Float](dst, a, b *Dense[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GEMM shape mismatch dst %dx%d = a %dx%d * b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == a || dst == b {
		panic("tensor: GEMM destination must not alias an operand")
	}
}

// MatMulNaive computes dst = a·b with the textbook triple loop (ikj order so
// the inner loop is unit-stride). It is the reference every other kernel is
// cross-checked against.
func MatMulNaive[T Float](dst, a, b *Dense[T]) {
	checkGEMM(dst, a, b)
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulBlocked computes dst = a·b using cache blocking with the given block
// edge. block <= 0 selects DefaultBlock. The kernel accumulates into dst
// tiles that stay resident in L1 while streaming panels of a and b.
func MatMulBlocked[T Float](dst, a, b *Dense[T], block int) {
	checkGEMM(dst, a, b)
	if block <= 0 {
		block = DefaultBlock
	}
	dst.Zero()
	matMulBlockedRange(dst, a, b, block, 0, a.Rows)
}

// matMulBlockedRange runs the blocked kernel over dst rows [r0, r1).
// It is the unit of work handed to GEMM workers. The innermost j sweep is
// the fused two-row axpy2 microkernel, which dispatches to AVX2+FMA when
// available — there float32 processes twice the lanes per instruction,
// which is the entire hardware case for the reduced-precision path.
// Products narrower than simdMinLen (the readouts' two classes) run the
// microkernels' scalar loops inline: there the call costs more than the
// sweep, and the per-element expressions, hence the bits, are the same.
func matMulBlockedRange[T Float](dst, a, b *Dense[T], block, r0, r1 int) {
	k, n := a.Cols, b.Cols
	narrow := n < simdMinLen
	for ii := r0; ii < r1; ii += block {
		iMax := min(ii+block, r1)
		for kk := 0; kk < k; kk += block {
			kMax := min(kk+block, k)
			for jj := 0; jj < n; jj += block {
				jMax := min(jj+block, n)
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*k : i*k+k]
					drow := dst.Data[i*n+jj : i*n+jMax]
					// 2-way unroll over the reduction dimension keeps two
					// independent FMA chains in flight.
					kkk := kk
					for ; kkk+1 < kMax; kkk += 2 {
						av0 := arow[kkk]
						av1 := arow[kkk+1]
						if av0 == 0 && av1 == 0 {
							continue
						}
						b0 := b.Data[kkk*n+jj : kkk*n+jMax]
						b1 := b.Data[(kkk+1)*n+jj : (kkk+1)*n+jMax]
						if !narrow {
							axpy2(av0, av1, b0, b1, drow)
							continue
						}
						for j := range drow {
							drow[j] += av0*b0[j] + av1*b1[j]
						}
					}
					for ; kkk < kMax; kkk++ {
						av := arow[kkk]
						if av == 0 {
							continue
						}
						brow := b.Data[kkk*n+jj : kkk*n+jMax]
						if !narrow {
							axpyDispatch(av, brow, drow)
							continue
						}
						for j, bv := range brow {
							drow[j] += av * bv
						}
					}
				}
			}
		}
	}
}

// MatMulParallel computes dst = a·b by splitting dst rows across `workers`
// goroutines, each running the blocked kernel over its row band. workers <= 1
// degrades to the serial blocked kernel.
func MatMulParallel[T Float](dst, a, b *Dense[T], block, workers int) {
	checkGEMM(dst, a, b)
	if block <= 0 {
		block = DefaultBlock
	}
	// blk is a single-assignment copy: the goroutine closure below must not
	// capture a reassigned variable, or the compiler captures it by
	// reference and heap-allocates the cell at function entry — one alloc
	// per call even on the serial branch, which the predict hot path runs
	// at zero allocations.
	blk := block
	if workers <= 1 || a.Rows < 2*blk {
		dst.Zero()
		matMulBlockedRange(dst, a, b, blk, 0, a.Rows)
		return
	}
	dst.Zero()
	var wg sync.WaitGroup
	rows := a.Rows
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		if r0 >= rows {
			break
		}
		r1 := min(r0+chunk, rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			matMulBlockedRange(dst, a, b, blk, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// MatMulATB computes dst = aᵀ·b without materializing the transpose.
// a is m×r, b is m×n, dst is r×n. This is the shape of the BCPNN joint-trace
// update E[x πᵀ] where a holds a batch of inputs and b a batch of activations.
func MatMulATB[T Float](dst, a, b *Dense[T]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch dst %dx%d = aT %dx%d * b %dx%d",
			dst.Rows, dst.Cols, a.Cols, a.Rows, b.Rows, b.Cols))
	}
	// Narrow rows run axpyDispatch's scalar loop inline, as in
	// matMulBlockedRange.
	dst.Zero()
	n := b.Cols
	narrow := n < simdMinLen
	for s := 0; s < a.Rows; s++ {
		arow := a.Row(s)
		brow := b.Row(s)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : i*n+n]
			if !narrow {
				axpyDispatch(av, brow, drow)
				continue
			}
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulATBParallel is MatMulATB with the accumulation parallelized over dst
// rows. Each worker owns a band of dst rows (a band of a's columns), so no
// synchronization on dst is needed; a and b are read-only.
func MatMulATBParallel[T Float](dst, a, b *Dense[T], workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATBParallel shape mismatch")
	}
	if workers <= 1 || dst.Rows < 64 {
		MatMulATB(dst, a, b)
		return
	}
	dst.Zero()
	n := b.Cols
	narrow := n < simdMinLen
	cols := a.Cols
	chunk := (cols + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c0 := w * chunk
		if c0 >= cols {
			break
		}
		c1 := min(c0+chunk, cols)
		wg.Add(1)
		go func(c0, c1 int) {
			defer wg.Done()
			for s := 0; s < a.Rows; s++ {
				arow := a.Row(s)
				brow := b.Row(s)
				for i := c0; i < c1; i++ {
					av := arow[i]
					if av == 0 {
						continue
					}
					drow := dst.Data[i*n : i*n+n]
					if !narrow {
						axpyDispatch(av, brow, drow)
						continue
					}
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}(c0, c1)
	}
	wg.Wait()
}

// OneHotMatMul computes dst = X·W where X is a batch of concatenated one-hot
// groups given by active indices instead of a dense matrix: sample s has
// exactly len(idx[s]) active inputs (value 1) at the listed positions.
// W is in×out, dst is batch×out. Exploiting the one-hot structure turns the
// input GEMM into len(idx[s]) row gathers per sample, the optimization the
// StreamBrain paper attributes to the quantile one-hot encoding (§V).
//
// bi restricts the gather to the active blocks of a receptive field
// (DESIGN.md §15): each active input adds only the weight-row segments of
// the hidden HCUs its input hypercolumn reaches. nil gathers whole rows.
// Silent blocks of W hold exact zeros, and the add is element-wise, so the
// skipped segments are additions of +0: every index gives the same bits.
func OneHotMatMul[T Float](dst *Dense[T], idx [][]int32, w *Dense[T], bi *BlockIndex) {
	if dst.Rows != len(idx) || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: OneHotMatMul shape mismatch dst %dx%d, idx %d, w %dx%d",
			dst.Rows, dst.Cols, len(idx), w.Rows, w.Cols))
	}
	checkBlockIndex(bi, w)
	n := w.Cols
	for s, active := range idx {
		drow := dst.Row(s)
		clear(drow)
		for _, in := range active {
			wrow := w.Data[int(in)*n : int(in)*n+n]
			if bi == nil {
				addDispatch(drow, wrow)
				continue
			}
			for _, h := range bi.Active(int(in) / bi.Mi) {
				o := int(h) * bi.M
				addDispatch(drow[o:o+bi.M], wrow[o:o+bi.M])
			}
		}
	}
}

// OneHotMatMulParallel parallelizes OneHotMatMul over the batch dimension.
func OneHotMatMulParallel[T Float](dst *Dense[T], idx [][]int32, w *Dense[T],
	bi *BlockIndex, workers int) {
	if workers <= 1 || len(idx) < 4 {
		OneHotMatMul(dst, idx, w, bi)
		return
	}
	if dst.Rows != len(idx) || dst.Cols != w.Cols {
		panic("tensor: OneHotMatMulParallel shape mismatch")
	}
	var wg sync.WaitGroup
	rows := len(idx)
	chunk := (rows + workers - 1) / workers
	for wk := 0; wk < workers; wk++ {
		r0 := wk * chunk
		if r0 >= rows {
			break
		}
		r1 := min(r0+chunk, rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			sub := &Dense[T]{Rows: r1 - r0, Cols: dst.Cols,
				Data: dst.Data[r0*dst.Cols : r1*dst.Cols]}
			OneHotMatMul(sub, idx[r0:r1], w, bi)
		}(r0, r1)
	}
	wg.Wait()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
