package tensor

import "fmt"

// BlockIndex is the compressed form of a receptive-field mask (DESIGN.md §15):
// a CSR index over the Fi×H grid of (input hypercolumn, hidden hypercolumn)
// blocks listing, for every input hypercolumn, the hidden HCUs whose mask bit
// is set. Block (fi, h) covers the Mi×M sub-panel of the weight and joint-
// trace matrices at rows [fi·Mi, (fi+1)·Mi) and columns [h·M, (h+1)·M).
//
// The index is immutable once built and is rebuilt only when the mask changes
// (a structural-plasticity swap or a prune/regrow step), never per batch —
// the whole point is that the per-batch kernels walk the short active lists
// instead of testing Fi·H mask bits, and skip the silent panels entirely.
type BlockIndex struct {
	// Geometry: Fi input hypercolumns of Mi units each, H hidden HCUs of M
	// units each.
	Fi, Mi, H, M int

	// rowStart has Fi+1 entries; cols[rowStart[fi]:rowStart[fi+1]] is the
	// sorted list of active hidden HCUs of input hypercolumn fi.
	rowStart []int32
	cols     []int32
}

// NewBlockIndex compresses an fi×h row-major boolean mask (the layout of
// core.HiddenLayer.Mask) into a block index with the given block shape. A nil
// mask means fully dense: every block is active.
func NewBlockIndex(mask []bool, fi, mi, h, m int) *BlockIndex {
	if fi < 1 || mi < 1 || h < 1 || m < 1 {
		panic(fmt.Sprintf("tensor: BlockIndex bad geometry %d×%d blocks of %d×%d", fi, h, mi, m))
	}
	if mask != nil && len(mask) != fi*h {
		panic(fmt.Sprintf("tensor: BlockIndex mask length %d, want %d", len(mask), fi*h))
	}
	b := &BlockIndex{Fi: fi, Mi: mi, H: h, M: m, rowStart: make([]int32, fi+1)}
	if mask == nil {
		b.cols = make([]int32, fi*h)
		for f := 0; f < fi; f++ {
			b.rowStart[f] = int32(f * h)
			for j := 0; j < h; j++ {
				b.cols[f*h+j] = int32(j)
			}
		}
		b.rowStart[fi] = int32(fi * h)
		return b
	}
	n := 0
	for _, on := range mask {
		if on {
			n++
		}
	}
	b.cols = make([]int32, 0, n)
	for f := 0; f < fi; f++ {
		b.rowStart[f] = int32(len(b.cols))
		for j := 0; j < h; j++ {
			if mask[f*h+j] {
				b.cols = append(b.cols, int32(j))
			}
		}
	}
	b.rowStart[fi] = int32(len(b.cols))
	return b
}

// Active returns the sorted active hidden-HCU list of input hypercolumn fi.
// The returned slice aliases the index; callers must not modify it.
func (b *BlockIndex) Active(fi int) []int32 {
	return b.cols[b.rowStart[fi]:b.rowStart[fi+1]]
}

// ActiveBlocks returns the total number of active (fi, h) blocks.
func (b *BlockIndex) ActiveBlocks() int { return len(b.cols) }

// ActiveElems returns the number of matrix elements covered by active blocks
// — the work (and, on offload simulators, the traffic) a sparse kernel pays.
func (b *BlockIndex) ActiveElems() int64 {
	return int64(b.ActiveBlocks()) * int64(b.Mi) * int64(b.M)
}

// Density returns the active fraction of the block grid.
func (b *BlockIndex) Density() float64 {
	return float64(b.ActiveBlocks()) / float64(b.Fi*b.H)
}

// Sparsity returns the silent fraction of the block grid (1 − Density).
func (b *BlockIndex) Sparsity() float64 { return 1 - b.Density() }

// Equal reports whether two indexes describe the same geometry and the same
// active-block set.
func (b *BlockIndex) Equal(o *BlockIndex) bool {
	if o == nil || b.Fi != o.Fi || b.Mi != o.Mi || b.H != o.H || b.M != o.M ||
		len(b.cols) != len(o.cols) {
		return false
	}
	for i, v := range b.rowStart {
		if o.rowStart[i] != v {
			return false
		}
	}
	for i, v := range b.cols {
		if o.cols[i] != v {
			return false
		}
	}
	return true
}

// checkBlockIndex validates a block index against a matrix it will gate;
// nil (every block) gates any shape.
func checkBlockIndex[T Float](b *BlockIndex, m *Dense[T]) {
	if b != nil && (b.Fi*b.Mi != m.Rows || b.H*b.M != m.Cols) {
		panic(fmt.Sprintf("tensor: BlockIndex %d×%d blocks of %d×%d does not tile %d×%d",
			b.Fi, b.H, b.Mi, b.M, m.Rows, m.Cols))
	}
}

// ZeroSilent sets every element of m outside the active blocks of b to +0 —
// the invariant the block-indexed kernels rely on to skip silent blocks
// without changing a bit. Callers run it once per index rebuild, not per
// batch: no block-indexed kernel writes a silent block. A nil index has no
// silent block, so it leaves m untouched.
func ZeroSilent[T Float](m *Dense[T], b *BlockIndex) {
	if b == nil {
		return
	}
	checkBlockIndex(b, m)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		o := 0
		for _, h := range b.Active(r / b.Mi) {
			clear(row[o : int(h)*b.M])
			o = (int(h) + 1) * b.M
		}
		clear(row[o:])
	}
}
