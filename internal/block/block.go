// Package block implements super numbers (blocks) and the computational
// super instructions that operate on them.
//
// A Block is a dense, row-major, N-dimensional array of float64 holding
// one block of a segmented SIAL array (paper §III).  Super instructions
// take one or two blocks and produce a block: contraction, permutation,
// scaling, accumulation, slicing, and insertion.  Exactly as in the SIP,
// no operation in this package communicates; the runtime composes these
// kernels with data movement.
//
// Blocks are recycled through one process-wide allocator, Get and Put,
// which Clone and DecodeWire draw from too.  Only a block its holder owns
// alone may be Put: one it got from Get, New, Clone or DecodeWire, or
// received in a message as a copy made for it, and has never stored or
// lent, nor sent unless the send encoded it and handed over no pointer
// (mpi.Comm.Multicast tells its caller which happened).  The holder must
// not touch it afterwards.  A FromData block, whose storage is its
// caller's, never is.
package block

import (
	"fmt"
	"slices"

	"repro/internal/linalg"
)

// Block is a dense row-major N-dimensional array of float64.  A rank-0
// Block holds a single scalar element.
type Block struct {
	dims []int
	data []float64
	// shape backs dims up to rank len(shape), so such a block is two
	// allocations (this header and data), not three.
	shape [4]int
}

// withDims returns a block header whose dims are a copy of dims, held in
// the header itself when they fit.
func withDims(dims []int) *Block {
	b := &Block{}
	b.dims = append(b.shape[:0], dims...)
	return b
}

// scratch returns n ints of buf, or fresh ones when n exceeds it.
func scratch(buf *[maxRank]int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// numElems returns the product of dims, panicking on a non-positive one.
func numElems(dims []int) int {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			// Format a copy: passing dims itself to Sprintf would make
			// every caller's dims escape to the heap.
			panic(fmt.Sprintf("block: non-positive dimension in %v", append([]int(nil), dims...)))
		}
		n *= d
	}
	return n
}

// New allocates a zeroed block with the given dimensions.  It panics on a
// non-positive dimension.
func New(dims ...int) *Block {
	b := withDims(dims)
	b.data = make([]float64, numElems(dims))
	return b
}

// FromData wraps an existing slice as a block.  The slice length must
// equal the product of dims; the block takes ownership of the slice.
func FromData(data []float64, dims ...int) *Block {
	if n := numElems(dims); len(data) != n {
		panic(fmt.Sprintf("block: data length %d does not match dims %v (%d)", len(data), dims, n))
	}
	b := withDims(dims)
	b.data = data
	return b
}

// Rank returns the number of dimensions.
func (b *Block) Rank() int { return len(b.dims) }

// Dims returns the dimensions.  The caller must not modify the result.
func (b *Block) Dims() []int { return b.dims }

// Size returns the number of elements.
func (b *Block) Size() int { return len(b.data) }

// Data returns the backing slice in row-major order.  Mutating it mutates
// the block.
func (b *Block) Data() []float64 { return b.data }

// offset converts a multi-index to a flat offset, panicking when out of
// range.
func (b *Block) offset(idx []int) int {
	if len(idx) != len(b.dims) {
		panic(fmt.Sprintf("block: index rank %d != block rank %d", len(idx), len(b.dims)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= b.dims[i] {
			panic(fmt.Sprintf("block: index %v out of range for dims %v", idx, b.dims))
		}
		off = off*b.dims[i] + v
	}
	return off
}

// At returns the element at the 0-based multi-index.
func (b *Block) At(idx ...int) float64 { return b.data[b.offset(idx)] }

// Set stores v at the 0-based multi-index.
func (b *Block) Set(v float64, idx ...int) { b.data[b.offset(idx)] = v }

// Clone returns a deep copy, drawn from the allocator.
func (b *Block) Clone() *Block {
	c := Get(b.dims...)
	copy(c.data, b.data)
	return c
}

// SameShape reports whether b and o have identical dimensions.
func (b *Block) SameShape(o *Block) bool { return slices.Equal(b.dims, o.dims) }

// Fill sets every element to v (SIAL: scalar assignment to a block).
func (b *Block) Fill(v float64) { linalg.Fill(v, b.data) }

// Scale multiplies every element by alpha (SIAL: block * scalar).
func (b *Block) Scale(alpha float64) { linalg.Scale(alpha, b.data) }

// AddScaled accumulates alpha*o into b (SIAL: += and -=).  The blocks
// must have the same shape.
func (b *Block) AddScaled(alpha float64, o *Block) {
	if !b.SameShape(o) {
		panic(fmt.Sprintf("block: add shape mismatch %v vs %v", b.dims, o.dims))
	}
	linalg.Axpy(alpha, o.data, b.data)
}

// CopyFrom overwrites b with the contents of o, which must have the same
// shape.
func (b *Block) CopyFrom(o *Block) {
	if !b.SameShape(o) {
		panic(fmt.Sprintf("block: copy shape mismatch %v vs %v", b.dims, o.dims))
	}
	copy(b.data, o.data)
}

// Dot returns the elementwise inner product of two same-shaped blocks.
func Dot(a, b *Block) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("block: dot shape mismatch %v vs %v", a.dims, b.dims))
	}
	return linalg.Dot(a.data, b.data)
}

// Norm2 returns the Euclidean norm of the block.
func (b *Block) Norm2() float64 { return linalg.Nrm2(b.data) }

// MaxAbs returns the largest absolute element value.
func (b *Block) MaxAbs() float64 { return linalg.MaxAbs(b.data) }

// Permute returns a new block t with t[i0,...,ik] = b[i_perm[0],...]:
// dimension d of the result is dimension perm[d] of the source.  perm
// must be a permutation of 0..rank-1.
//
// This implements SIAL permutation assignment such as
// V1(K,J,I) = V2(I,J,K), where the compiler derives perm from the index
// variable names.
func (b *Block) Permute(perm []int) *Block {
	var buf [maxRank]int
	out := New(b.PermutedDims(buf[:0], perm)...)
	b.permuteInto(out, perm)
	return out
}

// PermutedDims appends to dst the dims of b permuted by perm, the dims
// Permute's result has, panicking when perm is not a permutation of
// 0..rank-1.
func (b *Block) PermutedDims(dst, perm []int) []int {
	if len(perm) != len(b.dims) {
		panic(fmt.Sprintf("block: permutation %v rank != block rank %d", append([]int(nil), perm...), len(b.dims)))
	}
	var seenBuf [maxRank]bool
	seen := seenBuf[:]
	if len(perm) > len(seenBuf) {
		seen = make([]bool, len(perm))
	}
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			panic(fmt.Sprintf("block: invalid permutation %v", append([]int(nil), perm...)))
		}
		seen[p] = true
		dst = append(dst, b.dims[p])
	}
	return dst
}

// PermuteInto is Permute into dst, which must have the permuted dims and
// must not share b's storage: the form for a caller that recycles its
// result blocks.  It allocates nothing up to rank 8.
func (b *Block) PermuteInto(dst *Block, perm []int) {
	var buf [maxRank]int
	want := b.PermutedDims(buf[:0], perm)
	if !slices.Equal(dst.dims, want) {
		panic(fmt.Sprintf("block: permute into dims %v, want %v", dst.dims, append([]int(nil), want...)))
	}
	if overlaps(dst.data, b.data) {
		panic("block: permute into a block sharing the source's storage")
	}
	b.permuteInto(dst, perm)
}

// permuteInto is Permute into an existing block whose dims are already
// b's dims permuted by perm (a valid permutation) and whose storage is
// not b's.
func (b *Block) permuteInto(out *Block, perm []int) {
	// Walk the output in row-major order, computing the matching source
	// offset incrementally via per-dimension strides.
	dims := out.dims
	var strideBuf, idxBuf [maxRank]int
	srcStride := stridesInto(scratch(&strideBuf, len(b.dims)), b.dims)
	outIdx := scratch(&idxBuf, len(dims))
	srcOff := 0
	for o := range out.data {
		out.data[o] = b.data[srcOff]
		// Increment outIdx (row-major) and update srcOff.
		for d := len(dims) - 1; d >= 0; d-- {
			outIdx[d]++
			srcOff += srcStride[perm[d]]
			if outIdx[d] < dims[d] {
				break
			}
			outIdx[d] = 0
			srcOff -= dims[d] * srcStride[perm[d]]
		}
	}
}

// strides returns row-major strides for dims.
func strides(dims []int) []int { return stridesInto(make([]int, len(dims)), dims) }

// stridesInto writes the row-major strides of dims into s (len(dims)
// long) and returns it.
func stridesInto(s, dims []int) []int {
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = st
		st *= dims[i]
	}
	return s
}

// Extract copies the region of b starting at offset lo (0-based, one
// entry per dimension) with the given extent into a new block (SIAL
// slicing: Xii(ii,j) = Xi(ii,j)).
func (b *Block) Extract(lo, extent []int) *Block {
	checkRegion(b.dims, lo, extent)
	out := New(extent...)
	copyRegion(out.data, 0, strides(extent), b.data, regionOffset(b.dims, lo), strides(b.dims), extent)
	return out
}

// Insert copies the whole of src into b starting at offset lo (SIAL
// insertion: Xi(ii,j) = Xii(ii,j)).
func (b *Block) Insert(lo []int, src *Block) {
	checkRegion(b.dims, lo, src.dims)
	copyRegion(b.data, regionOffset(b.dims, lo), strides(b.dims), src.data, 0, strides(src.dims), src.dims)
}

func regionOffset(dims, lo []int) int {
	off := 0
	for i, v := range lo {
		off = off*dims[i] + v
	}
	return off
}

func checkRegion(dims, lo, extent []int) {
	if len(lo) != len(dims) || len(extent) != len(dims) {
		panic(fmt.Sprintf("block: region rank mismatch dims=%v lo=%v extent=%v", dims, lo, extent))
	}
	for i := range dims {
		if lo[i] < 0 || extent[i] < 0 || lo[i]+extent[i] > dims[i] {
			panic(fmt.Sprintf("block: region out of range dims=%v lo=%v extent=%v", dims, lo, extent))
		}
	}
}

// copyRegion copies a region of the given extent between two row-major
// arrays.  dstBase/srcBase are the flat offsets of the region origin and
// dstStride/srcStride the full-array strides of each side.
func copyRegion(dst []float64, dstBase int, dstStride []int, src []float64, srcBase int, srcStride []int, extent []int) {
	rank := len(extent)
	if rank == 0 {
		dst[dstBase] = src[srcBase]
		return
	}
	// Copy contiguous innermost rows with copy(); recurse over the
	// outer dimensions with an explicit odometer.
	idx := make([]int, rank-1)
	rowLen := extent[rank-1]
	for {
		do, so := dstBase, srcBase
		for d, v := range idx {
			do += v * dstStride[d]
			so += v * srcStride[d]
		}
		// Innermost strides are 1 for row-major arrays, so the row is
		// contiguous on both sides.
		copy(dst[do:do+rowLen], src[so:so+rowLen])
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < extent[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}
