// Package segment implements the segmented index machinery that underlies
// "programming with blocks" in the Super Instruction Architecture.
//
// Each dimension of a large SIAL array is broken into segments; a tuple of
// segment numbers names one block (super number) of the array.  SIAL
// programs loop over segment numbers, never over element indices, so this
// package is the vocabulary shared by the compiler, the SIP runtime, the
// Global Arrays baseline, and the performance model:
//
//   - Kind: the domain-specific index types (aoindex, moindex, ...), used
//     by the SIAL type checker to reject inconsistent index use.
//   - Index: a named, typed element range [Lo, Hi] with a segment size.
//   - Shape: an ordered list of Index descriptors defining an array; it
//     maps segment-coordinate tuples to flat block ordinals and knows the
//     element dimensions of every block (trailing segments may be short).
package segment

import (
	"fmt"
	"strings"
)

// Kind enumerates SIAL index types.  The runtime treats all segment index
// kinds identically; the distinction exists so the language can check that
// (for example) an atomic-orbital index is never used in a
// molecular-orbital dimension (paper §IV-A, footnote 4).
type Kind int

const (
	// Simple indices count iterations; they are not segmented and do
	// not select blocks.
	Simple Kind = iota
	// AO is an atomic-orbital segment index (aoindex).
	AO
	// MO is a molecular-orbital segment index (moindex).
	MO
	// MOA is an alpha-spin molecular-orbital segment index (moaindex).
	MOA
	// MOB is a beta-spin molecular-orbital segment index (mobindex).
	MOB
	// Sub marks a subindex: a finer subdivision of a parent segment
	// index (paper §IV-E).
	Sub
)

var kindNames = map[Kind]string{
	Simple: "index",
	AO:     "aoindex",
	MO:     "moindex",
	MOA:    "moaindex",
	MOB:    "mobindex",
	Sub:    "subindex",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Segmented reports whether indices of this kind select blocks (as
// opposed to simple iteration counters).
func (k Kind) Segmented() bool { return k != Simple }

// Compatible reports whether an index of kind k may be used in an array
// dimension declared with kind d.  Subindices are compatible with their
// parent's kind, which the checker resolves before calling this.
func (k Kind) Compatible(d Kind) bool { return k == d }

// Index describes one named SIAL index: an inclusive element range
// [Lo, Hi] partitioned into segments of Seg elements (the final segment
// may be shorter).  For Simple indices Seg is 1, so segments and elements
// coincide.
type Index struct {
	Name string
	Kind Kind
	Lo   int // first element (1-based, inclusive)
	Hi   int // last element (inclusive)
	Seg  int // segment size in elements

	// Parent is the super index name for Kind == Sub, otherwise empty.
	Parent string
}

// Validate reports an error if the descriptor is malformed.
func (ix Index) Validate() error {
	if ix.Name == "" {
		return fmt.Errorf("segment: index with empty name")
	}
	if ix.Hi < ix.Lo {
		return fmt.Errorf("segment: index %s has empty range [%d,%d]", ix.Name, ix.Lo, ix.Hi)
	}
	if ix.Seg < 1 {
		return fmt.Errorf("segment: index %s has segment size %d < 1", ix.Name, ix.Seg)
	}
	if ix.Kind == Sub && ix.Parent == "" {
		return fmt.Errorf("segment: subindex %s has no parent", ix.Name)
	}
	return nil
}

// N returns the number of elements in the range.
func (ix Index) N() int { return ix.Hi - ix.Lo + 1 }

// NumSegments returns the number of segments in the range.
func (ix Index) NumSegments() int {
	return (ix.N() + ix.Seg - 1) / ix.Seg
}

// SegBounds returns the inclusive element range covered by segment s
// (1-based).  It panics if s is out of range.
func (ix Index) SegBounds(s int) (lo, hi int) {
	if s < 1 || s > ix.NumSegments() {
		panic(fmt.Sprintf("segment: index %s: segment %d out of range [1,%d]", ix.Name, s, ix.NumSegments()))
	}
	lo = ix.Lo + (s-1)*ix.Seg
	hi = lo + ix.Seg - 1
	if hi > ix.Hi {
		hi = ix.Hi
	}
	return lo, hi
}

// SegLen returns the number of elements in segment s (1-based).
func (ix Index) SegLen(s int) int {
	lo, hi := ix.SegBounds(s)
	return hi - lo + 1
}

// SubIndex derives the subindex named name from ix, with nsub subsegments
// per segment of ix (paper §IV-E1: the subindex range covers the same
// elements with segment size seg(ix)/nsub).  The parent segment size must
// be divisible by nsub.
func (ix Index) SubIndex(name string, nsub int) (Index, error) {
	if nsub < 1 {
		return Index{}, fmt.Errorf("segment: subindex %s of %s: nsub %d < 1", name, ix.Name, nsub)
	}
	if ix.Seg%nsub != 0 {
		return Index{}, fmt.Errorf("segment: subindex %s of %s: segment size %d not divisible by %d",
			name, ix.Name, ix.Seg, nsub)
	}
	return Index{
		Name:   name,
		Kind:   Sub,
		Lo:     ix.Lo,
		Hi:     ix.Hi,
		Seg:    ix.Seg / nsub,
		Parent: ix.Name,
	}, nil
}

// SubSegments returns the inclusive range of subindex segment numbers of
// sub that fall inside segment s of the parent index ix.  This implements
// the "do ii in i" iteration construct.
func (ix Index) SubSegments(sub Index, s int) (lo, hi int) {
	elo, ehi := ix.SegBounds(s)
	// Subsegment containing element e is 1 + (e-Lo)/sub.Seg.
	lo = 1 + (elo-sub.Lo)/sub.Seg
	hi = 1 + (ehi-sub.Lo)/sub.Seg
	return lo, hi
}

// Shape is an ordered list of index descriptors declaring the dimensions
// of a SIAL array.  Build one with NewShape: it records, per dimension,
// what Locate and ElemBounds read instead of deriving it per call.
type Shape struct {
	Dims []Index
	segs []segDim
}

// segDim is one dimension as Locate sees it: the segment count, the
// segment size, the length of the last segment and the first element.
type segDim struct{ n, seg, last, lo int }

// NewShape validates the dimensions and builds a Shape.
func NewShape(dims ...Index) (Shape, error) {
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return Shape{}, err
		}
	}
	segs := make([]segDim, len(dims))
	for i, d := range dims {
		n := d.NumSegments()
		segs[i] = segDim{n: n, seg: d.Seg, last: d.N() - (n-1)*d.Seg, lo: d.Lo}
	}
	return Shape{Dims: dims, segs: segs}, nil
}

// MustShape is NewShape that panics on error, for tests and literals.
func MustShape(dims ...Index) Shape {
	s, err := NewShape(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s.Dims) }

// NumBlocks returns the total number of blocks in the array.
func (s Shape) NumBlocks() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.NumSegments()
	}
	return n
}

// BlocksFit reports whether the array has at most limit blocks, without
// overflowing on the way.
func (s Shape) BlocksFit(limit int) bool {
	n := 1
	for _, d := range s.segs {
		if n > limit/d.n {
			return false
		}
		n *= d.n
	}
	return true
}

// NumElements returns the total number of elements in the array.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.N()
	}
	return n
}

// MaxBlockElems returns the number of elements in the largest block: the
// product of the full segment sizes.
func (s Shape) MaxBlockElems() int {
	n := 1
	for _, d := range s.Dims {
		n *= min(d.Seg, d.N())
	}
	return n
}

// Coord is a tuple of 1-based segment numbers naming one block.
type Coord []int

func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Clone returns an independent copy of the coordinate.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two coordinates are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i, v := range c {
		if v != o[i] {
			return false
		}
	}
	return true
}

// CheckCoord reports an error unless c is a valid block coordinate of s.
func (s Shape) CheckCoord(c Coord) error {
	if len(c) != len(s.Dims) {
		return fmt.Errorf("segment: coordinate %v has rank %d, shape has rank %d", c, len(c), len(s.Dims))
	}
	for i, v := range c {
		if n := s.Dims[i].NumSegments(); v < 1 || v > n {
			return fmt.Errorf("segment: coordinate %v: dim %d (%s) segment %d out of range [1,%d]",
				c, i, s.Dims[i].Name, v, n)
		}
	}
	return nil
}

// Ordinal maps a block coordinate to a flat 0-based block ordinal using
// row-major order (last coordinate varies fastest).  The ordinal is what
// the runtime hashes to choose a block's home rank.
func (s Shape) Ordinal(c Coord) int {
	if err := s.CheckCoord(c); err != nil {
		panic(err)
	}
	ord := 0
	for i, v := range c {
		ord = ord*s.Dims[i].NumSegments() + (v - 1)
	}
	return ord
}

// Locate is Ordinal and BlockDims in one pass that allocates nothing — the
// path every SIP block instruction takes.  It range-checks c once, writes
// the element dimensions of the block into dims[:len(c)] and returns its
// ordinal; a bad coordinate gets CheckCoord's error.
func (s *Shape) Locate(c Coord, dims []int) (ord int, err error) {
	if len(c) != len(s.Dims) {
		return 0, s.CheckCoord(c.Clone())
	}
	for i, v := range c {
		d := &s.segs[i]
		if v < 1 || v > d.n {
			// A copy: formatting c itself would move every caller's
			// coordinate to the heap.
			return 0, s.CheckCoord(c.Clone())
		}
		dims[i] = d.seg
		if v == d.n {
			dims[i] = d.last
		}
		ord = ord*d.n + v - 1
	}
	return ord, nil
}

// ElemBounds writes the inclusive element range of each dimension of the
// block at c into lo and hi.  It is BlockBounds for a coordinate Locate
// has checked and the dims it returned: nothing is checked again and
// nothing allocated.
func (s Shape) ElemBounds(c Coord, dims, lo, hi []int) {
	for i, v := range c {
		lo[i] = s.segs[i].lo + (v-1)*s.segs[i].seg
		hi[i] = lo[i] + dims[i] - 1
	}
}

// CoordOf is the inverse of Ordinal.
func (s Shape) CoordOf(ord int) Coord {
	if ord < 0 || ord >= s.NumBlocks() {
		panic(fmt.Sprintf("segment: ordinal %d out of range [0,%d)", ord, s.NumBlocks()))
	}
	c := make(Coord, len(s.Dims))
	for i := len(s.Dims) - 1; i >= 0; i-- {
		n := s.Dims[i].NumSegments()
		c[i] = ord%n + 1
		ord /= n
	}
	return c
}

// BlockDims returns the element dimensions of the block at coordinate c.
// Interior blocks are full segments; blocks on a trailing edge may be
// shorter.
func (s Shape) BlockDims(c Coord) []int {
	if err := s.CheckCoord(c); err != nil {
		panic(err)
	}
	dims := make([]int, len(c))
	for i, v := range c {
		dims[i] = s.Dims[i].SegLen(v)
	}
	return dims
}

// OrdinalDims writes the element dimensions of the block with ordinal
// ord into dims, which has Rank() elements: BlockDims(CoordOf(ord))
// without allocating either.
func (s Shape) OrdinalDims(ord int, dims []int) {
	if ord < 0 || ord >= s.NumBlocks() {
		panic(fmt.Sprintf("segment: ordinal %d out of range [0,%d)", ord, s.NumBlocks()))
	}
	for i := len(s.Dims) - 1; i >= 0; i-- {
		n := s.Dims[i].NumSegments()
		dims[i] = s.Dims[i].SegLen(ord%n + 1)
		ord /= n
	}
}

// BlockElems returns the number of elements in the block at coordinate c.
func (s Shape) BlockElems(c Coord) int {
	n := 1
	for _, d := range s.BlockDims(c) {
		n *= d
	}
	return n
}

// BlockBounds returns, per dimension, the inclusive element ranges
// covered by the block at coordinate c.
func (s Shape) BlockBounds(c Coord) (lo, hi []int) {
	if err := s.CheckCoord(c); err != nil {
		panic(err)
	}
	lo = make([]int, len(c))
	hi = make([]int, len(c))
	for i, v := range c {
		lo[i], hi[i] = s.Dims[i].SegBounds(v)
	}
	return lo, hi
}

// EachCoord calls fn for every block coordinate of the shape in ordinal
// order.  The coordinate passed to fn is reused between calls; clone it
// to retain it.
func (s Shape) EachCoord(fn func(Coord)) {
	if s.Rank() == 0 {
		fn(Coord{})
		return
	}
	c := make(Coord, s.Rank())
	for i := range c {
		c[i] = 1
	}
	for {
		fn(c)
		i := s.Rank() - 1
		for ; i >= 0; i-- {
			c[i]++
			if c[i] <= s.Dims[i].NumSegments() {
				break
			}
			c[i] = 1
		}
		if i < 0 {
			return
		}
	}
}

func (s Shape) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.Name
	}
	return "(" + strings.Join(parts, ",") + ")"
}
