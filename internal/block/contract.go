package block

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/linalg"
)

// Spec describes a tensor contraction C = A * B between blocks in terms
// of index labels (paper §III, footnote 3): labels shared by A and B are
// summed over; every label of C must appear in exactly one of A or B.
// Labels are arbitrary integers; the compiler uses interned index-variable
// names.
//
// Matrix multiplication is Spec{A:[i,k], B:[k,j], C:[i,j]}; the paper's
// example R(M,N,I,J) = V(M,N,L,S)*T(L,S,I,J) is
// Spec{A:[m,n,l,s], B:[l,s,i,j], C:[m,n,i,j]}.
type Spec struct {
	A, B, C []int
}

// maxRank bounds the rank of a contraction's operands and result, so a
// plan is a value on fixed-size arrays and analysis allocates nothing.
// Permutation keeps its index scratch on arrays of this size too, and
// allocates only above it.
const maxRank = 8

// plan is the analyzed form of a Spec: the permutations that bring the
// operands into GEMM order and the raw GEMM output [freeA..., freeB...]
// into the requested C order.
type plan struct {
	nFreeA, nFreeB, nCon int

	aperm   [maxRank]int // positions in A: free labels, then contracted ones
	bperm   [maxRank]int // positions in B: contracted labels in A's order, then free ones
	outPerm [maxRank]int // outPerm[d] = position in [freeA..., freeB...] of C dim d
}

func hasDuplicate(labels []int) bool {
	for i, l := range labels {
		if slices.Contains(labels[:i], l) {
			return true
		}
	}
	return false
}

// analyze validates the spec and produces an execution plan.
func (s Spec) analyze() (plan, error) {
	var p plan
	if len(s.A) > maxRank || len(s.B) > maxRank || len(s.C) > maxRank {
		return p, fmt.Errorf("block: contraction %v * %v -> %v has a rank above %d", s.A, s.B, s.C, maxRank)
	}
	if hasDuplicate(s.A) {
		return p, fmt.Errorf("block: duplicate label in A %v", s.A)
	}
	if hasDuplicate(s.B) {
		return p, fmt.Errorf("block: duplicate label in B %v", s.B)
	}
	if hasDuplicate(s.C) {
		return p, fmt.Errorf("block: duplicate label in C %v", s.C)
	}
	var conA, conB [maxRank]int
	for i, l := range s.A {
		inC := slices.Contains(s.C, l)
		if j := slices.Index(s.B, l); j >= 0 {
			if inC {
				return p, fmt.Errorf("block: label %d appears in A, B, and C", l)
			}
			conA[p.nCon], conB[p.nCon] = i, j
			p.nCon++
		} else {
			if !inC {
				return p, fmt.Errorf("block: label %d of A appears nowhere else", l)
			}
			p.aperm[p.nFreeA] = i
			p.nFreeA++
		}
	}
	copy(p.aperm[p.nFreeA:], conA[:p.nCon])
	copy(p.bperm[:], conB[:p.nCon])
	for j, l := range s.B {
		if !slices.Contains(s.A, l) {
			if !slices.Contains(s.C, l) {
				return p, fmt.Errorf("block: label %d of B appears nowhere else", l)
			}
			p.bperm[p.nCon+p.nFreeB] = j
			p.nFreeB++
		}
	}
	if len(s.C) != p.nFreeA+p.nFreeB {
		return p, fmt.Errorf("block: C labels %v do not match free labels of A %v and B %v", s.C, s.A, s.B)
	}
	// No duplicates and equal counts: every C label is one free label.
	for d, l := range s.C {
		if i := slices.Index(s.A, l); i >= 0 {
			p.outPerm[d] = slices.Index(p.aperm[:p.nFreeA], i)
		} else {
			p.outPerm[d] = p.nFreeA + slices.Index(p.bperm[p.nCon:p.nCon+p.nFreeB], slices.Index(s.B, l))
		}
	}
	return p, nil
}

// sizes returns the GEMM dimensions of the plan for operands with the
// given dims: C is m×n, summed over k.
func (p *plan) sizes(adims, bdims []int) (m, n, k int) {
	return prodDims(adims, p.aperm[:p.nFreeA]),
		prodDims(bdims, p.bperm[p.nCon:p.nCon+p.nFreeB]),
		prodDims(adims, p.aperm[p.nFreeA:p.nFreeA+p.nCon])
}

// flops counts one multiply-add as two operations.
func (p *plan) flops(adims, bdims []int) int64 {
	m, n, k := p.sizes(adims, bdims)
	return 2 * int64(m) * int64(n) * int64(k)
}

// rawDims appends the dims of the raw GEMM output, [freeA..., freeB...].
func (p *plan) rawDims(dst []int, adims, bdims []int) []int {
	for _, i := range p.aperm[:p.nFreeA] {
		dst = append(dst, adims[i])
	}
	for _, j := range p.bperm[p.nCon : p.nCon+p.nFreeB] {
		dst = append(dst, bdims[j])
	}
	return dst
}

// resultDims appends the dims of the contraction result, in C's order.
func (p *plan) resultDims(dst []int, adims, bdims []int) []int {
	var buf [maxRank]int
	raw := p.rawDims(buf[:0], adims, bdims)
	for d := range raw {
		dst = append(dst, raw[p.outPerm[d]])
	}
	return dst
}

// planFor analyzes spec against the operands it is about to contract.
func (s Spec) planFor(a, b *Block) (plan, error) {
	if len(s.A) != a.Rank() {
		return plan{}, fmt.Errorf("block: spec A rank %d != block rank %d", len(s.A), a.Rank())
	}
	if len(s.B) != b.Rank() {
		return plan{}, fmt.Errorf("block: spec B rank %d != block rank %d", len(s.B), b.Rank())
	}
	p, err := s.analyze()
	if err != nil {
		return p, err
	}
	for x := 0; x < p.nCon; x++ {
		i, j := p.aperm[p.nFreeA+x], p.bperm[x]
		if a.dims[i] != b.dims[j] {
			return p, fmt.Errorf("block: contracted extent mismatch: A dim %d (%d) vs B dim %d (%d)",
				i, a.dims[i], j, b.dims[j])
		}
	}
	return p, nil
}

// Contract computes the contraction of a and b described by spec and
// returns the result in a new block.  The ranks of a, b and the label
// lists must match.
func Contract(spec Spec, a, b *Block) (*Block, error) {
	p, err := spec.planFor(a, b)
	if err != nil {
		return nil, err
	}
	var buf [maxRank]int
	dst := New(p.resultDims(buf[:0], a.dims, b.dims)...)
	p.run(dst, a, b)
	return dst, nil
}

// ContractInto is Contract writing into dst, whose previous contents are
// ignored, and returns the flops performed (as ContractFlops counts
// them).  dst must have the shape of the result and share no storage
// with a or b.
func ContractInto(dst *Block, spec Spec, a, b *Block) (flops int64, err error) {
	p, err := spec.planFor(a, b)
	if err != nil {
		return 0, err
	}
	var buf [maxRank]int
	if want := p.resultDims(buf[:0], a.dims, b.dims); !slices.Equal(dst.dims, want) {
		// Format a copy, or buf would escape to the heap on every call.
		return 0, fmt.Errorf("block: contraction result has dims %v, destination %v", slices.Clone(want), dst.dims)
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		return 0, fmt.Errorf("block: contraction destination aliases an operand")
	}
	p.run(dst, a, b)
	return p.flops(a.dims, b.dims), nil
}

// run executes a validated plan into a correctly shaped dst.  It follows
// the paper (§III footnote 3): permute the operands so the contraction
// becomes a single matrix multiply, call GEMM, and permute the product
// into the requested output order.  Operands already in GEMM order
// (plain matrix multiply, or the common case of leading free / trailing
// contracted labels) are used in place, and when the output order is the
// GEMM's the product lands in dst directly.  GEMM runs on the calling
// goroutine: a SIP has a worker per core already.
func (p *plan) run(dst, a, b *Block) {
	ap, bp := a, b
	if perm := p.aperm[:a.Rank()]; !IdentityPerm(perm) {
		ap = a.Permute(perm)
	}
	if perm := p.bperm[:b.Rank()]; !IdentityPerm(perm) {
		bp = b.Permute(perm)
	}
	m, n, k := p.sizes(a.dims, b.dims)
	outPerm := p.outPerm[:dst.Rank()]
	if IdentityPerm(outPerm) {
		linalg.Gemm(m, n, k, 1, ap.data, bp.data, 0, dst.data)
		return
	}
	var buf [maxRank]int
	raw := New(p.rawDims(buf[:0], a.dims, b.dims)...)
	linalg.Gemm(m, n, k, 1, ap.data, bp.data, 0, raw.data)
	raw.permuteInto(dst, outPerm)
}

// overlaps reports whether two slices share any element.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0, y0 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	size := unsafe.Sizeof(x[0])
	return x0 < y0+uintptr(len(y))*size && y0 < x0+uintptr(len(x))*size
}

// IdentityPerm reports whether perm maps every position to itself, i.e.
// applying it would only copy.  Callers use it to skip permutations.
func IdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// MustContract is Contract that panics on error; used where the spec was
// already validated by the compiler.
func MustContract(spec Spec, a, b *Block) *Block {
	c, err := Contract(spec, a, b)
	if err != nil {
		panic(err)
	}
	return c
}

// ContractFlops returns the number of floating-point operations (counting
// one multiply-add as two flops) performed by a contraction with the
// given spec and operand dimensions.  The runtime profiler and the
// performance model use this to cost super instructions.
func ContractFlops(spec Spec, adims, bdims []int) (int64, error) {
	p, err := spec.analyze()
	if err != nil {
		return 0, err
	}
	if len(adims) != len(spec.A) || len(bdims) != len(spec.B) {
		return 0, fmt.Errorf("block: spec ranks %d, %d != dims ranks %d, %d", len(spec.A), len(spec.B), len(adims), len(bdims))
	}
	return p.flops(adims, bdims), nil
}

// ContractNaive is a reference implementation of Contract using direct
// index loops; it exists to validate the GEMM-based path in tests.
func ContractNaive(spec Spec, a, b *Block) (*Block, error) {
	p, err := spec.planFor(a, b)
	if err != nil {
		return nil, err
	}
	contractedA, contractedB := p.aperm[p.nFreeA:p.nFreeA+p.nCon], p.bperm[:p.nCon]
	cdims := make([]int, len(spec.C))
	for d, l := range spec.C {
		if i := slices.Index(spec.A, l); i >= 0 {
			cdims[d] = a.dims[i]
		} else {
			cdims[d] = b.dims[slices.Index(spec.B, l)]
		}
	}
	out := New(cdims...)

	// Enumerate all assignments of values to free labels and, inside,
	// to contracted labels.
	aIdx := make([]int, a.Rank())
	bIdx := make([]int, b.Rank())
	cIdx := make([]int, len(cdims))
	kDims := make([]int, len(contractedA))
	for x, i := range contractedA {
		kDims[x] = a.dims[i]
	}
	var walkC func(d int)
	walkC = func(d int) {
		if d == len(cdims) {
			// Set free positions of aIdx/bIdx from cIdx.
			for dd, l := range spec.C {
				if i := slices.Index(spec.A, l); i >= 0 {
					aIdx[i] = cIdx[dd]
				} else {
					bIdx[slices.Index(spec.B, l)] = cIdx[dd]
				}
			}
			var sum float64
			kIdx := make([]int, len(kDims))
			for {
				for x, i := range contractedA {
					aIdx[i] = kIdx[x]
					bIdx[contractedB[x]] = kIdx[x]
				}
				sum += a.At(aIdx...) * b.At(bIdx...)
				x := len(kIdx) - 1
				for ; x >= 0; x-- {
					kIdx[x]++
					if kIdx[x] < kDims[x] {
						break
					}
					kIdx[x] = 0
				}
				if x < 0 {
					break
				}
				if len(kIdx) == 0 {
					break
				}
			}
			out.Set(sum, cIdx...)
			return
		}
		for v := 0; v < cdims[d]; v++ {
			cIdx[d] = v
			walkC(d + 1)
		}
	}
	walkC(0)
	return out, nil
}

func prodDims(dims []int, positions []int) int {
	n := 1
	for _, i := range positions {
		n *= dims[i]
	}
	return n
}
