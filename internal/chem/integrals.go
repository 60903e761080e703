package chem

import (
	"math"

	"repro/internal/block"
	"repro/internal/sip"
)

// ERI is the synthetic two-electron repulsion integral (pq|rs) over
// global 1-based orbital indices.  It is deterministic, smooth, decays
// with index separation, and respects the full 8-fold permutational
// symmetry of real ERIs:
//
//	(pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = ...
func ERI(p, q, r, s int) float64 {
	return pairFactor(p, q) * pairFactor(r, s) / coupling(p+q-(r+s))
}

// coupling is the denominator of ERI: the coupling decays with the
// distance between the pair "centers" (p+q)/2 and (r+s)/2, of which diff
// is twice the signed difference; using the centers keeps the
// (pq)<->(rs) and within-pair swaps exact.
func coupling(diff int) float64 {
	d := math.Abs(float64(diff)) / 2
	return 1 + 0.2*d
}

// pairFactor is symmetric in its arguments and decays with |p-q|.
func pairFactor(p, q int) float64 {
	return 1.0/(1.0+math.Abs(float64(p-q))) + 0.1/(1.0+float64(p+q))
}

// Hcore is the synthetic one-electron core Hamiltonian element.
func Hcore(p, q int) float64 {
	if p == q {
		return -2.0 - 1.0/float64(p)
	}
	return -0.5 / (1.0 + math.Abs(float64(p-q)))
}

// fillBlock fills a block from the allocator whose element bounds are
// [lo, hi] per dimension using f over global indices.
func fillBlock(lo, hi []int, f func(idx []int) float64) *block.Block {
	var dimBuf [8]int
	dims := dimBuf[:0]
	for d := range lo {
		dims = append(dims, hi[d]-lo[d]+1)
	}
	b := block.Get(dims...)
	data := b.Data()
	idx := make([]int, len(dims))
	for off := range data {
		rem := off
		for d := len(dims) - 1; d >= 0; d-- {
			idx[d] = rem%dims[d] + lo[d]
			rem /= dims[d]
		}
		data[off] = f(idx)
	}
	return b
}

// eriBlock returns the block of ERI(i0+off[0], i1+off[1], i2+off[2],
// i3+off[3]) over the element bounds [lo, hi], every element == what ERI
// returns for it.  A row of the block (fixed p,q) runs over all (r,s),
// so the (r,s) pair factors and pair sums are tabulated once, the
// coupling once per distinct difference of pair sums, and an element
// costs one multiply and one divide.  The tables live on the stack when
// the block is at most 16×16 in its last two dimensions, and the block
// comes from the allocator, so that a call then allocates nothing once
// the runtime has given an earlier block of the shape back.
func eriBlock(lo, hi []int, off [4]int) *block.Block {
	var dims [4]int
	for d := range dims {
		dims[d] = hi[d] - lo[d] + 1
	}
	b := block.Get(dims[:]...)
	data := b.Data()

	var hrsBuf [256]float64
	var srsBuf [256]int
	var cplBuf [64]float64
	hrs, srs, cpl := hrsBuf[:], srsBuf[:], cplBuf[:]
	nrs := dims[2] * dims[3]
	if nrs > len(hrs) {
		hrs, srs = make([]float64, nrs), make([]int, nrs)
	}
	hrs, srs = hrs[:nrs], srs[:nrs]
	for r, t := lo[2]+off[2], 0; r <= hi[2]+off[2]; r++ {
		for s := lo[3] + off[3]; s <= hi[3]+off[3]; s++ {
			hrs[t], srs[t] = pairFactor(r, s), r+s
			t++
		}
	}
	// cpl[spq-srs-minDiff] = coupling(spq-srs) for every difference the
	// block can produce.
	minDiff := lo[0] + off[0] + lo[1] + off[1] - srs[nrs-1]
	maxDiff := hi[0] + off[0] + hi[1] + off[1] - srs[0]
	if n := maxDiff - minDiff + 1; n > len(cpl) {
		cpl = make([]float64, n)
	}
	for diff := minDiff; diff <= maxDiff; diff++ {
		cpl[diff-minDiff] = coupling(diff)
	}

	row := data
	for p := lo[0] + off[0]; p <= hi[0]+off[0]; p++ {
		for q := lo[1] + off[1]; q <= hi[1]+off[1]; q++ {
			hpq, base := pairFactor(p, q), p+q-minDiff
			for t, h := range hrs {
				row[t] = hpq * h / cpl[base-srs[t]]
			}
			row = row[nrs:]
		}
	}
	return b
}

// AOIntegrals returns a sip.IntegralFunc computing AO-basis ERI blocks
// for any 4-index array (used by the CCSD-term and Fock-build
// programs, where compute_integrals arrays are indexed by AO indices).
// Its blocks come from block.Get (see sip.IntegralFunc).
func AOIntegrals() sip.IntegralFunc {
	return func(arr string, lo, hi []int) *block.Block {
		if len(lo) != 4 {
			return fillBlock(lo, hi, func(idx []int) float64 {
				// 2-index arrays get the core Hamiltonian.
				return Hcore(idx[0], idx[1])
			})
		}
		return eriBlock(lo, hi, [4]int{})
	}
}

// MOIntegrals returns a sip.IntegralFunc for the MP2 program's MO-basis
// integrals: array "v" holds (ia|jb) and array "w" holds (ib|ja), with
// occupied indices 1..no and virtual indices offset by no.  Its blocks
// come from block.Get (see sip.IntegralFunc).
func MOIntegrals(no int) sip.IntegralFunc {
	return func(arr string, lo, hi []int) *block.Block {
		switch arr {
		case "v", "w": // v(I,A,J,B) = (ia|jb), w(I,B,J,A) = (ib|ja)
			return eriBlock(lo, hi, [4]int{0, no, 0, no})
		default:
			return eriBlock(lo, hi, [4]int{})
		}
	}
}
