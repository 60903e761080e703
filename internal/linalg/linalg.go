// Package linalg provides the dense linear-algebra kernels that back the
// SIA super instructions.
//
// The paper implements super instructions in Fortran on top of vendor
// DGEMM.  This package is the substitute: a row-major GEMM built the
// BLIS way (gemm.go: operands packed into panels, a register-tiled
// micro-kernel under cache-blocking loops) plus the transpose and vector
// helpers the block operations need.  Only float64 is supported,
// matching the paper's double-precision tensors.
//
// Bit-identity rule.  Gemm has three micro-kernels — AVX-512 assembly
// with a 4×16 tile and AVX2 assembly with a 4×8 tile on amd64 CPUs that
// have them, portable Go (4×8) everywhere — chosen once at start-up from
// what the CPU and OS report; no option selects one.  In cost order,
// fastest first: the AVX-512 kernel ran 196×196×196 at about 1.5× the
// AVX2 one, which ran it at about 8× the portable one.  A C narrower
// than the AVX-512 tile goes to the AVX2 kernel, since the wider tile
// would multiply zero padding.  All compute every element of C by the
// same sequence of IEEE 754 operations as the plain loop
//
//	c = beta*c;  for l = 0..k-1 { c += (alpha*a[i,l]) * b[l,j] }
//
// with each product rounded before it is added, so a result does not
// depend on the host, the blocking, or the kernel, and runs on different
// machines (or a restart on a different one) compare equal under ==.
// That is why the assembly uses a separate multiply and add and not a
// fused multiply-add: FMA rounds once per term and would give different
// answers than hosts without it.  Both assembly kernels issue two vector
// instructions per multiply-add; 8-lane vectors halve the instructions
// per term, and an 8×16 tile, with twice the arithmetic per B load,
// measured no faster than 4×16, so the arithmetic and not the loads
// bounds them.
package linalg

import (
	"fmt"
	"math"
)

// Transpose writes the transpose of the m×n row-major matrix src into
// dst, which must have room for n*m elements.  src and dst must not
// alias.
func Transpose(m, n int, src, dst []float64) {
	if len(src) < m*n || len(dst) < m*n {
		panic(fmt.Sprintf("linalg: transpose short slice m=%d n=%d", m, n))
	}
	for i := 0; i < m; i++ {
		row := src[i*n : i*n+n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

// Axpy computes y += alpha*x elementwise.  x and y must have equal
// length.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(v float64, x []float64) {
	for i := range x {
		x[i] = v
	}
}

// Dot returns the inner product of x and y, which must have equal
// length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in x, or 0 for an empty
// slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
