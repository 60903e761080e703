package linalg

import (
	"fmt"
	"sync"
)

// Cache-block sizes.  A is packed into panels mr rows tall and B into
// panels nr columns wide, mr×nr being the tile of the kernel that runs
// (see kernel); one micro-kernel call updates a tile of C over a k-block
// of at most kc.  kc keeps one A and one B panel in L1: kc*(mr+nr)*8 is
// 24 KiB at 4×8 and 40 KiB at 4×16.  mc and nc bound the packed blocks at
// 256 KiB and 1 MiB for a 4-row tile and at most 16 columns.
const (
	kc = 256
	mc = 128
	nc = 512
)

// kernel is a micro-kernel and the tile it computes.  fn computes
// c[i*ldc+j] += Σ_l a[l*mr+i]*b[l*nr+j] for the whole mr×nr tile, l
// ascending from 0 to kc-1, each product rounded before it is added.  a
// and b are packed panels of kc*mr and kc*nr elements.
type kernel struct {
	name   string
	mr, nr int
	fn     func(kc int, a, b, c []float64, ldc int)
}

// kernels lists the micro-kernels this host can run, in order of
// preference: on amd64 an init function puts the assembly kernels the
// CPU and OS support in front of the portable one.  Gemm runs the
// first, unless C is narrower than its tile (see pick).  Nothing else
// assigns it outside tests.
var kernels = []kernel{{name: "go", mr: 4, nr: 8, fn: kernelGo4x8}}

// pick returns the kernel Gemm runs for a C of n columns: the preferred
// one, or, while n is narrower than the tile of the one picked so far,
// the next kernel in the list with a narrower tile.  A tile wider than C
// multiplies zero padding, so a GEMV (n = 1) runs fastest on the
// narrowest assembly kernel.
func pick(n int) *kernel {
	k := &kernels[0]
	for i := 1; i < len(kernels) && n < k.nr; i++ {
		if kernels[i].nr < k.nr {
			k = &kernels[i]
		}
	}
	return k
}

// Kernel names the micro-kernel Gemm runs on this host and its tile,
// such as "avx512 4x16".
func Kernel() string {
	k := kernels[0]
	return fmt.Sprintf("%s %dx%d", k.name, k.mr, k.nr)
}

// eachKernel calls f once for every micro-kernel this host can run,
// with that kernel alone installed for the duration of the call.  It
// exists so tests — in this package and, through go:linkname, in
// internal/block — can hold every kernel to the same answers; no
// non-test code calls it.
var eachKernel = func(f func(name string)) {
	host := kernels
	defer func() { kernels = host }()
	for i := range host {
		kernels = host[i : i+1]
		f(host[i].name)
	}
}

// packBuf holds one packed block of A and one of B, and the padded copy
// of a C tile cut by the matrix edge (here and not on the stack because
// an argument of the indirect micro-kernel call escapes).
type packBuf struct {
	a, b, edge []float64
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// Gemm computes C = alpha*A*B + beta*C for row-major matrices:
// A is m×k, B is k×n, C is m×n.  It panics if the slice lengths are too
// small for the given dimensions, since that is always a programming
// error in the caller.  As in BLAS, beta == 0 overwrites C without
// reading it and alpha == 0 does not read A or B.
//
// Every element is computed as the package comment's bit-identity rule
// says: c = beta*c, then c += (alpha*a[i,l])*b[l,j] for l = 0..k-1.
func Gemm(m, n, k int, alpha float64, a []float64, b []float64, beta float64, c []float64) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("linalg: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("linalg: short slice for m=%d n=%d k=%d: len(a)=%d len(b)=%d len(c)=%d",
			m, n, k, len(a), len(b), len(c)))
	}
	if m == 0 || n == 0 {
		return
	}
	// Scale C by beta first so the kernels can always accumulate.
	switch beta {
	case 1:
	case 0:
		clear(c[:m*n])
	default:
		Scale(beta, c[:m*n])
	}
	if k == 0 || alpha == 0 {
		return
	}
	kern := pick(n)
	buf := packPool.Get().(*packBuf)
	buf.a = grow(buf.a, roundUp(min(m, mc), kern.mr)*min(k, kc))
	buf.b = grow(buf.b, roundUp(min(n, nc), kern.nr)*min(k, kc))
	buf.edge = grow(buf.edge, kern.mr*kern.nr)
	// The k-blocks of one C element run in ascending order (pc is the
	// only loop over k), so blocking never reorders its sum.
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kb := min(kc, k-pc)
			packB(kern.nr, kb, nb, b[pc*n+jc:], n, buf.b)
			for ic := 0; ic < m; ic += mc {
				mb := min(mc, m-ic)
				packA(kern.mr, mb, kb, alpha, a[ic*k+pc:], k, buf.a)
				macroKernel(kern, mb, nb, kb, buf, c[ic*n+jc:], n)
			}
		}
	}
	packPool.Put(buf)
}

// macroKernel runs kern over every tile of an mb×nb block of C.  Tiles
// cut by the edge of C go through a zero-padded copy, which changes no
// element's arithmetic.
func macroKernel(kern *kernel, mb, nb, kb int, buf *packBuf, c []float64, ldc int) {
	mr, nr, fn := kern.mr, kern.nr, kern.fn
	edge := buf.edge[:mr*nr]
	for j := 0; j < nb; j += nr {
		bpan := buf.b[j*kb : (j+nr)*kb]
		cols := min(nr, nb-j)
		for i := 0; i < mb; i += mr {
			apan := buf.a[i*kb : (i+mr)*kb]
			rows := min(mr, mb-i)
			if rows == mr && cols == nr {
				fn(kb, apan, bpan, c[i*ldc+j:], ldc)
				continue
			}
			clear(edge)
			for r := 0; r < rows; r++ {
				copy(edge[r*nr:r*nr+cols], c[(i+r)*ldc+j:])
			}
			fn(kb, apan, bpan, edge, nr)
			for r := 0; r < rows; r++ {
				copy(c[(i+r)*ldc+j:(i+r)*ldc+j+cols], edge[r*nr:])
			}
		}
	}
}

// packA writes alpha times the mb×kb block of a (row stride lda) into
// dst as ceil(mb/mr) panels, each holding its mr rows interleaved
// (element l*mr+r is row r, column l) and zero-padded below row mb.  It
// copies four rows at a time, which writes each panel in one pass when
// mr is 4 and ran twice as fast as one row at a time; a GEMV spends most
// of its time here.
func packA(mr, mb, kb int, alpha float64, a []float64, lda int, dst []float64) {
	for i := 0; i < mb; i += mr {
		pan := dst[i*kb : (i+mr)*kb]
		rows := min(mr, mb-i)
		if rows < mr {
			clear(pan)
		}
		r := 0
		for ; r+4 <= rows; r += 4 {
			r0 := a[(i+r)*lda : (i+r)*lda+kb]
			r1 := a[(i+r+1)*lda : (i+r+1)*lda+kb]
			r2 := a[(i+r+2)*lda : (i+r+2)*lda+kb]
			r3 := a[(i+r+3)*lda : (i+r+3)*lda+kb]
			for l := range r0 {
				q := pan[l*mr+r : l*mr+r+4]
				q[0], q[1], q[2], q[3] = alpha*r0[l], alpha*r1[l], alpha*r2[l], alpha*r3[l]
			}
		}
		for ; r < rows; r++ {
			for l, v := range a[(i+r)*lda : (i+r)*lda+kb] {
				pan[l*mr+r] = alpha * v
			}
		}
	}
}

// packB writes the kb×nb block of b (row stride ldb) into dst as
// ceil(nb/nr) panels, each holding kb rows of nr columns, zero-padded
// right of column nb.
func packB(nr, kb, nb int, b []float64, ldb int, dst []float64) {
	for j := 0; j < nb; j += nr {
		pan := dst[j*kb : (j+nr)*kb]
		cols := min(nr, nb-j)
		if cols < nr {
			clear(pan)
		}
		for l := 0; l < kb; l++ {
			copy(pan[l*nr:l*nr+cols], b[l*ldb+j:])
		}
	}
}

// kernelGo4x8 is the portable micro-kernel's tile.
func kernelGo4x8(kc int, a, b, c []float64, ldc int) { kernelGo(4, 8, kc, a, b, c, ldc) }

// kernelGo is the portable micro-kernel for any tile whose mr is even
// and nr a multiple of 4: the tile as 2×4 register tiles, the largest
// whose accumulators and operands stay in amd64's sixteen floating-point
// registers (a 4×4 tile spills and ran 0.7× as fast).  Tests hold each
// assembly kernel to it at that kernel's tile.  The float64 conversions
// keep compilers for architectures with a fused multiply-add from fusing
// the product into the sum, which would round once where the rule
// rounds twice.
func kernelGo(mr, nr, kc int, a, b, c []float64, ldc int) {
	a = a[:kc*mr]
	b = b[:kc*nr]
	for r := 0; r < mr; r += 2 {
		for h := 0; h < nr; h += 4 {
			c0 := c[r*ldc+h : r*ldc+h+4]
			c1 := c[(r+1)*ldc+h : (r+1)*ldc+h+4]
			c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
			c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
			for ai, bi := r, h; ai < len(a); ai, bi = ai+mr, bi+nr {
				ap := a[ai : ai+2]
				bp := b[bi : bi+4]
				a0, a1 := ap[0], ap[1]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				c00 += float64(a0 * b0)
				c01 += float64(a0 * b1)
				c02 += float64(a0 * b2)
				c03 += float64(a0 * b3)
				c10 += float64(a1 * b0)
				c11 += float64(a1 * b1)
				c12 += float64(a1 * b2)
				c13 += float64(a1 * b3)
			}
			c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
			c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
		}
	}
}

// grow returns s with length n, reallocating only when its capacity is
// too small; the contents are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
