package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// gemmRule is the package's bit-identity rule written as the plain
// triple loop: c = beta*c (zeroed when beta is 0), then one rounded
// product added per k, ascending.
func gemmRule(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			switch beta {
			case 0:
			case 1:
				s = c[i*n+j]
			default:
				s = c[i*n+j] * beta
			}
			if alpha != 0 {
				for l := 0; l < k; l++ {
					av := alpha * a[i*k+l]
					s += float64(av * b[l*n+j])
				}
			}
			c[i*n+j] = s
		}
	}
}

// TestGemmBitIdentical holds every micro-kernel to the rule under ==,
// over the shapes the runtime produces and the ones that stress the
// driver: partial tiles in both directions (one short of and one past
// the kernel's own tile), the Fock GEMV (n=1), the triples outer product
// (k=1), and k past one k-block.
func TestGemmBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 8, 16}, {5, 9, 17}, {2, 3, 300},
		{196, 1, 196}, {1, 196, 196}, {196, 196, 1}, {16, 16, 16},
		{37, 29, 2*kc + 1}, {mc + 5, 20, 9}, {6, nc + 9, 3},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	perKernel(t, func(t *testing.T) {
		mr, nr := kernels[0].mr, kernels[0].nr
		tile := [][3]int{
			{mr - 1, nr - 1, 5}, {mr, nr, 7}, {mr + 1, nr + 1, kc + 3},
			{mr - 1, nr + 1, 2}, {mr + 1, nr - 1, kc}, {2*mr + 1, 3*nr - 1, 11},
		}
		rng := rand.New(rand.NewSource(11))
		for _, sh := range append(tile, shapes...) {
			m, n, k := sh[0], sh[1], sh[2]
			a, b := randSlice(rng, m*k), randSlice(rng, k*n)
			c0 := randSlice(rng, m*n)
			for _, alpha := range []float64{1, -0.75} {
				for _, beta := range []float64{0, 1, 0.5} {
					got := append([]float64(nil), c0...)
					want := append([]float64(nil), c0...)
					if beta == 0 { // garbage that beta=0 must not read
						for i := range got {
							got[i] = math.NaN()
						}
					}
					Gemm(m, n, k, alpha, a, b, beta, got)
					gemmRule(m, n, k, alpha, a, b, beta, want)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("m=%d n=%d k=%d alpha=%g beta=%g: c[%d] = %v, want %v",
								m, n, k, alpha, beta, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestKernelsAgreeOnPanels feeds each assembly micro-kernel and the
// portable one, at the assembly kernel's tile, the same packed panels
// directly, so the assembly is compared even where the driver would
// never send a shape.
func TestKernelsAgreeOnPanels(t *testing.T) {
	if len(kernels) == 1 {
		t.Skip("no assembly micro-kernel on this host")
	}
	for _, kern := range kernels[:len(kernels)-1] {
		t.Run(kern.name, func(t *testing.T) {
			mr, nr := kern.mr, kern.nr
			rng := rand.New(rand.NewSource(3))
			for _, k := range []int{1, 2, 3, 17, kc} {
				for _, ldc := range []int{nr, nr + 3, 200} {
					a, b := randSlice(rng, k*mr), randSlice(rng, k*nr)
					c0 := randSlice(rng, (mr-1)*ldc+nr)
					got := append([]float64(nil), c0...)
					want := append([]float64(nil), c0...)
					kern.fn(k, a, b, got, ldc)
					kernelGo(mr, nr, k, a, b, want, ldc)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("k=%d ldc=%d: c[%d] = %v, want %v", k, ldc, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestPickNarrowShapes: a C narrower than the preferred kernel's tile
// goes to the next kernel with a narrower tile, and never to one of the
// same width further down the list.
func TestPickNarrowShapes(t *testing.T) {
	host := kernels
	defer func() { kernels = host }()
	kernels = []kernel{{name: "wide", nr: 16}, {name: "narrow", nr: 8}, {name: "same", nr: 8}}
	for _, tc := range []struct {
		n    int
		want string
	}{{1, "narrow"}, {7, "narrow"}, {8, "narrow"}, {15, "narrow"}, {16, "wide"}, {17, "wide"}, {196, "wide"}} {
		if got := pick(tc.n).name; got != tc.want {
			t.Errorf("n=%d: picked %s, want %s", tc.n, got, tc.want)
		}
	}
	kernels = kernels[1:]
	if got := pick(1).name; got != "narrow" {
		t.Errorf("n=1 with no narrower kernel: picked %s, want narrow", got)
	}
}

// TestGemmZeroTimesInfIsNaN: the kernels skip no term, whatever its
// value, so a zero in A against an Inf in B poisons the sum as IEEE 754
// says — and a finite column next to it is untouched.
func TestGemmZeroTimesInfIsNaN(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		for _, n := range []int{2, kernels[0].nr + 2} {
			a := []float64{0, 1}
			b := make([]float64, 2*n)
			for j := range b {
				b[j] = 1
			}
			b[0] = math.Inf(1)
			c := make([]float64, n)
			Gemm(1, n, 2, 1, a, b, 0, c)
			if !math.IsNaN(c[0]) {
				t.Fatalf("n=%d: 0*Inf + 1*1 = %v, want NaN", n, c[0])
			}
			for j := 1; j < n; j++ {
				if c[j] != 1 {
					t.Fatalf("n=%d: c[%d] = %v, want 1", n, j, c[j])
				}
			}
		}
	})
}

// TestGemmConcurrent calls Gemm from several goroutines at once, as the
// workers of one process do; they share only the panel pool.
func TestGemmConcurrent(t *testing.T) {
	const m, n, k = 33, 21, 40
	rng := rand.New(rand.NewSource(5))
	a, b := randSlice(rng, m*k), randSlice(rng, k*n)
	want := make([]float64, m*n)
	gemmRule(m, n, k, 1, a, b, 0, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float64, m*n)
			for it := 0; it < 20; it++ {
				Gemm(m, n, k, 1, a, b, 0, c)
				for i := range want {
					if c[i] != want[i] {
						t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGemm reports GFLOP/s per micro-kernel at the shapes the
// seg=14 and seg=4 contractions, the Fock GEMV and the triples outer
// product reduce to.  "host" is what Gemm runs on this host, the kernel
// pick chooses per shape; each kernel's name runs that kernel alone.
func BenchmarkGemm(b *testing.B) {
	for _, sh := range [][3]int{{196, 196, 196}, {16, 16, 16}, {196, 1, 196}, {196, 196, 1}} {
		m, n, k := sh[0], sh[1], sh[2]
		x, y, z := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
		for i := range x {
			x[i] = 1 + float64(i%7)
		}
		for i := range y {
			y[i] = 1 + float64(i%5)
		}
		run := func(name string) {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", name, m, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Gemm(m, n, k, 1, x, y, 0, z)
				}
				b.ReportMetric(2*float64(m)*float64(n)*float64(k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
		run("host")
		eachKernel(run)
	}
}
