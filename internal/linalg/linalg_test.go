package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gemmNaive is the reference triple loop.
func gemmNaive(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			c[i*n+j] = alpha*s + beta*c[i*n+j]
		}
	}
}

// perKernel runs f as a subtest once per micro-kernel this host can run.
func perKernel(t *testing.T, f func(t *testing.T)) {
	eachKernel(func(name string) { t.Run(name, f) })
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func almostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		d /= scale
	}
	return d <= tol
}

func TestGemmMatchesNaive(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		cases := []struct{ m, n, k int }{
			{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {1, 8, 3},
			{48, 48, 48}, {49, 50, 51}, {100, 37, 64}, {3, 200, 2},
		}
		for _, tc := range cases {
			a := randSlice(rng, tc.m*tc.k)
			b := randSlice(rng, tc.k*tc.n)
			c1 := randSlice(rng, tc.m*tc.n)
			c2 := append([]float64(nil), c1...)
			alpha, beta := 1.5, -0.5
			Gemm(tc.m, tc.n, tc.k, alpha, a, b, beta, c1)
			gemmNaive(tc.m, tc.n, tc.k, alpha, a, b, beta, c2)
			for i := range c1 {
				if !almostEqual(c1[i], c2[i], 1e-12) {
					t.Fatalf("m=%d n=%d k=%d: c[%d] = %g, want %g", tc.m, tc.n, tc.k, i, c1[i], c2[i])
				}
			}
		}
	})
}

func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		// beta=0 must overwrite C even if it contains NaN.
		c := []float64{math.NaN(), math.NaN()}
		Gemm(1, 2, 1, 1, []float64{2}, []float64{3, 4}, 0, c)
		if c[0] != 6 || c[1] != 8 {
			t.Fatalf("got %v, want [6 8]", c)
		}
	})
}

func TestGemmZeroDims(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		// m, n or k zero must be a no-op / produce beta*C without panicking.
		c := []float64{1, 2}
		Gemm(1, 2, 0, 1, nil, nil, 2, c)
		if c[0] != 2 || c[1] != 4 {
			t.Fatalf("k=0: got %v, want [2 4]", c)
		}
		Gemm(0, 0, 3, 1, nil, nil, 0, nil)
	})
}

func TestGemmAlphaZeroSkipsProduct(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		c := []float64{3}
		Gemm(1, 1, 1, 0, []float64{math.NaN()}, []float64{math.NaN()}, 1, c)
		if c[0] != 3 {
			t.Fatalf("alpha=0: got %v, want 3", c[0])
		}
	})
}

func TestGemmPanicsOnShortSlice(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on short slice")
			}
		}()
		Gemm(2, 2, 2, 1, make([]float64, 3), make([]float64, 4), 0, make([]float64, 4))
	})
}

func TestTranspose(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6} // 2x3
	dst := make([]float64, 6)
	Transpose(2, 3, src, dst)
	want := []float64{1, 4, 2, 5, 3, 6} // 3x2
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		src := randSlice(rng, m*n)
		mid := make([]float64, m*n)
		back := make([]float64, m*n)
		Transpose(m, n, src, mid)
		Transpose(n, m, mid, back)
		for i := range src {
			if src[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyScaleFill(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 36 {
		t.Fatalf("axpy: got %v", y)
	}
	Scale(0.5, y)
	if y[0] != 6 || y[1] != 12 || y[2] != 18 {
		t.Fatalf("scale: got %v", y)
	}
	Fill(7, y)
	for _, v := range y {
		if v != 7 {
			t.Fatalf("fill: got %v", y)
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, make([]float64, 2), make([]float64, 3))
}

func TestDotNrm2MaxAbs(t *testing.T) {
	x := []float64{3, -4}
	if d := Dot(x, x); d != 25 {
		t.Fatalf("dot: got %v, want 25", d)
	}
	if n := Nrm2(x); !almostEqual(n, 5, 1e-15) {
		t.Fatalf("nrm2: got %v, want 5", n)
	}
	if m := MaxAbs(x); m != 4 {
		t.Fatalf("maxabs: got %v, want 4", m)
	}
	if m := MaxAbs(nil); m != 0 {
		t.Fatalf("maxabs(nil): got %v, want 0", m)
	}
}

func TestGemmAssociatesWithScaling(t *testing.T) {
	perKernel(t, func(t *testing.T) {
		// Property: Gemm with alpha is alpha * Gemm with 1.
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m, n, k := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
			alpha := rng.NormFloat64()
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			c1 := make([]float64, m*n)
			c2 := make([]float64, m*n)
			Gemm(m, n, k, alpha, a, b, 0, c1)
			Gemm(m, n, k, 1, a, b, 0, c2)
			Scale(alpha, c2)
			for i := range c1 {
				if !almostEqual(c1[i], c2[i], 1e-12) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}
