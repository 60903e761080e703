package block

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand, dims ...int) *Block {
	b := New(dims...)
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	return b
}

func blocksAlmostEqual(a, b *Block, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		d := math.Abs(a.data[i] - b.data[i])
		scale := math.Max(math.Abs(a.data[i]), math.Abs(b.data[i]))
		if scale > 1 {
			d /= scale
		}
		if d > tol {
			return false
		}
	}
	return true
}

func TestNewAndAccessors(t *testing.T) {
	b := New(2, 3)
	if b.Rank() != 2 || b.Size() != 6 {
		t.Fatalf("rank=%d size=%d", b.Rank(), b.Size())
	}
	b.Set(5, 1, 2)
	if b.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if b.Data()[1*3+2] != 5 {
		t.Fatal("row-major layout wrong")
	}
}

func TestRankZeroBlock(t *testing.T) {
	b := New()
	if b.Rank() != 0 || b.Size() != 1 {
		t.Fatalf("rank-0 block: rank=%d size=%d", b.Rank(), b.Size())
	}
	b.Set(3.5)
	if b.At() != 3.5 {
		t.Fatal("rank-0 Set/At failed")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromData(t *testing.T) {
	b := FromData([]float64{1, 2, 3, 4}, 2, 2)
	if b.At(1, 0) != 3 {
		t.Fatal("FromData layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	b := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%v) should panic", idx)
				}
			}()
			b.At(idx...)
		}()
	}
}

func TestFillScaleAdd(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	a.Scale(2)
	b := New(2, 2)
	b.Fill(1)
	a.AddScaled(-2, b) // 6 - 2 = 4
	for _, v := range a.data {
		if v != 4 {
			t.Fatalf("got %v", a.data)
		}
	}
}

func TestAddScaledShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).AddScaled(1, New(2, 3))
}

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	a.Set(1, 0)
	c := a.Clone()
	c.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone aliases data")
	}
}

func TestPermute2D(t *testing.T) {
	// Transpose via Permute.
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Permute([]int{1, 0})
	want := FromData([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !blocksAlmostEqual(at, want, 0) {
		t.Fatalf("got %v", at.data)
	}
}

func TestPermute4DExample(t *testing.T) {
	// SIAL: V1(K,J,I) = V2(I,J,K) -> result dim d is source dim perm[d]
	// with perm = [2,1,0].
	rng := rand.New(rand.NewSource(2))
	v2 := randBlock(rng, 3, 4, 5)
	v1 := v2.Permute([]int{2, 1, 0})
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				if v1.At(k, j, i) != v2.At(i, j, k) {
					t.Fatalf("mismatch at %d %d %d", i, j, k)
				}
			}
		}
	}
}

func TestPermuteInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
		}
		b := randBlock(rng, dims...)
		perm := rng.Perm(rank)
		inv := make([]int, rank)
		for i, p := range perm {
			inv[p] = i
		}
		back := b.Permute(perm).Permute(inv)
		return blocksAlmostEqual(b, back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteInvalid(t *testing.T) {
	b := New(2, 3)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Permute(%v) should panic", perm)
				}
			}()
			b.Permute(perm)
		}()
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := randBlock(rng, 8, 6)
	sub := big.Extract([]int{2, 1}, []int{3, 4})
	if sub.dims[0] != 3 || sub.dims[1] != 4 {
		t.Fatalf("sub dims %v", sub.dims)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if sub.At(i, j) != big.At(2+i, 1+j) {
				t.Fatalf("extract mismatch at %d,%d", i, j)
			}
		}
	}
	// Zero the region, insert back, and compare with the original.
	mod := big.Clone()
	zero := New(3, 4)
	mod.Insert([]int{2, 1}, zero)
	mod.Insert([]int{2, 1}, sub)
	if !blocksAlmostEqual(big, mod, 0) {
		t.Fatal("insert did not restore extracted region")
	}
}

func TestExtractInsertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(3)
		dims := make([]int, rank)
		lo := make([]int, rank)
		ext := make([]int, rank)
		for i := range dims {
			dims[i] = 2 + rng.Intn(6)
			lo[i] = rng.Intn(dims[i])
			ext[i] = 1 + rng.Intn(dims[i]-lo[i])
		}
		b := randBlock(rng, dims...)
		sub := b.Extract(lo, ext)
		c := b.Clone()
		c.Insert(lo, sub)
		return blocksAlmostEqual(b, c, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 4).Extract([]int{2, 2}, []int{3, 1})
}

func TestDotAndNorms(t *testing.T) {
	a := FromData([]float64{3, -4}, 2)
	if Dot(a, a) != 25 {
		t.Fatal("dot wrong")
	}
	if math.Abs(a.Norm2()-5) > 1e-14 {
		t.Fatal("norm wrong")
	}
	if a.MaxAbs() != 4 {
		t.Fatal("maxabs wrong")
	}
}

func TestNewAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// Up to rank 4 the dims live in the header: a block is the header
	// and its data.  Above, the dims are a third allocation.
	for _, tc := range []struct {
		dims []int
		want float64
	}{{[]int{3}, 2}, {[]int{2, 2, 2, 2}, 2}, {[]int{2, 1, 2, 1, 2, 1}, 3}} {
		got := testing.AllocsPerRun(10, func() {
			b := New(tc.dims...)
			c := b.Clone()
			_ = FromData(c.Data(), tc.dims...)
		})
		if got != 3*tc.want-1 { // FromData takes its data
			t.Errorf("New+Clone+FromData of %v: %v allocations, want %v", tc.dims, got, 3*tc.want-1)
		}
	}
	// The header's own dims must not leak between blocks.
	a, b := New(2, 3), New(4, 5)
	a.Dims()[0] = 7
	if b.Dims()[0] != 4 || a.Clone().Dims()[0] != 7 {
		t.Fatalf("dims shared between headers: %v %v", a.Dims(), b.Dims())
	}
}

func TestPermuteInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randBlock(rng, 2, 3, 4, 5)
	perm := []int{2, 0, 3, 1}
	want := b.Permute(perm)
	dst := New(b.PermutedDims(nil, perm)...)
	dst.Fill(math.NaN()) // a recycled block: every element is overwritten
	b.PermuteInto(dst, perm)
	if !blocksAlmostEqual(dst, want, 0) {
		t.Fatal("PermuteInto differs from Permute")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(10, func() { b.PermuteInto(dst, perm) }); n != 0 {
			t.Errorf("PermuteInto allocates %v times, want 0", n)
		}
	}
	for name, bad := range map[string]func(){
		"wrong dims":     func() { b.PermuteInto(New(2, 3, 4, 5), perm) },
		"shared storage": func() { b.PermuteInto(FromData(b.Data(), 4, 2, 5, 3), perm) },
		"bad perm":       func() { b.PermuteInto(dst, []int{0, 0, 1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PermuteInto with %s should panic", name)
				}
			}()
			bad()
		}()
	}
}
