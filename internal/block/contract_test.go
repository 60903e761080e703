package block

import (
	"math/rand"
	"testing"
	"testing/quick"
	_ "unsafe" // for go:linkname
)

// eachKernel is linalg's unexported test hook: it calls f once per GEMM
// micro-kernel the host can run, with that kernel installed.  Pulled in
// by name so that no exported API can select a kernel.
//
//go:linkname eachKernel repro/internal/linalg.eachKernel
var eachKernel func(f func(name string))

func TestContractMatrixMultiply(t *testing.T) {
	// C(i,j) = A(i,k)*B(k,j) with labels i=0, k=1, j=2.
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := FromData([]float64{5, 6, 7, 8}, 2, 2)
	spec := Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 2}}
	c, err := Contract(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromData([]float64{19, 22, 43, 50}, 2, 2)
	if !blocksAlmostEqual(c, want, 1e-14) {
		t.Fatalf("got %v", c.data)
	}
}

func TestContractPaperExample(t *testing.T) {
	// R(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J): contract L,S.
	rng := rand.New(rand.NewSource(4))
	const m, n, l, s, i, j = 3, 2, 4, 2, 3, 2
	v := randBlock(rng, m, n, l, s)
	tt := randBlock(rng, l, s, i, j)
	// labels: M=0 N=1 L=2 S=3 I=4 J=5
	spec := Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	got, err := Contract(spec, v, tt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ContractNaive(spec, v, tt)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksAlmostEqual(got, want, 1e-12) {
		t.Fatal("GEMM path disagrees with naive contraction")
	}
	if d := got.Dims(); d[0] != m || d[1] != n || d[2] != i || d[3] != j {
		t.Fatalf("result dims %v", d)
	}
}

func TestContractPermutedOutput(t *testing.T) {
	// C(j,i) = A(i,k)*B(k,j) — output order differs from GEMM raw order.
	rng := rand.New(rand.NewSource(5))
	a := randBlock(rng, 3, 4)
	b := randBlock(rng, 4, 5)
	spec := Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{2, 0}}
	got, err := Contract(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ContractNaive(spec, a, b)
	if !blocksAlmostEqual(got, want, 1e-12) {
		t.Fatal("permuted output mismatch")
	}
	if d := got.Dims(); d[0] != 5 || d[1] != 3 {
		t.Fatalf("dims %v, want [5 3]", d)
	}
}

func TestContractOuterProduct(t *testing.T) {
	// No shared labels: outer product.
	a := FromData([]float64{1, 2}, 2)
	b := FromData([]float64{3, 4, 5}, 3)
	spec := Spec{A: []int{0}, B: []int{1}, C: []int{0, 1}}
	c, err := Contract(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromData([]float64{3, 4, 5, 6, 8, 10}, 2, 3)
	if !blocksAlmostEqual(c, want, 1e-14) {
		t.Fatalf("got %v", c.data)
	}
}

func TestContractFullContraction(t *testing.T) {
	// All labels shared: rank-0 result (inner product).
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := FromData([]float64{5, 6, 7, 8}, 2, 2)
	spec := Spec{A: []int{0, 1}, B: []int{0, 1}, C: nil}
	c, err := Contract(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 0 {
		t.Fatalf("rank %d, want 0", c.Rank())
	}
	if c.At() != 70 {
		t.Fatalf("got %v, want 70", c.At())
	}
}

func TestContractVsNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random valid spec: nA, nB ranks; some shared labels.
		nShared := rng.Intn(3)
		nFreeA := rng.Intn(3)
		nFreeB := rng.Intn(3)
		if nShared+nFreeA == 0 || nShared+nFreeB == 0 {
			return true // skip rank-0 operands
		}
		label := 0
		var shared, freeA, freeB []int
		for i := 0; i < nShared; i++ {
			shared = append(shared, label)
			label++
		}
		for i := 0; i < nFreeA; i++ {
			freeA = append(freeA, label)
			label++
		}
		for i := 0; i < nFreeB; i++ {
			freeB = append(freeB, label)
			label++
		}
		// Interleave labels in random positions per operand.
		aLabels := append(append([]int{}, freeA...), shared...)
		bLabels := append(append([]int{}, freeB...), shared...)
		rng.Shuffle(len(aLabels), func(i, j int) { aLabels[i], aLabels[j] = aLabels[j], aLabels[i] })
		rng.Shuffle(len(bLabels), func(i, j int) { bLabels[i], bLabels[j] = bLabels[j], bLabels[i] })
		cLabels := append(append([]int{}, freeA...), freeB...)
		rng.Shuffle(len(cLabels), func(i, j int) { cLabels[i], cLabels[j] = cLabels[j], cLabels[i] })

		extent := map[int]int{}
		for _, l := range append(append(append([]int{}, shared...), freeA...), freeB...) {
			extent[l] = 1 + rng.Intn(4)
		}
		adims := make([]int, len(aLabels))
		for i, l := range aLabels {
			adims[i] = extent[l]
		}
		bdims := make([]int, len(bLabels))
		for i, l := range bLabels {
			bdims[i] = extent[l]
		}
		a := randBlock(rng, adims...)
		b := randBlock(rng, bdims...)
		spec := Spec{A: aLabels, B: bLabels, C: cLabels}
		got, err := Contract(spec, a, b)
		if err != nil {
			return false
		}
		want, err := ContractNaive(spec, a, b)
		if err != nil {
			return false
		}
		return blocksAlmostEqual(got, want, 1e-10)
	}
	eachKernel(func(name string) {
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func TestContractErrors(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	cases := []struct {
		name string
		spec Spec
	}{
		{"dup label in A", Spec{A: []int{0, 0}, B: []int{0, 1}, C: []int{1}}},
		{"dup label in C", Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 0}}},
		{"label in A,B,C", Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 1}}},
		{"dangling A label", Spec{A: []int{0, 3}, B: []int{0, 1}, C: []int{1}}},
		{"dangling B label", Spec{A: []int{0, 1}, B: []int{1, 3}, C: []int{0}}},
		{"missing C label", Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 2, 4}}},
		{"rank mismatch A", Spec{A: []int{0}, B: []int{0, 1}, C: []int{1}}},
	}
	for _, tc := range cases {
		if _, err := Contract(tc.spec, a, b); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Extent mismatch on the contracted dimension.
	c := New(3, 2)
	if _, err := Contract(Spec{A: []int{0, 1}, B: []int{0, 2}, C: []int{1, 2}}, a, c); err == nil {
		t.Error("extent mismatch: expected error")
	}
}

// TestContractInto: the result lands in the caller's block, stale
// contents and all, equals Contract's under ==, and the flops are those
// ContractFlops reports — for an output in GEMM order and a permuted one.
func TestContractInto(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randBlock(rng, 3, 4, 2)
	b := randBlock(rng, 2, 4, 5)
	for _, c := range [][]int{{0, 3}, {3, 0}} {
		spec := Spec{A: []int{0, 1, 2}, B: []int{2, 1, 3}, C: c}
		want, err := Contract(spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst := randBlock(rng, want.Dims()...)
		flops, err := ContractInto(dst, spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.data {
			if dst.data[i] != v {
				t.Fatalf("C=%v: element %d = %v, want %v", c, i, dst.data[i], v)
			}
		}
		if wantFlops, _ := ContractFlops(spec, a.Dims(), b.Dims()); flops != wantFlops || flops != 2*3*5*8 {
			t.Fatalf("C=%v: flops = %d, want %d", c, flops, wantFlops)
		}
	}
}

func TestContractIntoErrors(t *testing.T) {
	a, b := New(2, 3), New(3, 2)
	spec := Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 2}}
	sq := New(3, 3)
	for name, tc := range map[string]struct {
		dst  *Block
		a, b *Block
	}{
		"wrong rank":          {New(4), a, b},
		"wrong dims":          {New(2, 3), a, b},
		"dst is a":            {sq, sq, New(3, 3)},
		"dst is b":            {sq, New(3, 3), sq},
		"dst overlaps a":      {FromData(sq.data[5:9], 2, 2), FromData(sq.data[:6], 2, 3), b},
		"bad spec":            {New(2, 2), New(2), b},
		"contracted mismatch": {New(2, 2), a, New(2, 2)},
	} {
		if _, err := ContractInto(tc.dst, spec, tc.a, tc.b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := ContractInto(New(2, 2), spec, a, b); err != nil {
		t.Errorf("well-formed call: %v", err)
	}
}

// TestContractRankLimit: plans live on fixed arrays of maxRank entries.
func TestContractRankLimit(t *testing.T) {
	labels := make([]int, maxRank+1)
	dims := make([]int, maxRank+1)
	for i := range labels {
		labels[i], dims[i] = i, 1
	}
	if _, err := Contract(Spec{A: labels, B: []int{0}, C: labels[1:]}, New(dims...), New(1)); err == nil {
		t.Fatal("expected error for a rank above maxRank")
	}
	if _, err := Contract(Spec{A: labels[:maxRank], B: []int{0}, C: labels[1:maxRank]}, New(dims[:maxRank]...), New(1)); err != nil {
		t.Fatalf("rank %d: %v", maxRank, err)
	}
}

// TestContractAllocations pins the hot path at the three allocations of
// the result block itself (header, dims, data): analysis, packing and
// the GEMM add none.  The race detector makes sync.Pool drop items, so
// the pin holds only without it.
func TestContractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	spec := Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	for _, seg := range []int{4, 14} {
		a, b := New(seg, seg, seg, seg), New(seg, seg, seg, seg)
		a.Fill(1.1)
		b.Fill(0.9)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Contract(spec, a, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("seg=%d: %v allocations per Contract, want <= 3", seg, allocs)
		}
	}
}

func TestContractFlops(t *testing.T) {
	// seg^4 blocks contracting two indices: 2*seg^6 flops (paper §III:
	// "2 x 100^3 to 2 x 2,500^3" for seg 10..50 on 4-d blocks —
	// i.e. 2*(seg^2)^3).
	spec := Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	seg := 10
	dims := []int{seg, seg, seg, seg}
	fl, err := ContractFlops(spec, dims, dims)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 100 * 100 * 100 * 100 * 100 * 100 / (100 * 100 * 100)); fl != 2_000_000 && fl != want {
		t.Fatalf("flops = %d, want 2e6", fl)
	}
}

func TestMustContractPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustContract(Spec{A: []int{0, 0}, B: []int{0}, C: nil}, New(2, 2), New(2))
}

func TestIdentityPerm(t *testing.T) {
	for _, tc := range []struct {
		perm []int
		want bool
	}{
		{nil, true},
		{[]int{0}, true},
		{[]int{0, 1, 2, 3}, true},
		{[]int{1, 0}, false},
		{[]int{0, 2, 1}, false},
	} {
		if got := IdentityPerm(tc.perm); got != tc.want {
			t.Errorf("IdentityPerm(%v) = %v, want %v", tc.perm, got, tc.want)
		}
	}
}

// TestContractInPlaceOperands pins down that the identity-permutation
// fast path still contracts correctly when operands are already in GEMM
// order (no permutes at all) and does not alias the result to an operand.
func TestContractInPlaceOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randBlock(rng, 3, 4)
	b := randBlock(rng, 4, 5)
	spec := Spec{A: []int{0, 1}, B: []int{1, 2}, C: []int{0, 2}}
	got, err := Contract(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ContractNaive(spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksAlmostEqual(got, want, 1e-12) {
		t.Fatal("fast path disagrees with naive contraction")
	}
	if &got.data[0] == &a.data[0] || &got.data[0] == &b.data[0] {
		t.Fatal("result aliases an operand")
	}
}

// BenchmarkContractGEMMOrder measures the common case where operands and
// output are already in GEMM order, so no permutation runs at all.
func BenchmarkContractGEMMOrder(bm *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randBlock(rng, 16, 16, 16, 16)
	b := randBlock(rng, 16, 16, 16, 16)
	spec := Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, err := Contract(spec, a, b); err != nil {
			bm.Fatal(err)
		}
	}
}

// BenchmarkContractPermuted measures the slow case where both operands
// and the output need a permutation.
func BenchmarkContractPermuted(bm *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randBlock(rng, 16, 16, 16, 16)
	b := randBlock(rng, 16, 16, 16, 16)
	// Contracted labels lead in A and trail in B; output order reversed.
	spec := Spec{A: []int{2, 3, 0, 1}, B: []int{4, 5, 2, 3}, C: []int{5, 4, 1, 0}}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, err := Contract(spec, a, b); err != nil {
			bm.Fatal(err)
		}
	}
}
