package chem

import (
	"testing"

	"repro/internal/block"
)

// TestIntegralBlocksEqualERI: the table-driven fill must give every
// element the value ERI gives it under ==, for AO arrays, for the MP2
// arrays with their virtual-index offset, for ragged blocks, and for
// blocks past the sizes whose tables fit on the stack.
func TestIntegralBlocksEqualERI(t *testing.T) {
	const no = 3
	bounds := []struct{ lo, hi []int }{
		{[]int{1, 1, 1, 1}, []int{2, 2, 2, 2}},
		{[]int{1, 15, 29, 43}, []int{14, 28, 42, 56}},
		{[]int{5, 2, 9, 1}, []int{7, 2, 12, 5}},
		{[]int{40, 1, 3, 30}, []int{41, 2, 19, 46}},  // 17×17 rows: heap pair tables
		{[]int{1, 1, 60, 60}, []int{34, 33, 60, 61}}, // 67 differences: heap coupling table
	}
	for _, bd := range bounds {
		for name, tc := range map[string]struct {
			got *block.Block
			off [4]int
		}{
			"AO":         {AOIntegrals()("V", bd.lo, bd.hi), [4]int{}},
			"MO v":       {MOIntegrals(no)("v", bd.lo, bd.hi), [4]int{0, no, 0, no}},
			"MO w":       {MOIntegrals(no)("w", bd.lo, bd.hi), [4]int{0, no, 0, no}},
			"MO default": {MOIntegrals(no)("x", bd.lo, bd.hi), [4]int{}},
		} {
			d := tc.got.Dims()
			for i := 0; i < d[0]; i++ {
				for j := 0; j < d[1]; j++ {
					for k := 0; k < d[2]; k++ {
						for l := 0; l < d[3]; l++ {
							want := ERI(bd.lo[0]+i+tc.off[0], bd.lo[1]+j+tc.off[1], bd.lo[2]+k+tc.off[2], bd.lo[3]+l+tc.off[3])
							if got := tc.got.At(i, j, k, l); got != want {
								t.Fatalf("%s lo=%v [%d %d %d %d]: %v, want %v", name, bd.lo, i, j, k, l, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestIntegralFillAllocations pins the seg=2 fill the dispatch-bound
// workloads run millions of times at the seed's five allocations or
// fewer, and the seg=14 fill at the result block alone: the tables must
// stay on the stack.
func TestIntegralFillAllocations(t *testing.T) {
	ao, mo := AOIntegrals(), MOIntegrals(2)
	for name, tc := range map[string]struct {
		fill   func()
		allocs float64
	}{
		"AO seg=2":  {func() { ao("V", []int{1, 3, 5, 7}, []int{2, 4, 6, 8}) }, 5},
		"MO seg=2":  {func() { mo("v", []int{1, 3, 5, 7}, []int{2, 4, 6, 8}) }, 5},
		"AO seg=14": {func() { ao("V", []int{1, 15, 29, 43}, []int{14, 28, 42, 56}) }, 3},
		"AO seg=16": {func() { ao("V", []int{1, 17, 33, 49}, []int{16, 32, 48, 64}) }, 3},
	} {
		if got := testing.AllocsPerRun(20, tc.fill); got > tc.allocs {
			t.Errorf("%s: %v allocations per fill, want <= %v", name, got, tc.allocs)
		}
	}
}

func BenchmarkAOIntegralsSeg14(b *testing.B) {
	ints := AOIntegrals()
	lo, hi := []int{1, 15, 29, 43}, []int{14, 28, 42, 56}
	for i := 0; i < b.N; i++ {
		ints("V", lo, hi)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(14*14*14*14), "ns/elem")
}
