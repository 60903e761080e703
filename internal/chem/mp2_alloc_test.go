package chem

import (
	"runtime"
	"testing"
)

// mp2Iters is the number of pardo iterations MP2SIP runs at seg 2.
func mp2Iters(no, nv int) int { return (no / 2) * (nv / 2) * (no / 2) * (nv / 2) }

// mallocsOf returns the heap allocations fn makes, every goroutine's,
// and the bytes they take.
func mallocsOf(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestMP2PardoAllocsPerIteration pins the steady state of the MP2 pardo
// body: an iteration allocates nothing of its own.  The two integral
// blocks its compute_integrals generator returns, the permutation, the
// execute arguments and the integral bounds come from the block
// allocator, pools and scratch, and a chunk is a span of the iteration
// space, not a list of tuples.  Two sizes are run so the difference
// cancels what a run costs once.
func TestMP2PardoAllocsPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	run := func(no, nv int) (uint64, uint64) {
		return mallocsOf(func() {
			if _, err := MP2SIP(no, nv, 2, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(4, 8) // warm up package-level state
	smallN, smallB := run(4, 8)
	largeN, largeB := run(8, 24)
	iters := float64(mp2Iters(8, 24) - mp2Iters(4, 8))
	perIter := (float64(largeN) - float64(smallN)) / iters
	bytesPerIter := (float64(largeB) - float64(smallB)) / iters
	t.Logf("%.3f allocations and %.2f B per pardo iteration", perIter, bytesPerIter)
	// What is left is a few allocations per chunk: the chunk request and
	// reply, and the ledger's growth.
	if perIter > 0.02 {
		t.Errorf("%.3f allocations per MP2 pardo iteration, want <= 0.02 (a few per chunk)", perIter)
	}
	if bytesPerIter > 8 {
		t.Errorf("%.2f B allocated per MP2 pardo iteration, want <= 8 (is a chunk a list of tuples again?)", bytesPerIter)
	}
}

// BenchmarkMP2Pardo runs the dispatch-bound MP2 program (seg 2, 2304
// pardo iterations) and reports the cost per iteration.
func BenchmarkMP2Pardo(b *testing.B) {
	const no, nv = 8, 24
	b.ReportAllocs()
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		n, _ := mallocsOf(func() {
			if _, err := MP2SIP(no, nv, 2, 2); err != nil {
				b.Fatal(err)
			}
		})
		mallocs += n
	}
	iters := float64(b.N * mp2Iters(no, nv))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/iters, "ns/iter")
	b.ReportMetric(float64(mallocs)/iters, "allocs/iter")
}
