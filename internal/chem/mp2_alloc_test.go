package chem

import (
	"runtime"
	"testing"
)

// mp2Iters is the number of pardo iterations MP2SIP runs at seg 2.
func mp2Iters(no, nv int) int { return (no / 2) * (nv / 2) * (no / 2) * (nv / 2) }

// mallocsOf returns the heap allocations fn makes, every goroutine's.
func mallocsOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMP2PardoAllocsPerIteration pins the steady state of the MP2 pardo
// body: an iteration allocates nothing of its own.  The two integral
// blocks its compute_integrals generator returns, the permutation, the
// execute arguments, the integral bounds and the chunk tuples all come
// from the block allocator, pools and scratch.  Two sizes are run so the
// difference cancels what a run costs once.
func TestMP2PardoAllocsPerIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	run := func(no, nv int) uint64 {
		return mallocsOf(func() {
			if _, err := MP2SIP(no, nv, 2, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(4, 8) // warm up package-level state
	small, large := run(4, 8), run(8, 24)
	perIter := float64(large-small) / float64(mp2Iters(8, 24)-mp2Iters(4, 8))
	t.Logf("%.2f allocations per pardo iteration", perIter)
	// The integral blocks are recycled: the generator draws each from
	// the block allocator, which gets it back when its temp dies.  What
	// is left is the master's chunk hand-out, a few allocations per chunk.
	if perIter > 0.25 {
		t.Fatalf("%.2f allocations per MP2 pardo iteration, want <= 0.25 (the chunk hand-out)", perIter)
	}
}

// BenchmarkMP2Pardo runs the dispatch-bound MP2 program (seg 2, 2304
// pardo iterations) and reports the cost per iteration.
func BenchmarkMP2Pardo(b *testing.B) {
	const no, nv = 8, 24
	b.ReportAllocs()
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		mallocs += mallocsOf(func() {
			if _, err := MP2SIP(no, nv, 2, 2); err != nil {
				b.Fatal(err)
			}
		})
	}
	iters := float64(b.N * mp2Iters(no, nv))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/iters, "ns/iter")
	b.ReportMetric(float64(mallocs)/iters, "allocs/iter")
}
