package sip

import (
	"math"
	goruntime "runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
)

// emptyBlockPool empties the process-wide block allocator (a sync.Pool
// survives one collection in its victim cache), so that blocks earlier
// tests gave back can make a pool test neither pass nor fail.
func emptyBlockPool() {
	goruntime.GC()
	goruntime.GC()
}

// poolDirty leaves three NaN blocks on the free stack (the temps of the
// first pardo go back to it at the end of each iteration), then reads two
// absent blocks through it: the accumulate target of a += on a temp that
// was never assigned, and a get of a distributed block nobody put, homed
// on the lone worker itself.  Both must read as zeros.
const poolDirty = `
sial pool_dirty
param n = 4
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp a(I,J)
temp b(I,J)
temp c(I,J)
temp u(I,J)
temp v(I,J)
scalar s
scalar g
pardo I, J
  a(I,J) = 1.0
  b(I,J) = 1.0
  c(I,J) = 1.0
  execute poison a(I,J), b(I,J), c(I,J)
endpardo I, J
pardo I, J
  v(I,J) = 1.0
  u(I,J) += v(I,J)
  s += dot(u(I,J), u(I,J))
  get D(I,J)
  g += dot(D(I,J), D(I,J))
endpardo I, J
endsial
`

// TestPoolDirtyBlocksDoNotLeak: the pool hands out blocks as it got them
// back, so a reader of an absent block must zero it itself.
func TestPoolDirtyBlocksDoNotLeak(t *testing.T) {
	emptyBlockPool()
	poison := func(_ *ExecCtx, blocks []*block.Block, _ []*float64) error {
		for _, b := range blocks {
			b.Fill(math.NaN())
		}
		return nil
	}
	res, err := RunSource(poolDirty, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2),
		Super: map[string]SuperFunc{"poison": poison}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.PoolReuses == 0 {
		t.Fatal("no block was reused; the drill is vacuous")
	}
	if s := res.Scalars["s"]; s != 16 {
		t.Errorf("s = %g, want 16: a += on an absent temp read a dirty pool block", s)
	}
	if g := res.Scalars["g"]; g != 0 {
		t.Errorf("g = %g, want 0: a get of an absent local block read a dirty pool block", g)
	}
}

func TestPoolReuseInProgram(t *testing.T) {
	// The paper program's per-iteration temps must hit the pool from
	// the second iteration on.
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	emptyBlockPool()
	res := runPaperProgram(t, Config{Workers: 1})
	if res.Profile.PoolReuses == 0 {
		t.Fatalf("no pool reuse recorded: %d allocs", res.Profile.PoolAllocs)
	}
	if res.Profile.PoolAllocs == 0 {
		t.Fatal("no pool allocations recorded")
	}
	// Steady state: reuses dominate allocations across many iterations.
	if res.Profile.PoolReuses < res.Profile.PoolAllocs {
		t.Fatalf("reuses (%d) should exceed allocs (%d) over many iterations",
			res.Profile.PoolReuses, res.Profile.PoolAllocs)
	}
}
