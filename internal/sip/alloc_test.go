package sip

import (
	"bytes"
	"container/list"
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/segment"
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

// storeRecycle fills two distributed arrays of 16 blocks each: D from
// its preset, E from puts, half of them received from the other worker.
const storeRecycle = `
sial store_recycle
param n = 128
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
distributed E(I,J)
temp t(I,J)
pardo I, J
  get D(I,J)
  t(I,J) = 2.0 * D(I,J)
  put E(I,J) = t(I,J)
endpardo
sip_barrier
endsial
`

// TestStoreBlocksRecycledAtShutdown: a worker's service loop gives its
// stored blocks back to the allocator when it ends, so the second of two
// back-to-back runs takes its presets and the blocks of the puts it
// receives from recycled blocks.  The collector is off between the runs:
// it would empty the allocator's free lists.
func TestStoreBlocksRecycledAtShutdown(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	emptyBlockPool()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var tally block.Tally
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(32), Output: &bytes.Buffer{},
		Preset: map[string]PresetFunc{"D": func(_ segment.Coord, lo, hi []int) *block.Block {
			b := tally.Get(hi[0]-lo[0]+1, hi[1]-lo[1]+1)
			b.Fill(1)
			return b
		}}}
	run := func() (bytes uint64, fresh int64) {
		tally = block.Tally{}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if _, err := RunSource(storeRecycle, cfg); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, tally.Fresh
	}
	first, _ := run()
	second, fresh := run()
	const arrays = 2 * 16 * 32 * 32 * 8 // D and E: 16 blocks of 32x32 each
	t.Logf("first run %d B, second %d B; %d preset blocks allocated in the second", first, second, fresh)
	if fresh != 0 {
		t.Errorf("the second run allocated %d of its 16 preset blocks", fresh)
	}
	if first < second+arrays*9/10 {
		t.Errorf("the second run allocated %d B, the first %d B: want at least %d B less (D and E recycled)",
			second, first, arrays*9/10)
	}
}

// TestDroppedBlocksRecycled: a put that replaces a stored block gives the
// old one back to the allocator, and so does an I/O server forgetting a
// retired pool tenant's cached blocks, so a loop of either draws
// recycled blocks.  The collector is off: it would empty the allocator's
// free lists.
func TestDroppedBlocksRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	emptyBlockPool()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 100
	t.Run("replacing put", func(t *testing.T) {
		var tally block.Tally
		st := newStore()
		for range rounds {
			st.put(blockKey{arr: 1}, tally.Get(3, 5, 7), false)
		}
		if tally.Reused < rounds/2 {
			t.Errorf("%d replacing puts drew %d recycled blocks and %d fresh ones", rounds, tally.Reused, tally.Fresh)
		}
	})
	t.Run("retired tenant", func(t *testing.T) {
		var tally block.Tally
		s := &ioServer{capacity: 8, entries: map[blockKey]*srvEntry{}, lru: list.New(),
			onDisk: map[blockKey]bool{}, ledgers: map[int]*effectLedger{}, jobs: map[int]*srvJob{}}
		for job := 1; job <= rounds; job++ {
			for ord := range 4 {
				if err := s.insert(blockKey{job: job, arr: 1, ord: ord}, tally.Get(3, 7, 5), false); err != nil {
					t.Fatal(err)
				}
			}
			s.dropJob(job)
		}
		if tally.Reused < 4*rounds/2 {
			t.Errorf("%d tenants' blocks drew %d recycled blocks and %d fresh ones", rounds, tally.Reused, tally.Fresh)
		}
	})
}

// servedLoop prepares into each of a served array's 4 blocks reps
// times, accumulating or replacing, and reads the block back after each
// prepare: the server answers in order, so at most one prepared block is
// in flight and the prepares cannot outrun the server.
const servedLoop = `
sial served_loop
param n = 2048
param reps = 1
aoindex I = 1, n
index r = 1, reps
served S(I)
temp t(I)
temp u(I)
pardo I
  do r
    t(I) = 1.0
    prepare S(I) %s t(I)
    request S(I)
    u(I) = S(I)
  enddo r
endpardo
server_barrier
endsial
`

// TestServedPreparesRecycleBlocks: the I/O server gives back the block
// an accumulate adds in and the block a replace overwrites, so a served
// prepare loop allocates no block per prepare: the worker's clone of
// the prepared block (512 elements, 4 KB) and the server's reply to the
// read come back from the allocator every time.  What a turn still
// allocates is its messages and its share of the dedup ledger's growth.
// The collector is off while it counts: it would empty the allocator's
// free lists.
func TestServedPreparesRecycleBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, op := range []string{"+=", "="} {
		t.Run(op, func(t *testing.T) {
			prog, err := compiler.CompileSource(fmt.Sprintf(servedLoop, op))
			if err != nil {
				t.Fatal(err)
			}
			run := func(reps int) (mallocs, bytes float64) {
				cfg := Config{Workers: 1, Servers: 1, Seg: bytecode.DefaultSegConfig(512),
					Params: map[string]int{"reps": reps}}
				var before, after goruntime.MemStats
				goruntime.ReadMemStats(&before)
				if _, err := Run(prog, cfg); err != nil {
					t.Fatal(err)
				}
				goruntime.ReadMemStats(&after)
				return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run(50) // warm up
			const extra = 4 * 400
			n0, b0 := run(50)
			n1, b1 := run(450)
			t.Logf("%.2f allocations and %.0f B per served prepare %s", (n1-n0)/extra, (b1-b0)/extra, op)
			if perPrepare := (b1 - b0) / extra; perPrepare > 1024 {
				t.Errorf("%.0f B allocated per served prepare %s, want <= 1024 (is a block allocated per prepare?)", perPrepare, op)
			}
		})
	}
}
