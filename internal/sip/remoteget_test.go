package sip

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
)

// remoteGetProg has one distributed array whose blocks a worker on rank 0
// fetches from their home, rank 1.
const remoteGetProg = `
sial remote_get
param n = 8
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
endsial
`

// TestRemoteGetAllocs: a get of a remote block over TCP allocates no
// block on either rank.  The requester's fetch keeps its pending receive
// in the recycled cache entry and decodes the reply into a block the
// allocator gave back; the home computes the dims in place and recycles
// the reply block once the transport has encoded it.  What is left is
// the boxed getMsg on each side, 2 allocations per get across both ranks.
func TestRemoteGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops what sync.Pool recycles")
	}
	prog, err := compiler.CompileSource(remoteGetProg)
	if err != nil {
		t.Fatal(err)
	}
	mk := tcpWorldMaker(t, 2)
	cfg := Config{Workers: 1, Seg: bytecode.DefaultSegConfig(4)}
	at := placement{ranks: Ranks{workers: []int{1}}} // every block's home is rank 1
	var ws [2]*worker
	for rank := range ws {
		world := mk(rank)
		defer world.Close()
		rt, err := newRuntime(prog, cfg, world, at)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.close()
		ws[rank] = newWorker(rt, rank)
	}
	home, req := ws[1], ws[0]
	arr := prog.ArrayID("D")
	shape := home.rt.layout.Shapes[arr]
	done := make(chan struct{})
	go func() { defer close(done); home.serviceLoop() }()
	defer func() {
		req.comm.Send(1, home.rt.tag(tagService), shutdownMsg{})
		<-done
	}()
	// Each get fetches one block, waits for it, and drops it from the
	// cache, which gives the block back to the allocator.
	var loc refLoc
	get := func(ord int) {
		loc.key = blockKey{arr: arr, ord: ord}
		loc.rank = shape.Rank()
		shape.OrdinalDims(ord, loc.dims[:loc.rank])
		if _, err := req.fetch(fetchGet, arr, &loc); err != nil {
			t.Fatal(err)
		}
		b, err := req.fetch(fetchRead, arr, &loc)
		if err != nil || b == nil {
			t.Fatalf("block %d: %v, %v", ord, b, err)
		}
		req.cache.invalidate(loc.key)
	}
	emptyBlockPool()
	for ord := range shape.NumBlocks() { // connect, and fill the free lists
		get(ord)
	}
	const gets = 50
	n := testing.AllocsPerRun(10, func() {
		for i := range gets {
			get(i % shape.NumBlocks())
		}
	}) / gets
	t.Logf("%.2f allocations per remote get", n)
	if n > 2 {
		t.Errorf("a remote get allocates %.2f times across both ranks, want <= 2", n)
	}
	if req.prof.fetches == 0 {
		t.Fatal("no fetch went to the home")
	}
}
