package sip

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

// slowReplies wraps an I/O server's endpoint: the reply to every get of a
// block other than an array's first is delivered delay later, from a
// goroutine, so the server itself is not held up.  A block requested
// ahead of a barrier is then still in flight when the barrier ends — the
// state the two look-ahead bugs needed to show.
type slowReplies struct {
	transport.Transport
	delay time.Duration
	mu    sync.Mutex
	slow  map[int]bool // reply tags owed a delay
	wg    sync.WaitGroup
}

func (s *slowReplies) Start(h transport.Handler, down transport.PeerDown) error {
	return s.Transport.Start(func(src, dst, tag int, data any) {
		if g, ok := data.(getMsg); ok && g.key.ord > 0 {
			s.mu.Lock()
			s.slow[g.replyTag] = true
			s.mu.Unlock()
		}
		h(src, dst, tag, data)
	}, down)
}

func (s *slowReplies) Send(src, dst, tag int, data any) error {
	s.mu.Lock()
	slow := s.slow[tag]
	delete(s.slow, tag)
	s.mu.Unlock()
	if !slow {
		return s.Transport.Send(src, dst, tag, data)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		time.Sleep(s.delay)
		_ = s.Transport.Send(src, dst, tag, data) // the run may be over
	}()
	return nil
}

func (s *slowReplies) Close() error {
	s.wg.Wait()
	return s.Transport.Close()
}

// slowServerWorlds is routerWorldMaker for 1 master + 2 workers + 1 I/O
// server whose replies are slow.
func slowServerWorlds(t *testing.T, delay time.Duration) func(rank int) *mpi.World {
	t.Helper()
	const n, server = 4, 3
	r := transport.NewRouter()
	worlds := make([]*mpi.World, n)
	for rank := range worlds {
		var tr transport.Transport = r.Endpoint(rank)
		if rank == server {
			tr = &slowReplies{Transport: tr, delay: delay, slow: map[int]bool{}}
		}
		w, err := mpi.NewDistributedWorld(n, []int{rank}, tr)
		if err != nil {
			t.Fatal(err)
		}
		worlds[rank] = w
	}
	return func(rank int) *mpi.World { return worlds[rank] }
}

// runLookAheadDrill runs src on 2 workers + 1 server over worlds and
// returns the master's scalar s and the look-ahead fetches of the workers.
func runLookAheadDrill(t *testing.T, src string, mkWorld func(rank int) *mpi.World) (s float64, prefetches int64) {
	t.Helper()
	results, errs := runRanksOver(t, src, mkWorld, func(rank int) Config {
		return Config{Workers: 2, Servers: 1, Seg: bytecode.DefaultSegConfig(1), Output: &bytes.Buffer{}}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for _, r := range results[1:3] {
		prefetches += r.Profile.Prefetches()
	}
	return results[0].Scalars["s"], prefetches
}

// aheadWorlds are the two fabrics the drills run over: the Router with
// slow server replies (the deterministic one: a look-ahead reply outlives
// the barrier after it) and the fault injector's random delays on every
// frame of every rank.
func aheadWorlds(t *testing.T) map[string]func(rank int) *mpi.World {
	delays := func(rank int) transport.FaultSpec {
		return transport.FaultSpec{Seed: 7, KillRank: -1, Delay: 2 * time.Millisecond}
	}
	return map[string]func(rank int) *mpi.World{
		"router-slow-replies": slowServerWorlds(t, 300*time.Millisecond),
		"fault-delays":        faultWorldMaker(t, 4, delays, nil),
	}
}

// TestLookAheadStopsAtPardo: a block indexed by a do loop *around* the
// pardo belongs to the next outer iteration, on the far side of the
// barrier that ends this one.  Looking ahead through the pardo frame
// requested it before that barrier; with the reply still in flight at the
// barrier the next iteration then read the value from before the prepare.
// The server_barrier between the reading and the preparing pardo is the
// program's own: without it a worker done with pardo I may prepare A(K)
// while another still requests it.
func TestLookAheadStopsAtPardo(t *testing.T) {
	const src = `
sial ahead_pardo
param n = 3
aoindex K = 1, n
aoindex K2 = 1, n
aoindex I = 1, 4
served A(K)
temp t(K2)
scalar s
scalar kv
pardo K2
  t(K2) = 0.5
  prepare A(K2) = t(K2)
endpardo K2
server_barrier
do K
  pardo I
    request A(K)
    s += dot(A(K), A(K))
  endpardo I
  server_barrier
  kv = K
  pardo K2
    t(K2) = kv
    prepare A(K2) = t(K2)
  endpardo K2
  server_barrier
enddo K
collective s
endsial
`
	// Outer iteration K reads the value iteration K-1 prepared, four times.
	const want = 4 * (0.5*0.5 + 1*1 + 2*2)
	for name, mkWorld := range aheadWorlds(t) {
		t.Run(name, func(t *testing.T) {
			s, prefetches := runLookAheadDrill(t, src, mkWorld)
			if s != want {
				t.Errorf("s = %g, want %g: a request saw a block from before the barrier", s, want)
			}
			if prefetches != 0 {
				t.Errorf("%d look-ahead fetches, want 0: the only loop around the request is outside its pardo", prefetches)
			}
		})
	}
}

// TestStaleInFlightDroppedAtBarrier: blocks look-ahead requested and the
// program never asked for (the request sits under an if) are in flight
// when a barrier invalidates the cache.  They must not be served after
// it: the request after the barrier fetches again and sees the prepare.
// The second pardo leaves A(1), the one block read before the barrier,
// alone: no barrier orders one worker's read of it against the other
// worker's prepares, which begin as soon as that worker leaves its loop.
func TestStaleInFlightDroppedAtBarrier(t *testing.T) {
	const src = `
sial stale_inflight
param n = 4
aoindex K = 1, n
aoindex K2 = 1, n
served A(K)
temp t(K2)
scalar s
pardo K2
  t(K2) = 0.5
  prepare A(K2) = t(K2)
endpardo K2
server_barrier
do K
  if K < 2
    request A(K)
    s += dot(A(K), A(K))
  endif
enddo K
pardo K2 where K2 > 1
  t(K2) = 3.0
  prepare A(K2) = t(K2)
endpardo K2
server_barrier
do K
  request A(K)
  s += dot(A(K), A(K))
enddo K
collective s
endsial
`
	// Both workers run the top-level loops; the collective adds them up.
	const want = 2 * (0.5*0.5 + 0.5*0.5 + 3*3*3)
	for name, mkWorld := range aheadWorlds(t) {
		t.Run(name, func(t *testing.T) {
			s, prefetches := runLookAheadDrill(t, src, mkWorld)
			if s != want {
				t.Errorf("s = %g, want %g: a request saw a block from before the barrier", s, want)
			}
			if prefetches == 0 {
				t.Error("no look-ahead fetch was issued; the drill is vacuous")
			}
		})
	}
}

// TestStaleEntryIsReceivedAndRecycled: dropping an in-flight entry keeps
// its posted receive; once the reply is there it is consumed and the
// block goes to the pool, whoever asks for room next.
func TestStaleEntryIsReceivedAndRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	emptyBlockPool()
	world := mpi.NewWorld(2)
	c := newBlockCache(4)
	k := blockKey{arr: 1, ord: 2}
	c.insert(k, nil, world.Comm(0).Irecv(1, 77), true)
	c.invalidateAll()
	if c.lookup(k) != nil || len(c.stale) != 1 || c.nAhead != 0 {
		t.Fatalf("after invalidateAll: cached %v, %d stale, nAhead %d; want gone, 1, 0", c.lookup(k) != nil, len(c.stale), c.nAhead)
	}
	c.room()
	if len(c.stale) != 1 {
		t.Fatal("stale entry released before its reply arrived")
	}
	b := block.New(2, 2)
	world.Comm(1).Send(0, 77, b)
	c.room()
	if _, queued := world.Comm(0).TryRecv(1, 77); len(c.stale) != 0 || queued {
		t.Fatal("the reply of a stale entry was not received")
	}
	if got := block.Get(2, 2); got != b {
		t.Error("the stale reply's block did not reach the pool")
	}
}

// stepper drives one worker's interpreter by hand over a program without
// pardos or sync points, so a test can look at the worker between
// instructions.  Every distributed block is homed on a second worker, so
// each of its gets is remote; with serve set that worker answers them.
type stepper struct {
	w    *worker
	stop func()
}

func newStepper(t *testing.T, src string, cfg Config, serve bool) *stepper {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rt.ranks.workers = []int{2, 2}
	st := &stepper{w: newWorker(rt, 1), stop: rt.close}
	if serve {
		home := newWorker(rt, 2)
		done := make(chan struct{})
		go func() { defer close(done); home.serviceLoop() }()
		st.stop = func() {
			st.w.comm.Send(2, rt.tag(tagService), shutdownMsg{})
			<-done
			rt.close()
		}
	}
	return st
}

// run executes the program to its halt, calling each after every
// instruction.
func (st *stepper) run(t *testing.T, each func(w *worker, in *bytecode.Instr)) {
	t.Helper()
	w := st.w
	for code := w.rt.prog.Code; code[w.pc].Op != bytecode.OpHalt; {
		in := &code[w.pc]
		if err := w.exec(in); err != nil {
			t.Fatalf("pc %d (%s): %v", w.pc, in.Op, err)
		}
		each(w, in)
	}
}

// scanProgram gets every block of an n x n array once, in two nested do
// loops, and reads it.
const scanProgram = `
sial scan
param n = 6
aoindex L = 1, n
aoindex S = 1, n
distributed T(L,S)
temp t(L,S)
do L
  do S
    get T(L,S)
    t(L,S) = T(L,S)
  enddo S
enddo L
endsial
`

// TestLookAheadCap: whatever the window, blocks requested ahead and not
// yet asked for never exceed min(window, CacheBlocks/2), look-ahead alone
// never overflows the cache, and it fetches no block a run without it
// would not fetch — it only fetches them earlier.
func TestLookAheadCap(t *testing.T) {
	for _, cache := range []int{1, 2, 16} {
		fetches := map[int]int64{}
		for _, window := range []int{-1, 1, 4, 64} {
			t.Run(fmt.Sprintf("cache=%d/window=%d", cache, window), func(t *testing.T) {
				st := newStepper(t, scanProgram, Config{Seg: bytecode.DefaultSegConfig(1),
					CacheBlocks: cache, PrefetchWindow: window}, true)
				defer st.stop()
				limit := max(min(window, cache/2), 0)
				peak := 0
				st.run(t, func(w *worker, in *bytecode.Instr) {
					ahead := 0
					for e := w.cache.lru.next; e != &w.cache.lru; e = e.next {
						if e.ahead {
							ahead++
						}
					}
					if ahead != w.cache.nAhead || ahead > limit {
						t.Fatalf("pc %d: %d entries requested ahead (counter %d), cap %d", w.pc, ahead, w.cache.nAhead, limit)
					}
					if n := len(w.cache.entries); n > cache {
						t.Fatalf("pc %d: %d cached entries in a cache of %d", w.pc, n, cache)
					}
					peak = max(peak, ahead)
				})
				if peak != limit {
					t.Errorf("at most %d blocks were ever requested ahead, want the cap %d reached", peak, limit)
				}
				fetches[window] = st.w.prof.fetches
				if n := st.w.prof.prefetches; limit == 0 && n != 0 {
					t.Errorf("%d look-ahead fetches with look-ahead off", n)
				}
			})
		}
		for window, n := range fetches {
			if n != 36 {
				t.Errorf("cache=%d window=%d: %d fetches, want 36 (one per block)", cache, window, n)
			}
		}
	}
}

// TestLookAheadCrossesInnerLoops: the window slides from the end of one
// `do S` into the next `do L` iteration, so after the ramp-up no get of
// the scan waits for a block that was not requested ahead.
func TestLookAheadCrossesInnerLoops(t *testing.T) {
	st := newStepper(t, scanProgram, Config{Seg: bytecode.DefaultSegConfig(1),
		CacheBlocks: 16, PrefetchWindow: 4}, true)
	defer st.stop()
	st.run(t, func(w *worker, in *bytecode.Instr) {})
	if got := st.w.prof.prefetches; got != 35 {
		t.Errorf("%d of 36 blocks were requested ahead, want 35 (all but the first)", got)
	}
}

// TestLocateAndGetAllocateNothing pins the allocation-free paths: a
// whole-block locate, a get that finds its block cached, and look-ahead's
// own bookkeeping (a get that issues one look-ahead fetch allocates what a
// get that issues one demand fetch does).
func TestLocateAndGetAllocateNothing(t *testing.T) {
	const src = `
sial row
param n = 400
aoindex S = 1, n
distributed T(S)
do S
  get T(S)
enddo S
endsial
`
	perGet := map[int]float64{}
	for _, window := range []int{-1, 4} {
		st := newStepper(t, src, Config{Seg: bytecode.DefaultSegConfig(1), PrefetchWindow: window}, false)
		w := st.w
		for w.rt.prog.Code[w.pc].Op != bytecode.OpGet {
			if err := w.exec(&w.rt.prog.Code[w.pc]); err != nil {
				t.Fatal(err)
			}
		}
		get := &w.rt.prog.Code[w.pc]
		ref, loop := get.R[0], &w.frames[0]
		if err := w.doGet(ref); err != nil { // ramp-up: the window is in flight
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := w.locate(ref, &w.ops.dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("window %d: locate allocates %v times, want 0", window, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := w.doGet(ref); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("window %d: a get that hits the cache allocates %v times, want 0", window, n)
		}
		// Nobody answers, so every step issues exactly one fetch: the
		// demand fetch of the next block, or the look-ahead fetch of the
		// block four further on.
		before := w.prof.fetches
		perGet[window] = testing.AllocsPerRun(200, func() {
			loop.cur++
			w.bind(loop.idx, loop.cur)
			if err := w.doGet(ref); err != nil {
				t.Fatal(err)
			}
		})
		if got := w.prof.fetches - before; got != 201 { // AllocsPerRun warms up once
			t.Fatalf("window %d: %d fetches in 201 steps, want one each", window, got)
		}
		st.stop()
	}
	if perGet[4] != perGet[-1] {
		t.Errorf("a get with look-ahead allocates %v times per fetch, one without %v: look-ahead must add none",
			perGet[4], perGet[-1])
	}
}

// TestReplyTagWrapsInsideJobWindow: the reply-tag counter stays inside
// the job's window however many fetches a worker issues.
func TestReplyTagWrapsInsideJobWindow(t *testing.T) {
	st := newStepper(t, scanProgram, Config{}, false)
	defer st.stop()
	w := st.w
	w.nextReply = jobTagStride - tagReplyBase - 1
	last, wrapped := w.replyTag(), w.replyTag()
	if last != w.rt.tag(jobTagStride-1) || wrapped != w.rt.tag(tagReplyBase) {
		t.Errorf("reply tags %d, %d; want the window's last (%d) and then its first (%d)",
			last, wrapped, w.rt.tag(jobTagStride-1), w.rt.tag(tagReplyBase))
	}
}
