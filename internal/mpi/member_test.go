package mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// closeAll closes the worlds when the test ends (routerWorlds leaves
// them open; a second Close is a no-op).
func closeAll(t *testing.T, worlds []*World) {
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
}

// TestNoticeForUnknownRankDropped: a frame from, or naming, a rank
// outside [0, n) must not reach the member table — no phantom eviction,
// no stamp bump, no abort blaming the phantom, no index panic on the
// transport's reader — in a recovering world and in one that is not.
func TestNoticeForUnknownRankDropped(t *testing.T) {
	frames := []struct {
		src  int
		data any
	}{
		{1, evictNotice{Rank: 99, Reason: "phantom"}},
		{1, evictNotice{Rank: -5, Reason: "phantom"}},
		{1, joinNotice{Rank: 99}},
		{1, joinNotice{Rank: -5}},
		{1, byeNotice{Ranks: []int{99, -5}}},
		{1, heartbeatMsg{Ranks: []int{99, -5}}},
		{99, "data from a phantom"},
		{-5, heartbeatMsg{Ranks: []int{1}}},
	}
	for _, recovering := range []bool{true, false} {
		t.Run(fmt.Sprintf("recover=%v", recovering), func(t *testing.T) {
			worlds := routerWorlds(t, 3)
			closeAll(t, worlds)
			w := worlds[0]
			if recovering {
				w.SetRecover(0)
			}
			if err := w.StartLiveness(Liveness{Interval: time.Hour}); err != nil {
				t.Fatal(err)
			}
			stamp := w.EvictStamp()
			for _, f := range frames {
				w.deliver(f.src, 0, controlTag, f.data)
			}
			if ev := w.Evicted(); ev != nil {
				t.Errorf("Evicted() = %v, want none", ev)
			}
			if got := w.EvictStamp(); got != stamp {
				t.Errorf("EvictStamp %d -> %d, want unchanged", stamp, got)
			}
			if w.Aborted() || w.Failure() != nil {
				t.Errorf("world aborted (%v) with failure %v", w.Aborted(), w.Failure())
			}
			if _, ok := w.Comm(0).TryRecv(AnySource, AnyTag); ok {
				t.Error("a phantom's frame reached a mailbox")
			}
			for r := 1; r < 3; r++ {
				if s := w.ranks[r].state.Load(); s != active {
					t.Errorf("rank %d state %d, want active", r, s)
				}
			}
		})
	}
}

// TestPoisonFromUnknownRankAborts: the range guard keeps a phantom out of
// the table only; a poison frame naming one still aborts the world.
func TestPoisonFromUnknownRankAborts(t *testing.T) {
	worlds := routerWorlds(t, 2)
	closeAll(t, worlds)
	worlds[0].deliver(1, 0, controlTag, poisonMsg{Rank: 99, Reason: "boom"})
	if !worlds[0].Aborted() {
		t.Fatal("poison naming an unknown rank did not abort the world")
	}
}

// TestDeliverAllocsNothing: with liveness on, delivering a heartbeat and
// a data frame (which a receive then drains) allocates nothing: the
// last-heard times are stores into the member table.
func TestDeliverAllocsNothing(t *testing.T) {
	worlds := routerWorlds(t, 3)
	closeAll(t, worlds)
	w := worlds[0]
	if err := w.StartLiveness(Liveness{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	var hb, data any = heartbeatMsg{Ranks: []int{1, 2}}, "payload"
	c := w.Comm(0)
	allocs := testing.AllocsPerRun(200, func() {
		w.deliver(1, 0, heartbeatTag, hb)
		w.deliver(2, 0, 7, data)
		c.TryRecv(2, 7)
	})
	if allocs != 0 {
		t.Fatalf("deliver allocated %.2f times per frame pair, want 0", allocs)
	}
	if w.ranks[1].heard.Load() == 0 || w.ranks[2].heard.Load() == 0 {
		t.Fatal("deliver did not record when it heard ranks 1 and 2")
	}
}

// TestMembershipConcurrent drives every transition of the member table at
// once — sends and multicasts to every rank, Evict, Join, clean
// departures (byeNotice through deliver), clock sync and liveness — and
// then checks the one table: each rank in the state its last allowed
// transition says, Evicted() holding exactly the evicted ranks with their
// first reasons, and the stamp counting every eviction and join.
func TestMembershipConcurrent(t *testing.T) {
	// What happens to each rank of world 0 (rank 0 is its own, critical):
	//   1 evicted; 2 latent, joined; 3 latent, joined and evicted;
	//   4 departed; 5 departed and evicted; 6 latent, left latent.
	const n = 7
	want := [n]int32{active, evicted, active, evicted, departed, evicted, latent}
	transportCases(t, n, func(t *testing.T, worlds []*World) {
		closeAll(t, worlds)
		for _, w := range worlds {
			w.SetRecover(0)
			w.SetLatent(2, 3, 6)
		}
		for _, w := range worlds {
			if err := w.StartLiveness(Liveness{Interval: 2 * time.Millisecond, Timeout: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		w := worlds[0]
		stamp := w.EvictStamp()
		var (
			wg      sync.WaitGroup
			joinsMu sync.Mutex
			joins   int
		)
		start := make(chan struct{}) // released at once, so the writers overlap
		run := func(k int, fn func(g int)) {
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					fn(g)
				}()
			}
		}
		all := []int{0, 1, 2, 3, 4, 5, 6}
		run(2, func(int) {
			for i := 0; i < 200; i++ {
				for _, dst := range all {
					w.Comm(0).Send(dst, 5, i)
				}
				w.Comm(0).Multicast(all, 6, i, nil)
			}
		})
		run(4, func(g int) {
			for _, r := range []int{1, 3, 5} {
				w.Evict(r, fmt.Sprintf("evictor %d", g))
			}
		})
		run(4, func(int) {
			for _, r := range []int{2, 3} {
				if w.Join(r) {
					joinsMu.Lock()
					joins++
					joinsMu.Unlock()
				}
			}
		})
		run(4, func(g int) { w.deliver(4+g%2, 0, controlTag, byeNotice{Ranks: []int{4 + g%2}}) })
		run(1, func(int) { w.SyncClocks(3, time.Millisecond) })
		// A reason, once seen, never changes: the first eviction wins.
		seen := map[int]string{}
		done := make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for {
				for r, reason := range w.Evicted() {
					if old, ok := seen[r]; ok && old != reason {
						t.Errorf("rank %d: reason changed %q -> %q", r, old, reason)
					}
					seen[r] = reason
				}
				select {
				case <-done:
					return
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
		close(start)
		wg.Wait()
		close(done)
		watcher.Wait()

		for r := range want {
			if s := w.ranks[r].state.Load(); s != want[r] {
				t.Errorf("rank %d: state %d, want %d", r, s, want[r])
			}
		}
		ev := w.Evicted()
		if len(ev) != 3 {
			t.Errorf("Evicted() = %v, want ranks 1, 3 and 5", ev)
		}
		for _, r := range []int{1, 3, 5} {
			reason, ok := ev[r]
			var g int
			if _, err := fmt.Sscanf(reason, "evictor %d", &g); !ok || err != nil {
				t.Errorf("rank %d: reason %q is none of the evictors'", r, reason)
			}
			if old, ok := seen[r]; ok && old != reason {
				t.Errorf("rank %d: reason %q, first seen %q", r, reason, old)
			}
		}
		if got := w.EvictStamp() - stamp; got != uint64(len(ev)+joins) {
			t.Errorf("stamp moved %d, want %d evictions + %d joins", got, len(ev), joins)
		}
		if joins < 1 || joins > 2 {
			t.Errorf("%d joins, want rank 2's and at most rank 3's", joins)
		}
		if w.Aborted() || w.Failure() != nil {
			t.Errorf("world 0 aborted (%v), failure %v", w.Aborted(), w.Failure())
		}
	})
}
