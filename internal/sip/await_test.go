package sip

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
)

// TestAwaitVerdict is the fault rule of every bounded wait in one table:
// who runs (the owner of the world or a tenant of a pool's) × whom the
// wait suspects × what happens while it waits.  Rank 0 waits on rank 1;
// ranks 2 and up are evictable bystanders whose eviction is the membership
// wake.
// Suspects named through src and through the suspects func (the shape of
// an ack drain) must get the same verdict.
func TestAwaitVerdict(t *testing.T) {
	const (
		waiter, debtor, bystander = 0, 1, 2
		ranks                     = 32
		tag                       = 7
		timeout                   = 2 * time.Millisecond
	)
	rows := []struct {
		tenant  bool
		suspect string // evictable, critical, none, evicted (before the wait)
		event   string // message (already delivered), wake, silence
		want    string // message, woke, evicted (and woke), failure (naming the debtor), timeout, waiting
	}{
		{false, "evictable", "message", "message"},
		{false, "evictable", "wake", "woke"},
		{false, "evictable", "silence", "evicted"},
		{false, "critical", "message", "message"},
		{false, "critical", "wake", "woke"},
		{false, "critical", "silence", "failure"},
		{false, "none", "message", "message"},
		{false, "none", "wake", "woke"},
		{false, "none", "silence", "timeout"},
		{false, "evicted", "message", "message"},
		{false, "evicted", "wake", "woke"},
		{false, "evicted", "silence", "woke"},
		{true, "evictable", "message", "message"},
		{true, "evictable", "wake", "woke"},
		{true, "evictable", "silence", "waiting"}, // a slow shared server stays in the pool for every tenant
		{true, "critical", "message", "message"},
		{true, "critical", "wake", "woke"},
		{true, "critical", "silence", "waiting"}, // a master parked by the fairness gate is not dead
		{true, "none", "message", "message"},
		{true, "none", "wake", "woke"},
		{true, "none", "silence", "waiting"},
		{true, "evicted", "message", "message"},
		{true, "evicted", "wake", "woke"},
		{true, "evicted", "silence", "woke"}, // at once, also with no deadline at all
	}
	for _, row := range rows {
		for _, viaFunc := range []bool{false, true} {
			if viaFunc && (row.suspect == "none" || row.suspect == "evicted") {
				continue // a caller's suspects func lists live debtors only
			}
			name := fmt.Sprintf("tenant=%v/%s/%s/func=%v", row.tenant, row.suspect, row.event, viaFunc)
			t.Run(name, func(t *testing.T) {
				world := mpi.NewWorld(ranks)
				if row.suspect == "critical" {
					world.SetRecover(waiter, debtor)
				} else {
					world.SetRecover(waiter)
				}
				rt := &runtime{world: world, cfg: Config{RecvTimeout: timeout}}
				if row.tenant {
					rt.cfg.RecvTimeout = 0 // Pool.runJob sets none
				}
				if row.event == "message" {
					world.Comm(debtor).Send(waiter, tag, "owed")
				}
				if row.suspect == "evicted" {
					world.Evict(debtor, "killed before the wait")
				}
				src, suspects := debtor, (func() []int)(nil)
				if row.suspect == "none" {
					src = mpi.AnySource
				} else if viaFunc {
					src, suspects = mpi.AnySource, func() []int { return []int{debtor} }
				}
				if row.event == "wake" {
					// A bystander dies every half timeout until the wait
					// returns, so one dies after the wait has begun.
					stop := make(chan struct{})
					defer close(stop)
					go func() {
						for r := bystander; r < ranks; r++ {
							select {
							case <-stop:
								return
							case <-time.After(timeout / 2):
								world.Evict(r, "bystander killed")
							}
						}
					}()
				}
				if row.want == "waiting" {
					// Far past the owner's verdict, the message comes after all.
					time.AfterFunc(4*awaitAttempts*timeout, func() { world.Comm(debtor).Send(waiter, tag, "late") })
				}

				msg, ok, err := rt.await(world.Comm(waiter), src, tag, tag, waitFor{what: "test message"}, suspects)

				var rf *mpi.RankFailure
				got := "woke"
				switch {
				case ok && msg.Data == "owed":
					got = "message"
				case ok && msg.Data == "late":
					got = "waiting"
				case errors.As(err, &rf):
					got = fmt.Sprintf("failure of rank %d", rf.Rank)
				case err != nil:
					got = "timeout"
				case row.suspect != "evicted" && world.IsEvicted(debtor):
					got = "evicted"
				}
				want := row.want
				if want == "failure" {
					want = fmt.Sprintf("failure of rank %d", debtor)
				}
				if got != want {
					t.Fatalf("await = %s (msg %v, ok %v, err %v), want %s", got, msg.Data, ok, err, want)
				}
				if want != "evicted" && row.suspect != "evicted" && world.IsEvicted(debtor) {
					t.Errorf("the debtor was evicted on the way to %q", got)
				}
				if world.Aborted() {
					t.Error("await aborted the world; failing it is the caller's business")
				}
			})
		}
	}
}

// TestAwaitFastPathAllocatesNothing: without a deadline a wait is a plain
// receive, recovering world or not — the closures inside await stay on the
// stack and the description is not formatted.
func TestAwaitFastPathAllocatesNothing(t *testing.T) {
	for _, recovering := range []bool{false, true} {
		world := mpi.NewWorld(2)
		if recovering {
			world.SetRecover(0)
		}
		rt := &runtime{world: world}
		c, debtor, key := world.Comm(0), world.Comm(1), blockKey{job: 1, arr: 2, ord: 3}
		if n := testing.AllocsPerRun(100, func() {
			debtor.Send(0, 7, nil)
			if _, ok, err := rt.await(c, 1, 7, 7, waitFor{what: "reply for block", key: &key}, nil); !ok || err != nil {
				t.Fatal(ok, err)
			}
		}); n != 0 {
			t.Errorf("recovering=%v: a wait allocates %v times, want 0", recovering, n)
		}
	}
}

// TestPoolJobFailsFastOnKilledHome: a pool job whose worker fetches a
// distributed block from a home that Pool.Kill evicted fails with a
// RankFailure naming that rank — at once, and without any RecvTimeout:
// the eviction itself wakes the fetch.
func TestPoolJobFailsFastOnKilledHome(t *testing.T) {
	const src = `
sial lost_home
param n = 4
aoindex I = 1, n
distributed T(I)
temp t(I)
temp h(I)
do I
  execute hold h(I)
  get T(I)
  t(I) = T(I)
enddo I
endsial
`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(PoolConfig{Workers: 2, Recover: true, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Both workers park in their first hold until the test has killed
	// rank 2; the survivor then gets the blocks rank 2 homed.
	parked, release := make(chan struct{}, 2), make(chan struct{})
	hold := func(*ExecCtx, []*block.Block, []*float64) error {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.RunJob(prog, Config{Seg: bytecode.DefaultSegConfig(1),
			Super: map[string]SuperFunc{"hold": hold}, Output: &bytes.Buffer{}})
		done <- err
	}()
	<-parked
	<-parked
	if err := p.Kill(2, "test kill"); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case err := <-done:
		var rf *mpi.RankFailure
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Fatalf("RunJob = %v, want a RankFailure naming rank 2", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the job is still waiting for a block of the killed rank")
	}
}

// TestCollect is the ledger rule of every wait for a known set of ranks to
// reply, in one table.  Rank 0 collects one reply each from ranks 2 and 3
// and two from rank 4; rank 1 owes nothing.  Each row queues its replies
// before the wait, in order, and may evict or answer late from a timer.
// An owner of the world waits RecvTimeout per attempt, a tenant forever.
func TestCollect(t *testing.T) {
	const (
		tag     = 7
		timeout = 2 * time.Millisecond
	)
	rows := []struct {
		name     string
		tenant   bool
		critical []int // besides rank 0, every rank is evictable
		queued   []int // replies delivered before the wait, by source
		evict    int   // a rank evicted before the wait (0: none)
		late     []int // replies delivered after 10 timeouts
		lateKill int   // a rank evicted after 10 timeouts (0: none)
		want     string
	}{
		{name: "every debt paid", queued: []int{2, 4, 3, 4}, want: "got [2 4 3 4]"},
		{name: "debtor evicted before paying", queued: []int{4, 2, 4}, evict: 3, want: "got [4 2 4], evicted [3]"},
		{name: "tenant's debtor evicted while waited on", tenant: true, queued: []int{4, 2, 4}, lateKill: 3,
			want: "got [4 2 4], evicted [3]"},
		{name: "reply from a rank owing nothing", queued: []int{1, 2, 3, 4, 4}, want: "got [2 3 4 4]"},
		{name: "second reply from a paid rank", queued: []int{2, 2, 3, 4, 4}, want: "got [2 3 4 4]"},
		{name: "silent evictable debtors evicted", queued: []int{4, 4}, want: "got [4 4], evicted [2 3]"},
		{name: "silent critical debtors blamed, lowest first", critical: []int{2, 3, 4}, queued: []int{4, 4},
			want: "got [4 4], failure of rank 2"},
		{name: "tenant waits out a slow debtor", tenant: true, critical: []int{2, 3, 4}, queued: []int{4, 2, 4},
			late: []int{3}, want: "got [4 2 4 3]"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			world := mpi.NewWorld(5)
			world.SetRecover(append([]int{0}, row.critical...)...)
			rt := &runtime{world: world, cfg: Config{RecvTimeout: timeout}}
			if row.tenant {
				rt.cfg.RecvTimeout = 0
			}
			for _, r := range row.queued {
				world.Comm(r).Send(0, tag, r)
			}
			if row.evict != 0 {
				world.Evict(row.evict, "killed before the wait")
			}
			if row.late != nil || row.lateKill != 0 {
				time.AfterFunc(10*timeout, func() {
					for _, r := range row.late {
						world.Comm(r).Send(0, tag, r)
					}
					if row.lateKill != 0 {
						world.Evict(row.lateKill, "killed during the wait")
					}
				})
			}

			debts := map[int]int{2: 1, 3: 1, 4: 2}
			var got []int
			err := rt.collect(world.Comm(0), tag, "test reply", debts, func(m mpi.Message) { got = append(got, m.Data.(int)) })

			res := fmt.Sprintf("got %v", got)
			if ev := world.Evicted(); len(ev) > 0 {
				var ranks []int
				for r := range ev {
					ranks = append(ranks, r)
				}
				slices.Sort(ranks)
				res += fmt.Sprintf(", evicted %v", ranks)
			}
			var rf *mpi.RankFailure
			if errors.As(err, &rf) {
				res += fmt.Sprintf(", failure of rank %d", rf.Rank)
			} else if err != nil {
				res += fmt.Sprintf(", error %v", err)
			}
			if res != row.want {
				t.Fatalf("collect: %s, want %s", res, row.want)
			}
			if err == nil && len(debts) != 0 {
				t.Errorf("collect returned with debts %v outstanding", debts)
			}
		})
	}

	// Without a deadline (a tenant, or a run without RecvTimeout; a
	// deadline's timer is the mailbox's) the ledger is all that a
	// collection of queued replies touches.
	t.Run("allocs", func(t *testing.T) {
		world := mpi.NewWorld(5)
		world.SetRecover(0)
		rt := &runtime{world: world}
		comms := []*mpi.Comm{world.Comm(0), world.Comm(1), world.Comm(2), world.Comm(3), world.Comm(4)}
		debts := map[int]int{}
		if n := testing.AllocsPerRun(100, func() {
			for r := 1; r < 5; r++ {
				debts[r] = 1
				comms[r].Send(0, tag, nil)
			}
			if err := rt.collect(comms[0], tag, "test reply", debts, nil); err != nil || len(debts) != 0 {
				t.Fatal(err, debts)
			}
		}); n != 0 {
			t.Errorf("a collection of queued replies allocates %v times, want 0", n)
		}
	})
}
