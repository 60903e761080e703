package sip

import (
	"bytes"
	"errors"
	"fmt"
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
