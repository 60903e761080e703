package mpi

import (
	"testing"
	"time"
)

// recoverWorlds builds router-backed distributed worlds with recovery
// enabled (rank 0 critical, like the SIP master).
func recoverWorlds(t *testing.T, n int) []*World {
	t.Helper()
	worlds := routerWorlds(t, n)
	for _, w := range worlds {
		w.SetRecover(0)
	}
	return worlds
}

// TestEvictSendsBecomeNoops: sends to an evicted rank must vanish
// silently instead of aborting the sender's world.
func TestEvictSendsBecomeNoops(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test")
	worlds[0].Comm(0).Send(2, 7, "into the void")
	if worlds[0].Aborted() {
		t.Fatal("send to evicted rank aborted the world")
	}
	if !worlds[0].IsEvicted(2) || worlds[0].IsEvicted(1) {
		t.Fatalf("evicted set wrong: %v", worlds[0].Evicted())
	}
}

// TestEvictPropagates: an eviction on one world must reach the other
// live worlds via evictNotice, and the evicted rank's own world must
// fail (it learns the survivors firewalled it).
func TestEvictPropagates(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test eviction")
	deadline := time.Now().Add(5 * time.Second)
	for !worlds[1].IsEvicted(2) {
		if time.Now().After(deadline) {
			t.Fatal("eviction never propagated to rank 1's world")
		}
		time.Sleep(time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if f := worlds[2].Failure(); f != nil {
			if f.Rank != 2 {
				t.Fatalf("evicted world blames rank %d, want 2: %v", f.Rank, f)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("evicted rank's own world never failed")
}

// TestEvictWakesRecvUntil: a receiver blocked on a rank that dies must
// wake with ok == false when the rank is evicted, not hang.
func TestEvictWakesRecvUntil(t *testing.T) {
	worlds := recoverWorlds(t, 2)
	done := make(chan bool, 1)
	go func() {
		_, ok := worlds[0].Comm(0).RecvRangeUntil(1, 9, 9, 0,
			func() bool { return worlds[0].IsEvicted(1) })
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	worlds[0].Evict(1, "test")
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvRangeUntil returned a message from a dead rank")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvRangeUntil still blocked after eviction")
	}
}

// TestEvictCriticalRankFails: evicting a critical rank must fall back
// to fail-fast, preserving PR 3 semantics for unsurvivable deaths.
func TestEvictCriticalRankFails(t *testing.T) {
	worlds := recoverWorlds(t, 2)
	worlds[1].Evict(0, "master died")
	if !worlds[1].Aborted() {
		t.Fatal("evicting the critical rank did not abort the world")
	}
	f := worlds[1].Failure()
	if f == nil || f.Rank != 0 {
		t.Fatalf("failure = %v, want rank 0", f)
	}
}

// TestEvictedSourceFirewalled: frames from an evicted rank — poison
// included — must never reach the survivors, so a zombie's teardown
// cannot abort the run it was evicted from.
func TestEvictedSourceFirewalled(t *testing.T) {
	worlds := recoverWorlds(t, 3)
	worlds[0].Evict(2, "test")
	worlds[2].Comm(2).Send(0, 7, "zombie data")
	worlds[2].Fail(2, "zombie teardown") // broadcasts poison frames
	time.Sleep(50 * time.Millisecond)
	if worlds[0].Aborted() {
		t.Fatal("zombie poison aborted a survivor")
	}
	if _, ok := worlds[0].Comm(0).TryRecv(2, 7); ok {
		t.Fatal("zombie data frame reached a survivor's mailbox")
	}
}
