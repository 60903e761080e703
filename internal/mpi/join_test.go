package mpi

import (
	"testing"
	"time"
)

// TestLatentSendsDropped: sends to a latent (not yet joined) rank must
// vanish silently, like sends to an evicted rank.
func TestLatentSendsDropped(t *testing.T) {
	w := NewWorld(3)
	w.SetLatent(2)
	w.Comm(0).Send(2, 7, "before join")
	if _, ok := w.Comm(2).TryRecv(0, 7); ok {
		t.Fatal("send to latent rank was delivered")
	}
	if w.Aborted() {
		t.Fatal("send to latent rank aborted the world")
	}
	if !w.IsLatent(2) || w.IsLatent(0) || w.IsLatent(1) {
		t.Fatalf("IsLatent = %v %v %v, want only rank 2", w.IsLatent(0), w.IsLatent(1), w.IsLatent(2))
	}
}

// TestJoinActivates: Join clears the latent mark, bumps the membership
// stamp, and subsequent sends are delivered.
func TestJoinActivates(t *testing.T) {
	w := NewWorld(3)
	w.SetLatent(2)
	stamp := w.EvictStamp()
	if !w.Join(2) {
		t.Fatal("Join(2) reported the rank was not latent")
	}
	if w.IsLatent(2) {
		t.Fatal("rank 2 still latent after Join")
	}
	if w.EvictStamp() == stamp {
		t.Fatal("Join did not bump the membership stamp")
	}
	if w.Join(2) {
		t.Fatal("second Join of an active rank succeeded")
	}
	w.Comm(0).Send(2, 7, "after join")
	if m := w.Comm(2).Recv(0, 7); m.Data != "after join" {
		t.Fatalf("joined rank received %v", m.Data)
	}
}

// TestJoinWakesRecvUntil: a receiver blocked with a membership-stamp
// cancel condition must wake when a rank joins, not hang until the
// next message.
func TestJoinWakesRecvUntil(t *testing.T) {
	w := NewWorld(2)
	w.SetLatent(1)
	stamp := w.EvictStamp()
	done := make(chan bool, 1)
	go func() {
		_, ok := w.Comm(0).RecvRangeUntil(1, 9, 9, 0,
			func() bool { return w.EvictStamp() != stamp })
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	w.Join(1)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvRangeUntil returned a message that was never sent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvRangeUntil still blocked after join")
	}
}

// TestJoinPropagates: a join on one distributed world must reach the
// other endpoints via joinNotice, so every world converges on the grown
// membership and delivers traffic to (and from) the newcomer.
func TestJoinPropagates(t *testing.T) {
	worlds := routerWorlds(t, 3)
	for _, w := range worlds {
		w.SetLatent(2)
	}
	worlds[0].Join(2)
	deadline := time.Now().Add(5 * time.Second)
	for worlds[1].IsLatent(2) || worlds[2].IsLatent(2) {
		if time.Now().After(deadline) {
			t.Fatalf("join never propagated: w1 latent=%v w2 latent=%v",
				worlds[1].IsLatent(2), worlds[2].IsLatent(2))
		}
		time.Sleep(time.Millisecond)
	}
	// Traffic now flows both ways through the joined rank.
	worlds[1].Comm(1).Send(2, 7, "hello")
	if m := worlds[2].Comm(2).Recv(1, 7); m.Data != "hello" {
		t.Fatalf("joined rank received %v", m.Data)
	}
	worlds[2].Comm(2).Send(1, 8, "ack")
	if m := worlds[1].Comm(1).Recv(2, 8); m.Data != "ack" {
		t.Fatalf("rank 1 received %v", m.Data)
	}
}

// TestJoinThenEvict: a joined rank is a full member — it can later be
// evicted like any other, and the membership stamp tracks both changes.
func TestJoinThenEvict(t *testing.T) {
	w := NewWorld(3)
	w.SetRecover(0)
	w.SetLatent(2)
	s0 := w.EvictStamp()
	w.Join(2)
	s1 := w.EvictStamp()
	if s1 == s0 {
		t.Fatal("join did not bump the stamp")
	}
	w.Evict(2, "test")
	if w.EvictStamp() == s1 {
		t.Fatal("evict did not bump the stamp")
	}
	if !w.IsEvicted(2) {
		t.Fatal("joined rank could not be evicted")
	}
}

// TestLatentLivenessIgnored: liveness must not declare a latent rank
// dead for being silent — only joined ranks are monitored.
func TestLatentLivenessIgnored(t *testing.T) {
	worlds := routerWorlds(t, 3)
	for _, w := range worlds {
		w.SetRecover(0)
		w.SetLatent(2)
	}
	if err := worlds[0].StartLiveness(Liveness{
		Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// Keep rank 1 "alive" from rank 0's view via its own heartbeats.
	if err := worlds[1].StartLiveness(Liveness{
		Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // several timeouts worth of silence
	if worlds[0].IsEvicted(2) {
		t.Fatalf("latent rank was evicted for silence: %v", worlds[0].Evicted())
	}
	if worlds[0].Aborted() {
		t.Fatal("latent silence aborted the world")
	}
}
