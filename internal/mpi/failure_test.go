package mpi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)

	start := time.Now()
	if _, ok := c.RecvRangeUntil(0, 1, 1, 30*time.Millisecond, nil); ok {
		t.Fatal("RecvRangeUntil returned a message from an empty mailbox")
	}
	if d := time.Since(start); d < 25*time.Millisecond || d > 2*time.Second {
		t.Errorf("timeout fired after %v, want ~30ms", d)
	}

	// A message that is already queued is returned immediately.
	w.Comm(0).Send(1, 1, "hi")
	m, ok := c.RecvRangeUntil(0, 1, 1, time.Minute, nil)
	if !ok || m.Data != "hi" {
		t.Fatalf("RecvRangeUntil = %+v, %v", m, ok)
	}

	// A message arriving mid-wait completes the receive early.
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.Comm(0).Send(1, 2, "late")
	}()
	m, ok = c.RecvRangeUntil(0, 2, 2, 5*time.Second, nil)
	if !ok || m.Data != "late" {
		t.Fatalf("RecvRangeUntil = %+v, %v", m, ok)
	}
}

func TestRecvTimeoutAbortPanics(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.Abort()
	}()
	defer func() {
		if r := recover(); r != ErrAborted {
			t.Errorf("recovered %v, want ErrAborted", r)
		}
	}()
	c.RecvRangeUntil(0, 1, 1, time.Minute, nil)
	t.Error("RecvRangeUntil returned on an aborted world")
}

// TestRequestWaitTimeout: a bounded wait on a request's source and tag
// times out with no message, and the request stays pending and completes
// once the message lands.
func TestRequestWaitTimeout(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	req := c.Irecv(0, 7)
	if req.Source() != 0 || req.Tag() != 7 {
		t.Errorf("Source, Tag = %d, %d, want 0, 7", req.Source(), req.Tag())
	}
	if _, ok := c.RecvRangeUntil(req.Source(), req.Tag(), req.Tag(), 20*time.Millisecond, nil); ok {
		t.Fatal("the bounded wait completed with no message")
	}
	if _, done := req.Test(); done {
		t.Fatal("the request completed with no message")
	}
	w.Comm(0).Send(1, 7, 42)
	m, ok := req.Test()
	if !ok || m.Data != 42 {
		t.Fatalf("Test = %+v, %v", m, ok)
	}
}

// TestFailRecordsAndPropagates: Fail on one world aborts it with a
// diagnosis and carries the same diagnosis to the other worlds via
// poison frames.
func TestFailRecordsAndPropagates(t *testing.T) {
	transportCases(t, 2, func(t *testing.T, worlds []*World) {
		worlds[0].Fail(1, "boom")
		if !worlds[0].Aborted() {
			t.Error("Fail did not abort the failing world")
		}
		f := worlds[0].Failure()
		if f == nil || f.Rank != 1 || f.Reason != "boom" {
			t.Errorf("local failure = %+v", f)
		}
		if !strings.Contains(f.Error(), "rank 1") {
			t.Errorf("failure error %q does not name the rank", f.Error())
		}
		// The remote world learns the same diagnosis (async over TCP).
		deadline := time.Now().Add(5 * time.Second)
		for worlds[1].Failure() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		rf := worlds[1].Failure()
		if rf == nil || rf.Rank != 1 || rf.Reason != "boom" {
			t.Errorf("remote failure = %+v", rf)
		}
		if !worlds[1].Aborted() {
			t.Error("poison frame did not abort the remote world")
		}
	})
}

// TestLivenessDetectsSilentPeer: a rank whose endpoint goes silent
// (fault-injected kill, connections stay up) is detected by heartbeat
// liveness within the timeout, and the detecting world records a
// RankFailure naming it.
func TestLivenessDetectsSilentPeer(t *testing.T) {
	r := transport.NewRouter()
	e0 := r.Endpoint(0)
	e1 := r.Endpoint(1)
	e2 := r.Endpoint(2)
	// Rank 2 is killed from frame one: it neither sends nor receives.
	dead := transport.NewFault(e2, []int{2}, transport.FaultSpec{KillRank: 2}, nil)

	mk := func(rank int, tr transport.Transport) *World {
		w, err := NewDistributedWorld(3, []int{rank}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w
	}
	w0 := mk(0, e0)
	w1 := mk(1, e1)
	mk(2, dead)

	var mu sync.Mutex
	downs := map[int]string{}
	lv := func() Liveness {
		return Liveness{
			Interval: 10 * time.Millisecond,
			Timeout:  150 * time.Millisecond,
			OnDown: func(rank int, reason string) {
				mu.Lock()
				downs[rank] = reason
				mu.Unlock()
			},
		}
	}
	if err := w0.StartLiveness(lv()); err != nil {
		t.Fatal(err)
	}
	if err := w0.StartLiveness(lv()); err == nil {
		t.Error("second StartLiveness accepted")
	}
	if err := w1.StartLiveness(lv()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for (w0.Failure() == nil || w1.Failure() == nil) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i, w := range []*World{w0, w1} {
		f := w.Failure()
		if f == nil {
			t.Fatalf("world %d never diagnosed a failure", i)
		}
		if f.Rank != 2 {
			t.Errorf("world %d blamed rank %d (%s), want 2", i, f.Rank, f.Reason)
		}
		if !w.Aborted() {
			t.Errorf("world %d not aborted", i)
		}
	}
	// Detection happened within a small multiple of the timeout, not at
	// some unbounded later point.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("detection took %v", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := downs[2]; !ok {
		t.Errorf("OnDown hook never fired for rank 2: %v", downs)
	}
}

// TestLivenessQuietButAlivePeer: a rank that sends no application
// traffic but heartbeats must not be declared failed.
func TestLivenessQuietButAlivePeer(t *testing.T) {
	worlds := routerWorlds(t, 2)
	for _, w := range worlds {
		if err := w.StartLiveness(Liveness{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	time.Sleep(300 * time.Millisecond)
	for i, w := range worlds {
		if f := w.Failure(); f != nil {
			t.Errorf("world %d diagnosed %v despite live heartbeats", i, f)
		}
		if w.Aborted() {
			t.Errorf("world %d aborted", i)
		}
	}
}
