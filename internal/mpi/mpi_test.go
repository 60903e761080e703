package mpi

import (
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		c := w.Comm(1)
		m := c.Recv(0, 7)
		if m.Data.(string) != "hello" || m.Source != 0 || m.Tag != 7 {
			t.Errorf("got %+v", m)
		}
		close(done)
	}()
	w.Comm(0).Send(1, 7, "hello")
	<-done
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3)
	c2 := w.Comm(2)
	w.Comm(0).Send(2, 1, "a")
	w.Comm(1).Send(2, 2, "b")
	w.Comm(0).Send(2, 2, "c")
	// Match by tag regardless of arrival order.
	if m := c2.Recv(AnySource, 2); m.Data.(string) != "b" {
		t.Fatalf("tag 2: got %v", m.Data)
	}
	// Match by source.
	if m := c2.Recv(0, AnyTag); m.Data.(string) != "a" {
		t.Fatalf("src 0: got %v", m.Data)
	}
	if m := c2.Recv(AnySource, AnyTag); m.Data.(string) != "c" {
		t.Fatalf("rest: got %v", m.Data)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	w := NewWorld(2)
	for i := 0; i < 100; i++ {
		w.Comm(0).Send(1, 5, i)
	}
	c := w.Comm(1)
	for i := 0; i < 100; i++ {
		if m := c.Recv(0, 5); m.Data.(int) != i {
			t.Fatalf("message %d out of order: got %v", i, m.Data)
		}
	}
}

func TestTryRecvAndProbe(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	if _, ok := c.TryRecv(AnySource, AnyTag); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
	w.Comm(0).Send(1, 3, 42)
	if _, ok := c.TryRecv(0, 4); ok {
		t.Fatal("TryRecv matched a queued message of another tag")
	}
	m, ok := c.TryRecv(0, 3)
	if !ok || m.Data.(int) != 42 {
		t.Fatalf("TryRecv missed the queued message: %v %v", m, ok)
	}
	if _, ok := c.TryRecv(0, 3); ok {
		t.Fatal("message not removed by TryRecv")
	}
}

func TestIrecvTestWait(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(1)
	req := c.Irecv(0, 9)
	if _, done := req.Test(); done {
		t.Fatal("request complete before send")
	}
	w.Comm(0).Send(1, 9, "x")
	// Test may need a moment in concurrent settings, but here the send
	// already completed synchronously.
	if _, done := req.Test(); !done {
		t.Fatal("request not complete after send")
	}
	if m, _ := req.Test(); m.Data.(string) != "x" {
		t.Fatalf("Test: %v", m.Data)
	}
	// A completed request keeps its message.
	if m, done := req.Test(); !done || m.Data.(string) != "x" {
		t.Fatalf("second Test: %v", m.Data)
	}
}

func TestIrecvWaitBlocks(t *testing.T) {
	w := NewWorld(2)
	req := w.Comm(1).Irecv(0, 1)
	got := make(chan Message, 1)
	// The request is completed by a receive on its source and tag, as a
	// worker completes a block fetch.
	go func() { got <- w.Comm(1).Recv(req.Source(), req.Tag()) }()
	select {
	case <-got:
		t.Fatal("Wait returned before send")
	case <-time.After(10 * time.Millisecond):
	}
	w.Comm(0).Send(1, 1, 5)
	select {
	case m := <-got:
		if m.Data.(int) != 5 {
			t.Fatalf("got %v", m.Data)
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after send")
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	const senders = 8
	const msgs = 200
	w := NewWorld(senders + 1)
	for s := 0; s < senders; s++ {
		go func(rank int) {
			c := w.Comm(rank)
			for i := 0; i < msgs; i++ {
				c.Send(senders, rank, i)
			}
		}(s)
	}
	c := w.Comm(senders)
	counts := make([]int, senders)
	for i := 0; i < senders*msgs; i++ {
		m := c.Recv(AnySource, AnyTag)
		if m.Data.(int) != counts[m.Source] {
			t.Fatalf("sender %d message out of order: got %v want %d", m.Source, m.Data, counts[m.Source])
		}
		counts[m.Source]++
	}
}

// TestPoisonReleasesBlockedMembers: on an in-process world Fail is the
// whole abort — every rank blocked in a receive panics ErrAborted, the
// first diagnosis is recorded, and later receives abort immediately.
func TestPoisonReleasesBlockedMembers(t *testing.T) {
	w := NewWorld(3)
	aborted := make(chan bool, 2)
	for rank := 1; rank <= 2; rank++ {
		go func() {
			defer func() { aborted <- recover() == ErrAborted }()
			w.Comm(rank).Recv(0, 7) // rank 0 never sends
		}()
	}
	time.Sleep(10 * time.Millisecond)
	w.Fail(0, "boom")
	w.Fail(0, "again") // idempotent: the first diagnosis wins
	for i := 0; i < 2; i++ {
		select {
		case ok := <-aborted:
			if !ok {
				t.Fatal("blocked rank did not panic with ErrAborted")
			}
		case <-time.After(time.Second):
			t.Fatal("poison did not release a blocked rank")
		}
	}
	if f := w.Failure(); f == nil || f.Rank != 0 || f.Reason != "boom" {
		t.Errorf("failure = %+v, want rank 0 %q", f, "boom")
	}
	defer func() {
		if recover() != ErrAborted {
			t.Error("post-poison receive did not abort")
		}
	}()
	w.Comm(1).TryRecv(0, 7)
}

func TestPanics(t *testing.T) {
	w := NewWorld(2)
	for _, fn := range []func(){
		func() { NewWorld(0) },
		func() { w.Comm(5) },
		func() { w.Comm(-1) },
		func() { w.Comm(0).Send(9, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
