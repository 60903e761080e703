package mpi

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/mpi/transport"
)

// routerWorlds builds one distributed world per rank, all wired through
// an in-process Router (pointer-sharing transport).
func routerWorlds(t *testing.T, n int) []*World {
	t.Helper()
	r := transport.NewRouter()
	eps := make([]*transport.Local, n)
	for i := range eps {
		eps[i] = r.Endpoint(i)
	}
	worlds := make([]*World, n)
	for i := range worlds {
		w, err := NewDistributedWorld(n, []int{i}, eps[i])
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	return worlds
}

// tcpWorlds builds one distributed world per rank over TCP loopback.
func tcpWorlds(t *testing.T, n int) []*World {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	worlds := make([]*World, n)
	for i := range worlds {
		tr, err := transport.NewTCP(transport.TCPConfig{Rank: i, Addrs: addrs, Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewDistributedWorld(n, []int{i}, tr)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

// transportCases runs a subtest against both distributed transports.
func transportCases(t *testing.T, n int, fn func(t *testing.T, worlds []*World)) {
	t.Run("router", func(t *testing.T) { fn(t, routerWorlds(t, n)) })
	t.Run("tcp", func(t *testing.T) { fn(t, tcpWorlds(t, n)) })
}

func TestDistributedSendRecv(t *testing.T) {
	transportCases(t, 2, func(t *testing.T, worlds []*World) {
		done := make(chan Message, 1)
		go func() {
			done <- worlds[1].Comm(1).Recv(0, 7)
		}()
		b := block.New(2, 2)
		copy(b.Data(), []float64{1, 2, 3, 4})
		worlds[0].Comm(0).Send(1, 7, b)
		m := <-done
		if m.Source != 0 || m.Tag != 7 {
			t.Fatalf("message envelope: %+v", m)
		}
		got := m.Data.(*block.Block)
		if got.At(1, 1) != 4 {
			t.Fatalf("block data: %v", got.Data())
		}
	})
}

// TestPoisonWakesBlockedRecv pins the abort contract: the poison frame
// World.Fail broadcasts must wake a remote rank blocked in Recv (or
// waiting on a request) promptly on every transport, instead of leaving
// it deadlocked on a message that will never arrive — and every world
// records the diagnosis it carries.
func TestPoisonWakesBlockedRecv(t *testing.T) {
	transportCases(t, 2, func(t *testing.T, worlds []*World) {
		recvDone := make(chan error, 1)
		waitDone := make(chan error, 1)
		catch := func(ch chan error, fn func()) {
			defer func() {
				if r := recover(); r != nil {
					err, _ := r.(error)
					ch <- err
					return
				}
				ch <- nil
			}()
			fn()
		}
		go catch(recvDone, func() {
			worlds[1].Comm(1).Recv(0, 99) // never sent
		})
		go catch(waitDone, func() {
			req := worlds[1].Comm(1).Irecv(0, 98) // never sent
			worlds[1].Comm(1).RecvRangeUntil(req.Source(), req.Tag(), req.Tag(), 0, nil)
		})
		time.Sleep(10 * time.Millisecond) // let both receivers block

		worlds[0].Fail(0, "boom")

		for name, ch := range map[string]chan error{"Recv": recvDone, "Wait": waitDone} {
			select {
			case err := <-ch:
				if !errors.Is(err, ErrAborted) {
					t.Errorf("%s returned %v, want ErrAborted panic", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked after Fail", name)
			}
		}
		for rank, w := range worlds {
			if f := w.Failure(); f == nil || f.Rank != 0 || f.Reason != "boom" {
				t.Errorf("rank %d: failure = %+v, want rank 0 %q", rank, f, "boom")
			}
		}
	})
}

// TestPoisonWakesBlockedRecvLocalWorld covers the same contract on the
// default all-local world (the in-process fast path).
func TestPoisonWakesBlockedRecvLocalWorld(t *testing.T) {
	w := NewWorld(3)
	done := make(chan error, 1)
	go func() {
		defer func() {
			err, _ := recover().(error)
			done <- err
		}()
		w.Comm(2).Recv(0, 99) // never sent
		done <- nil
	}()
	time.Sleep(10 * time.Millisecond)

	w.Abort()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Recv returned %v, want ErrAborted panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after Abort")
	}
}

// TestPoisonDrainsQueuedMessages: abort must not eat messages that were
// already delivered — receivers drain matches first, then abort.
func TestPoisonDrainsQueuedMessages(t *testing.T) {
	w := NewWorld(2)
	w.Comm(0).Send(1, 5, "before")
	w.Abort()
	m := w.Comm(1).Recv(0, 5)
	if m.Data != "before" {
		t.Fatalf("queued message lost: %+v", m)
	}
	defer func() {
		if r := recover(); r != ErrAborted {
			t.Fatalf("second Recv: %v, want ErrAborted", r)
		}
	}()
	w.Comm(1).Recv(0, 5)
	t.Fatal("unreachable")
}

// TestSendOwnershipContract codifies the documented send contract under
// the race detector.
//
// In-process transports (the default world and the Router) share the
// payload pointer: the receiver takes ownership and the sender must not
// touch the data after Send.  The TCP transport serializes before Send
// returns, so the sender may reuse the payload immediately — and the
// receiver must observe the pre-mutation values.
func TestSendOwnershipContract(t *testing.T) {
	t.Run("local-ownership-transfer", func(t *testing.T) {
		w := NewWorld(2)
		b := block.New(4)
		b.Data()[0] = 1
		w.Comm(0).Send(1, 1, b)
		// Sender stops touching b here (the contract); the receiver is
		// now the only goroutine using it, so mutating is race-free.
		m := w.Comm(1).Recv(0, 1)
		got := m.Data.(*block.Block)
		if got != b {
			t.Fatal("in-process transport must share the pointer")
		}
		got.Data()[0] = 2
	})
	t.Run("tcp-copies", func(t *testing.T) {
		worlds := tcpWorlds(t, 2)
		received := make(chan *block.Block, 1)
		go func() {
			received <- worlds[1].Comm(1).Recv(0, 1).Data.(*block.Block)
		}()
		b := block.New(4)
		b.Data()[0] = 1
		worlds[0].Comm(0).Send(1, 1, b)
		// TCP serialized the payload synchronously: mutating now is
		// within the sender's rights and must not be visible remotely
		// (nor race with the receiver, which -race verifies).
		b.Data()[0] = 99
		got := <-received
		if got == b {
			t.Fatal("TCP transport must not share the pointer")
		}
		if got.Data()[0] != 1 {
			t.Fatalf("receiver saw post-send mutation: %v", got.Data())
		}
	})
}

// TestMulticastOwnershipContract codifies the Multicast contract on
// every transport class: the caller retains the payload, receivers that
// would share the sender's memory get clones, and a serializing
// transport copies by encoding — so mutating the original right after
// Multicast must never be visible to any receiver (-race verifies the
// absence of sharing).
func TestMulticastOwnershipContract(t *testing.T) {
	fanOut := func(t *testing.T, sender *Comm, recv func(rank int) *block.Block) {
		t.Helper()
		b := block.New(4)
		b.Data()[0] = 1
		sender.Multicast([]int{1, 2}, 5, b, func() any { return b.Clone() })
		// Caller retains ownership: this mutation must stay local.
		b.Data()[0] = 99
		for _, rank := range []int{1, 2} {
			got := recv(rank)
			if got == b {
				t.Fatalf("rank %d shares the sender's pointer", rank)
			}
			if got.Data()[0] != 1 {
				t.Fatalf("rank %d saw post-multicast mutation: %v", rank, got.Data())
			}
		}
	}
	t.Run("local", func(t *testing.T) {
		w := NewWorld(3)
		fanOut(t, w.Comm(0), func(rank int) *block.Block {
			return w.Comm(rank).Recv(0, 5).Data.(*block.Block)
		})
	})
	t.Run("router", func(t *testing.T) {
		worlds := routerWorlds(t, 3)
		fanOut(t, worlds[0].Comm(0), func(rank int) *block.Block {
			return worlds[rank].Comm(rank).Recv(0, 5).Data.(*block.Block)
		})
	})
	t.Run("tcp", func(t *testing.T) {
		worlds := tcpWorlds(t, 3)
		chans := make([]chan *block.Block, 3)
		for _, rank := range []int{1, 2} {
			rank := rank
			chans[rank] = make(chan *block.Block, 1)
			go func() {
				chans[rank] <- worlds[rank].Comm(rank).Recv(0, 5).Data.(*block.Block)
			}()
		}
		fanOut(t, worlds[0].Comm(0), func(rank int) *block.Block {
			return <-chans[rank]
		})
	})
}

// TestMulticastSkipsEvicted: the remote batch must exclude evicted
// ranks the same way Send no-ops on them, instead of resurrecting
// their connection.
func TestMulticastSkipsEvicted(t *testing.T) {
	worlds := tcpWorlds(t, 3)
	got := make(chan *block.Block, 1)
	go func() {
		got <- worlds[2].Comm(2).Recv(0, 5).Data.(*block.Block)
	}()
	worlds[0].Evict(1, "test")
	b := block.New(2)
	b.Data()[0] = 7
	worlds[0].Comm(0).Multicast([]int{1, 2}, 5, b, func() any { return b.Clone() })
	if v := (<-got).Data()[0]; v != 7 {
		t.Fatalf("surviving rank received %v, want 7", v)
	}
}
