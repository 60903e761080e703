package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// recvQ collects delivered messages for assertions.
type recvQ struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs [][4]any // src, dst, tag, data
}

func newRecvQ() *recvQ {
	q := &recvQ{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *recvQ) handler(src, dst, tag int, data any) {
	q.mu.Lock()
	q.msgs = append(q.msgs, [4]any{src, dst, tag, data})
	q.mu.Unlock()
	q.cond.Broadcast()
}

// wait blocks until n messages arrived or the timeout elapses.
func (q *recvQ) wait(t *testing.T, n int) [][4]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	timer := time.AfterFunc(5*time.Second, q.cond.Broadcast)
	defer timer.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d messages", len(q.msgs), n)
		}
		q.cond.Wait()
	}
	return append([][4]any(nil), q.msgs...)
}

// tcpPair builds two connected TCP endpoints on loopback with pre-bound
// listeners (no port races).
func tcpPair(t *testing.T) (*TCP, *TCP, *recvQ, *recvQ) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	q0, q1 := newRecvQ(), newRecvQ()
	if err := t0.Start(q0.handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(q1.handler, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1, q0, q1
}

func TestTCPRoundTrip(t *testing.T) {
	t0, t1, q0, q1 := tcpPair(t)
	if err := t0.Send(0, 1, 7, "ping"); err != nil {
		t.Fatal(err)
	}
	if err := t0.Send(0, 1, 8, 3.5); err != nil {
		t.Fatal(err)
	}
	msgs := q1.wait(t, 2)
	if msgs[0] != [4]any{0, 1, 7, "ping"} {
		t.Errorf("first message: %v", msgs[0])
	}
	if msgs[1] != [4]any{0, 1, 8, 3.5} {
		t.Errorf("second message: %v", msgs[1])
	}
	if err := t1.Send(1, 0, 9, -42); err != nil {
		t.Fatal(err)
	}
	back := q0.wait(t, 1)
	if back[0] != [4]any{1, 0, 9, -42} {
		t.Errorf("reply: %v", back[0])
	}
}

func TestTCPSendOrderPreserved(t *testing.T) {
	t0, _, _, q1 := tcpPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := t0.Send(0, 1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	msgs := q1.wait(t, n)
	for i, m := range msgs {
		if m[3] != i {
			t.Fatalf("message %d carried %v", i, m[3])
		}
	}
}

// countObs counts observer callbacks.
type countObs struct {
	mu                                     sync.Mutex
	connects, accepts, retries, downs      int
	framesIn, framesOut, bytesIn, bytesOut int
}

func (o *countObs) OnConnect(peer, attempts int) {
	o.mu.Lock()
	o.connects++
	o.retries += attempts - 1
	o.mu.Unlock()
}
func (o *countObs) OnAccept(peer int) { o.mu.Lock(); o.accepts++; o.mu.Unlock() }
func (o *countObs) OnFrameSend(peer, bytes int) {
	o.mu.Lock()
	o.framesOut++
	o.bytesOut += bytes
	o.mu.Unlock()
}
func (o *countObs) OnFrameRecv(peer, bytes int) {
	o.mu.Lock()
	o.framesIn++
	o.bytesIn += bytes
	o.mu.Unlock()
}
func (o *countObs) OnPeerDown(peer int, err error) { o.mu.Lock(); o.downs++; o.mu.Unlock() }

func TestTCPDialRetryBackoff(t *testing.T) {
	// Reserve a port for rank 1 without listening on it yet, so rank
	// 0's first dials fail and the backoff loop runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), addr}
	obs := &countObs{}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, Listener: ln0,
		RetryBase: 10 * time.Millisecond, RetryDeadline: 10 * time.Second, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	q0 := newRecvQ()
	t0.Start(q0.handler, nil)
	defer t0.Close()
	if err := t0.Send(0, 1, 1, "early"); err != nil {
		t.Fatal(err)
	}

	// Bring rank 1 up after the first dials have failed.
	time.Sleep(60 * time.Millisecond)
	ln1, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not re-bind reserved port %s: %v", addr, err)
	}
	t1, err := NewTCP(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	q1 := newRecvQ()
	t1.Start(q1.handler, nil)
	defer t1.Close()

	msgs := q1.wait(t, 1)
	if msgs[0] != [4]any{0, 1, 1, "early"} {
		t.Fatalf("message after retry: %v", msgs[0])
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.connects != 1 || obs.retries == 0 {
		t.Errorf("connects = %d, retries = %d; want 1 connect after >= 1 retry", obs.connects, obs.retries)
	}
}

func TestTCPPeerDownReported(t *testing.T) {
	downCh := make(chan int, 1)
	ln0, _ := net.Listen("tcp", "127.0.0.1:0")
	ln1, _ := net.Listen("tcp", "127.0.0.1:0")
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, Listener: ln0,
		RetryBase: 10 * time.Millisecond, RetryDeadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	q0, q1 := newRecvQ(), newRecvQ()
	t0.Start(q0.handler, func(peer int, err error) {
		select {
		case downCh <- peer:
		default:
		}
	})
	t1.Start(q1.handler, nil)
	defer t0.Close()

	// Establish the 1 -> 0 connection, then kill rank 1 without a
	// clean protocol goodbye while rank 0 still expects traffic.
	if err := t1.Send(1, 0, 1, "hello"); err != nil {
		t.Fatal(err)
	}
	q0.wait(t, 1)
	t1.Close()

	// Rank 0's reader sees EOF, which is indistinguishable from a
	// clean close, so drive the outbound side too: the write loop hits
	// the dead listener and reports the peer down.
	t0.Send(0, 1, 2, "are you there")
	ln1.Close()
	select {
	case peer := <-downCh:
		if peer != 1 {
			t.Fatalf("peer down for %d, want 1", peer)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("peer down never reported")
	}
}

func TestTCPRejectsBadHandshake(t *testing.T) {
	ln0, _ := net.Listen("tcp", "127.0.0.1:0")
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{ln0.Addr().String()}, Listener: ln0})
	if err != nil {
		t.Fatal(err)
	}
	q0 := newRecvQ()
	t0.Start(q0.handler, nil)
	defer t0.Close()

	conn, err := net.Dial("tcp", ln0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A length-prefixed frame with the wrong magic.
	if err := writeFrame(conn, []byte("NOPE\x01\x00")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after bad handshake")
	}
	q0.mu.Lock()
	defer q0.mu.Unlock()
	if len(q0.msgs) != 0 {
		t.Fatalf("bad handshake delivered messages: %v", q0.msgs)
	}
}

func TestTCPFrameLimit(t *testing.T) {
	ln0, _ := net.Listen("tcp", "127.0.0.1:0")
	ln1, _ := net.Listen("tcp", "127.0.0.1:0")
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, Listener: ln0, MaxFrame: 64})
	if err != nil {
		t.Fatal(err)
	}
	q0 := newRecvQ()
	downCh := make(chan struct{}, 1)
	t0.Start(q0.handler, func(int, error) {
		select {
		case downCh <- struct{}{}:
		default:
		}
	})
	defer t0.Close()
	t1, err := NewTCP(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	t1.Start(newRecvQ().handler, nil)
	defer t1.Close()

	big := make([]byte, 200)
	if err := t1.Send(1, 0, 1, string(big)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("oversized frame was not rejected")
	}
}

func TestRouterDelivery(t *testing.T) {
	r := NewRouter()
	a := r.Endpoint(0)
	b := r.Endpoint(1, 2)
	qa, qb := newRecvQ(), newRecvQ()
	a.Start(qa.handler, nil)
	b.Start(qb.handler, nil)

	payload := &struct{ X int }{42} // routers share pointers: no codec needed
	if err := a.Send(0, 2, 5, payload); err != nil {
		t.Fatal(err)
	}
	msgs := qb.wait(t, 1)
	if msgs[0][3] != payload {
		t.Fatal("router did not share the payload pointer")
	}
	if err := a.Send(0, 3, 1, "x"); err == nil {
		t.Fatal("send to unowned rank succeeded")
	}

	// Closing an endpoint notifies the survivors of its ranks.
	var mu sync.Mutex
	var downs []int
	c := r.Endpoint(3)
	c.Start(func(int, int, int, any) {}, func(peer int, err error) {
		mu.Lock()
		downs = append(downs, peer)
		mu.Unlock()
	})
	b.Close()
	mu.Lock()
	got := append([]int(nil), downs...)
	mu.Unlock()
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("down ranks = %v, want [1 2]", got)
	}
}

// countedPayload counts its own wire encodes, so tests can prove a
// multicast serializes once however many destinations it reaches.
type countedPayload struct {
	Tag string
}

var countedEncodes atomic.Int64

func init() {
	wire.Register(200,
		func(e *wire.Encoder, p countedPayload) {
			countedEncodes.Add(1)
			e.String(p.Tag)
		},
		func(d *wire.Decoder) countedPayload { return countedPayload{Tag: d.String()} })
}

// tcpTrio builds three connected TCP endpoints on loopback.
func tcpTrio(t *testing.T) (*TCP, []*recvQ) {
	t.Helper()
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var t0 *TCP
	qs := make([]*recvQ, 3)
	for i := range lns {
		tr, err := NewTCP(TCPConfig{Rank: i, Addrs: addrs, Listener: lns[i]})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = newRecvQ()
		if err := tr.Start(qs[i].handler, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		if i == 0 {
			t0 = tr
		}
	}
	return t0, qs
}

// TestTCPSendMultiEncodesOnce pins the zero-copy fan-out: one multicast
// to two peers serializes the payload exactly once and delivers to
// both, with src/dst/tag attributed per destination.
func TestTCPSendMultiEncodesOnce(t *testing.T) {
	t0, qs := tcpTrio(t)
	before := countedEncodes.Load()
	if err := t0.SendMulti(0, []int{1, 2}, 7, countedPayload{Tag: "fanout"}); err != nil {
		t.Fatal(err)
	}
	if got := countedEncodes.Load() - before; got != 1 {
		t.Errorf("multicast to 2 peers encoded %d times, want 1", got)
	}
	m1 := qs[1].wait(t, 1)
	if m1[0] != [4]any{0, 1, 7, countedPayload{Tag: "fanout"}} {
		t.Errorf("peer 1 got %v", m1[0])
	}
	m2 := qs[2].wait(t, 1)
	if m2[0] != [4]any{0, 2, 7, countedPayload{Tag: "fanout"}} {
		t.Errorf("peer 2 got %v", m2[0])
	}
}

// TestTCPBatchedFrames checks that a backlog coalesces into fewer wire
// frames than messages while every message still arrives in order, and
// that the per-message observer counts are preserved.
func TestTCPBatchedFrames(t *testing.T) {
	ln0, _ := net.Listen("tcp", "127.0.0.1:0")
	ln1, _ := net.Listen("tcp", "127.0.0.1:0")
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	obs := &countObs{}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, Listener: ln0, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	t0.Start(newRecvQ().handler, nil)
	defer t0.Close()
	t1, err := NewTCP(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatal(err)
	}
	q1 := newRecvQ()
	t1.Start(q1.handler, nil)
	defer t1.Close()

	// Queue a burst before the connection finishes dialing: the writer
	// wakes to a deep queue and must coalesce it.
	const n = 200
	for i := 0; i < n; i++ {
		if err := t0.Send(0, 1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	msgs := q1.wait(t, n)
	for i, m := range msgs {
		if m[3] != i {
			t.Fatalf("message %d carried %v", i, m[3])
		}
	}
	// The writer reports a batch after its write returns, which can be
	// after the receiver has read it all.
	framesOut := func() int { obs.mu.Lock(); defer obs.mu.Unlock(); return obs.framesOut }
	for deadline := time.Now().Add(5 * time.Second); framesOut() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := framesOut(); got != n {
		t.Errorf("observer saw %d message sends, want %d (per-message granularity)", got, n)
	}
}

// TestFaultSendMultiPerDestination: the fault wrapper applies drop
// decisions per destination, not per multicast — with drop=1 nothing
// survives; with no faults every destination delivers through the
// inner multicast path.
func TestFaultSendMultiPerDestination(t *testing.T) {
	t0, qs := tcpTrio(t)
	var events []string
	var mu sync.Mutex
	f := NewFault(t0, []int{0}, FaultSpec{Seed: 1, Drop: 1, KillRank: -1},
		func(kind string, peer int) { mu.Lock(); events = append(events, kind); mu.Unlock() })
	if err := f.SendMulti(0, []int{1, 2}, 7, "doomed"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	drops := 0
	for _, e := range events {
		if e == FaultDrop {
			drops++
		}
	}
	mu.Unlock()
	if drops != 2 {
		t.Errorf("drop=1 multicast to 2 peers reported %d drops, want 2", drops)
	}

	clean := NewFault(t0, []int{0}, FaultSpec{Seed: 1, KillRank: -1}, nil)
	if MulticasterFor(clean) == nil {
		t.Fatal("fault over TCP must expose the multicast capability")
	}
	if err := clean.SendMulti(0, []int{1, 2}, 8, "alive"); err != nil {
		t.Fatal(err)
	}
	if m := qs[1].wait(t, 1); m[0] != [4]any{0, 1, 8, "alive"} {
		t.Errorf("peer 1 got %v", m[0])
	}
	if m := qs[2].wait(t, 1); m[0] != [4]any{0, 2, 8, "alive"} {
		t.Errorf("peer 2 got %v", m[0])
	}
}

// TestMulticasterForRouter: a pointer-sharing transport must not be
// offered the multicast capability, even through a fault wrapper.
func TestMulticasterForRouter(t *testing.T) {
	r := NewRouter()
	l := r.Endpoint(0)
	if MulticasterFor(l) != nil {
		t.Error("router endpoint claims multicast capability")
	}
	f := NewFault(l, []int{0}, FaultSpec{KillRank: -1}, nil)
	if MulticasterFor(f) != nil {
		t.Error("fault over router claims multicast capability")
	}
}

// TestTCPClosePromptMidBackoff: Close must not wait out a dial-retry
// backoff.  Before the close-signal channel, the writer goroutine slept
// in an uninterruptible time.Sleep(backoff), so Close blocked for up to
// RetryMax per unreachable peer.
func TestTCPClosePromptMidBackoff(t *testing.T) {
	// Reserve a port for rank 1 and close it again: dials are refused
	// instantly, so the writer spends its time in the backoff sleep.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t0, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{ln0.Addr().String(), addr}, Listener: ln0,
		RetryBase: 5 * time.Second, RetryMax: 5 * time.Second, RetryDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t0.Start(newRecvQ().handler, nil)
	if err := t0.Send(0, 1, 1, "doomed"); err != nil {
		t.Fatal(err)
	}

	// Let the first dial fail and the writer enter its 5s backoff.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := t0.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with a writer mid-backoff; want prompt return", d)
	}
}
