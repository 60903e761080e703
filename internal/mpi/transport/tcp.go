package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Wire protocol constants.  Every frame on a connection is a 4-byte
// big-endian payload length followed by the payload.  The first frame
// after connect is a handshake: the 4 magic bytes, a version byte, the
// dialer's rank as a zigzag varint, and the dialer's wall clock in unix
// µs as a zigzag varint — a coarse clock sample the observability plane
// uses to place ranks on one merged timeline.
//
// Since version 3 a message frame carries a *batch*: one or more
// messages back to back, each src, dst, and tag as zigzag varints
// followed by the wire-encoded payload (type id + body).  The writer
// coalesces whatever is queued for a peer — small acks, effect-seqs,
// heartbeats, observability reports — into one frame per writev, up to
// BatchBytes.  Version 2 framed exactly one message per frame; a v3
// reader would parse a v2 stream fine, but the version byte is bumped
// so mixed builds fail loudly at the handshake instead of subtly.
const (
	tcpMagic   = "SIPW"
	tcpVersion = 3
)

// TCPConfig parameterizes a TCP transport endpoint.
type TCPConfig struct {
	// Rank is the world rank this process plays.
	Rank int
	// Addrs maps every rank to its host:port.  Addrs[Rank] is this
	// process's listen address unless Listener is set.
	Addrs []string
	// Listener, when non-nil, is a pre-bound listener used instead of
	// listening on Addrs[Rank] (tests use it to avoid port races).
	Listener net.Listener

	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryBase is the first dial-retry backoff (default 25ms); it
	// doubles per attempt up to RetryMax (default 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryDeadline bounds the total time spent dialing one peer
	// (default 15s); past it the peer is reported down.
	RetryDeadline time.Duration
	// WriteTimeout bounds one frame write (default 30s).
	WriteTimeout time.Duration
	// MaxFrame bounds accepted frame payloads (default 1 GiB).
	MaxFrame int
	// BatchBytes caps how many queued message bytes the writer
	// coalesces into one frame (default 256 KiB, clamped to MaxFrame).
	// The first queued message is always taken whatever its size, so a
	// single block larger than the cap still moves.
	BatchBytes int

	// Observer receives connection metrics; nil disables them.
	Observer Observer
}

func (c *TCPConfig) fill() error {
	if c.Rank < 0 || c.Rank >= len(c.Addrs) {
		return fmt.Errorf("transport: rank %d out of range for %d addresses", c.Rank, len(c.Addrs))
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.RetryDeadline <= 0 {
		c.RetryDeadline = 15 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 1 << 30
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 256 << 10
	}
	if c.BatchBytes > c.MaxFrame {
		c.BatchBytes = c.MaxFrame
	}
	if c.Observer == nil {
		c.Observer = NopObserver{}
	}
	return nil
}

// TCP is the socket transport: length-prefixed batch frames over one
// lazily dialed connection per outbound peer, with dial retry and
// exponential backoff.  Payloads are serialized with internal/wire into
// pooled encoders before Send returns, so (unlike the in-process
// transports) senders may reuse the payload immediately; SendMulti
// serializes a payload once and shares the bytes across every
// destination's queue.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener

	handler Handler
	down    PeerDown

	mu    sync.Mutex
	peers map[int]*tcpPeer
	conns map[net.Conn]bool // inbound connections, for teardown

	closed   atomic.Bool
	closeCh  chan struct{} // closed by Close; interrupts dial backoffs
	writerWG sync.WaitGroup
	readerWG sync.WaitGroup

	clockMu  sync.Mutex
	clockOff map[int]int64 // peer clock − local clock, µs, from handshakes
}

var (
	_ Transport   = (*TCP)(nil)
	_ Multicaster = (*TCP)(nil)
)

// outMsg is one queued outbound message: a small pooled header encoder
// holding the src/dst/tag varints (and, for unicast sends, the payload
// too), plus an optional shared payload body that multicast sends
// refcount across several peers' queues.
type outMsg struct {
	head *wire.Encoder
	body *sharedBuf
}

func (m outMsg) size() int {
	n := m.head.Len()
	if m.body != nil {
		n += m.body.enc.Len()
	}
	return n
}

// release returns the message's encoders to the pool.  Called exactly
// once per queue entry: after the bytes hit the socket, or when the
// queue is discarded by fail().
func (m outMsg) release() {
	wire.PutEncoder(m.head)
	if m.body != nil {
		m.body.release()
	}
}

// sharedBuf is a refcounted pooled encoder: the payload of a multicast
// send, queued for several peers at once and released when the last
// writer is done with it.
type sharedBuf struct {
	enc  *wire.Encoder
	refs atomic.Int32
}

func (b *sharedBuf) release() {
	if b.refs.Add(-1) == 0 {
		wire.PutEncoder(b.enc)
	}
}

// tcpPeer is the outbound side of one peer connection: an unbounded
// message queue drained by a dedicated writer goroutine, so Send never
// blocks on the network (MPI eager-send semantics).
type tcpPeer struct {
	rank int
	mu   sync.Mutex
	cond *sync.Cond

	queue   []outMsg // pending messages are queue[head:]
	head    int
	depth   int
	closing bool
	failed  error
}

// NewTCP binds the endpoint's listener and returns the transport.
// Peers can connect as soon as NewTCP returns; inbound traffic is
// processed once Start installs the handler.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Rank], err)
		}
	}
	return &TCP{cfg: cfg, ln: ln, peers: map[int]*tcpPeer{},
		conns: map[net.Conn]bool{}, closeCh: make(chan struct{})}, nil
}

// Addr returns the listener's actual address (useful with ":0" ports).
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Start installs the receive handler and begins accepting connections.
func (t *TCP) Start(h Handler, down PeerDown) error {
	if t.handler != nil {
		return errors.New("transport: Start called twice")
	}
	t.handler = h
	t.down = down
	t.readerWG.Add(1)
	go t.acceptLoop()
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.readerWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.readerWG.Add(1)
		go t.readConn(conn)
	}
}

// readConn consumes one inbound connection: handshake, then frames.
// One scratch buffer is reused for every frame on the connection —
// safe because dispatch is synchronous and wire decoders copy, so no
// decoded value aliases the frame bytes.
func (t *TCP) readConn(conn net.Conn) {
	defer t.readerWG.Done()
	peer, err := t.readHandshake(conn)
	if err != nil {
		conn.Close()
		if !t.closed.Load() {
			t.cfg.Observer.OnPeerDown(-1, err)
		}
		return
	}
	t.cfg.Observer.OnAccept(peer)
	var scratch []byte
	dec := wire.NewDecoder(nil) // reused across frames, like scratch
	for {
		payload, err := readFrame(conn, t.cfg.MaxFrame, &scratch)
		if err != nil {
			conn.Close()
			if !t.closed.Load() && !errors.Is(err, io.EOF) {
				t.reportDown(peer, err)
			}
			return
		}
		dec.Reset(payload)
		if err := t.dispatch(peer, dec); err != nil {
			conn.Close()
			if !t.closed.Load() {
				t.reportDown(peer, err)
			}
			return
		}
	}
}

// reportDown forwards a connection failure to the observer and the
// world layer.
func (t *TCP) reportDown(peer int, err error) {
	t.cfg.Observer.OnPeerDown(peer, err)
	if t.down != nil {
		t.down(peer, err)
	}
}

func (t *TCP) readHandshake(conn net.Conn) (int, error) {
	payload, err := readFrame(conn, 64, nil)
	if err != nil {
		return -1, fmt.Errorf("transport: handshake: %w", err)
	}
	if len(payload) < len(tcpMagic)+1 || string(payload[:len(tcpMagic)]) != tcpMagic {
		return -1, fmt.Errorf("transport: bad handshake magic")
	}
	if v := payload[len(tcpMagic)]; v != tcpVersion {
		return -1, fmt.Errorf("transport: protocol version %d, want %d", v, tcpVersion)
	}
	d := wire.NewDecoder(payload[len(tcpMagic)+1:])
	rank := d.Int()
	if d.Err() != nil {
		return -1, fmt.Errorf("transport: handshake rank: %w", d.Err())
	}
	if d.Remaining() > 0 {
		sentUs := int64(d.Int())
		if d.Err() == nil {
			// One-way sample: the dialer stamped sentUs just before the
			// frame left, so (sentUs − now) underestimates the peer's
			// clock offset by the network delay.  Good enough to anchor
			// merged traces; the mpi layer refines it with ping-pong.
			t.noteClock(rank, sentUs-time.Now().UnixMicro())
		}
	}
	return rank, nil
}

// noteClock records a handshake clock-offset sample for a peer.  Only
// the first sample per peer is kept: reconnects do not overwrite an
// estimate the run may already be using.
func (t *TCP) noteClock(rank int, offsetUs int64) {
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	if t.clockOff == nil {
		t.clockOff = map[int]int64{}
	}
	if _, ok := t.clockOff[rank]; !ok {
		t.clockOff[rank] = offsetUs
	}
}

// ClockOffsets implements ClockSampler: it returns the handshake-derived
// estimate of each connected peer's clock offset (peer − local, µs).
func (t *TCP) ClockOffsets() map[int]int64 {
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	out := make(map[int]int64, len(t.clockOff))
	for r, off := range t.clockOff {
		out[r] = off
	}
	return out
}

// dispatch decodes one batch frame — one or more messages back to back
// — and hands each to the world layer.  The observer sees one
// OnFrameRecv per message (matching the per-message OnFrameSend), so
// net.* counters keep message granularity whatever the batching.
func (t *TCP) dispatch(peer int, d *wire.Decoder) error {
	for d.Remaining() > 0 {
		before := d.Remaining()
		src, dst, tag := d.Int(), d.Int(), d.Int()
		data := d.Any()
		if err := d.Err(); err != nil {
			return fmt.Errorf("transport: bad frame: %w", err)
		}
		t.cfg.Observer.OnFrameRecv(peer, before-d.Remaining())
		t.handler(src, dst, tag, data)
	}
	return nil
}

// Send serializes the payload into a pooled encoder and queues it for
// the peer's writer, dialing the connection lazily.  The payload is
// fully encoded before Send returns: the caller may mutate it
// afterwards.
func (t *TCP) Send(src, dst, tag int, data any) error {
	if t.closed.Load() {
		return errors.New("transport: closed")
	}
	e := wire.GetEncoder(wire.SizeHint(data, 64) + 16)
	e.Int(src)
	e.Int(dst)
	e.Int(tag)
	e.Any(data)
	return t.peer(dst).enqueue(outMsg{head: e})
}

// SendMulti implements Multicaster: the payload is serialized once into
// a shared pooled buffer and queued for every destination, so a replica
// fan-out pays one encode however many peers it reaches.  Per-peer
// enqueue failures are attributed with SendError; the remaining
// destinations still get the message.
func (t *TCP) SendMulti(src int, dsts []int, tag int, data any) error {
	if t.closed.Load() {
		return errors.New("transport: closed")
	}
	if len(dsts) == 0 {
		return nil
	}
	body := wire.GetEncoder(wire.SizeHint(data, 64))
	body.Any(data)
	shared := &sharedBuf{enc: body}
	shared.refs.Store(int32(len(dsts)))
	var firstErr error
	for _, dst := range dsts {
		h := wire.GetEncoder(16)
		h.Int(src)
		h.Int(dst)
		h.Int(tag)
		if err := t.peer(dst).enqueue(outMsg{head: h, body: shared}); err != nil && firstErr == nil {
			firstErr = &SendError{Rank: dst, Err: err}
		}
	}
	return firstErr
}

// QueueDepth returns the outbound backlog for dst in messages.
func (t *TCP) QueueDepth(dst int) int {
	t.mu.Lock()
	p := t.peers[dst]
	t.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth
}

func (t *TCP) peer(rank int) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[rank]
	if p == nil {
		p = &tcpPeer{rank: rank}
		p.cond = sync.NewCond(&p.mu)
		t.peers[rank] = p
		t.writerWG.Add(1)
		go t.writeLoop(p)
	}
	return p
}

func (p *tcpPeer) enqueue(m outMsg) error {
	p.mu.Lock()
	if p.failed != nil {
		err := p.failed
		p.mu.Unlock()
		m.release()
		return err
	}
	if p.closing {
		p.mu.Unlock()
		m.release()
		return errors.New("transport: peer connection closing")
	}
	p.queue = append(p.queue, m)
	p.depth = len(p.queue) - p.head
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

// nextBatch blocks until messages are queued or the peer is closing
// with an empty queue, then pops a prefix of the queue whose total size
// stays under maxBytes (always at least one message) into batch, whose
// capacity is reused across calls.
func (p *tcpPeer) nextBatch(maxBytes int, batch []outMsg) ([]outMsg, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head == len(p.queue) && !p.closing {
		p.cond.Wait()
	}
	if p.head == len(p.queue) {
		return nil, false
	}
	batch = batch[:0]
	total := 0
	for i := p.head; i < len(p.queue); i++ {
		m := p.queue[i]
		if i > p.head && total+m.size() > maxBytes {
			break
		}
		batch = append(batch, m)
		total += m.size()
	}
	// Zero the popped entries so the queue's backing array does not pin
	// pooled encoders after they are released, then pop by advancing
	// head — keeping the backing array so a steady stream of sends stops
	// reallocating the queue once it reaches its high-water capacity.
	for i := range batch {
		p.queue[p.head+i] = outMsg{}
	}
	p.head += len(batch)
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	p.depth = len(p.queue) - p.head
	return batch, true
}

// pending reports whether messages are still queued.
func (p *tcpPeer) pending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head < len(p.queue)
}

// fail latches a send error and discards (and releases) the backlog.
func (p *tcpPeer) fail(err error) {
	p.mu.Lock()
	p.failed = err
	q := p.queue[p.head:]
	p.queue = nil
	p.head = 0
	p.depth = 0
	p.mu.Unlock()
	for _, m := range q {
		m.release()
	}
	p.cond.Broadcast()
}

// writeLoop dials the peer with retry + exponential backoff, sends the
// handshake, and drains the message queue — one frame (and one writev)
// per batch, gathering the length prefix and every message's header and
// payload slices into a single net.Buffers write.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.writerWG.Done()
	conn, err := t.dialBackoff(p)
	if err != nil {
		p.fail(err)
		if !t.closed.Load() {
			t.reportDown(p.rank, err)
		}
		return
	}
	defer conn.Close()
	var (
		batch []outMsg
		iov   [][]byte
		bufs  net.Buffers // hoisted: its address escapes into WriteTo
		hdr   [4]byte
	)
	abort := func(err error) {
		for _, m := range batch {
			m.release()
		}
		p.fail(err)
		if !t.closed.Load() {
			t.reportDown(p.rank, err)
		}
	}
	for {
		var ok bool
		batch, ok = p.nextBatch(t.cfg.BatchBytes, batch)
		if !ok {
			return // clean close, queue drained
		}
		total := 0
		iov = append(iov[:0], hdr[:])
		for _, m := range batch {
			total += m.size()
			iov = append(iov, m.head.Bytes())
			if m.body != nil {
				iov = append(iov, m.body.enc.Bytes())
			}
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(total))
		// A deadline that cannot be armed would leave the write
		// unbounded against a wedged peer: fail the peer, attributed.
		if err := conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)); err != nil {
			abort(fmt.Errorf("transport: arm write deadline for rank %d: %w", p.rank, err))
			return
		}
		// WriteTo consumes the slice header it is given; iov keeps the
		// original, so its backing array is reusable next batch.
		bufs = net.Buffers(iov)
		if _, err := bufs.WriteTo(conn); err != nil {
			abort(err)
			return
		}
		for _, m := range batch {
			t.cfg.Observer.OnFrameSend(p.rank, m.size())
			m.release()
		}
	}
}

// dialBackoff establishes the outbound connection to p, retrying with
// exponential backoff until RetryDeadline, and sends the handshake.
func (t *TCP) dialBackoff(p *tcpPeer) (net.Conn, error) {
	if p.rank < 0 || p.rank >= len(t.cfg.Addrs) {
		return nil, fmt.Errorf("transport: no address for rank %d", p.rank)
	}
	addr := t.cfg.Addrs[p.rank]
	deadline := time.Now().Add(t.cfg.RetryDeadline)
	backoff := t.cfg.RetryBase
	var lastErr error
	for attempt := 1; ; attempt++ {
		// After Close, a pending backlog earns exactly one more dial
		// attempt (flush-if-reachable); without one there is nothing left
		// to deliver and the writer stops immediately.  Either way Close
		// is never held hostage by the retry schedule.
		closing := t.closed.Load()
		if closing && !p.pending() {
			return nil, errors.New("transport: closed")
		}
		conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
		if err == nil {
			e := wire.GetEncoder(32)
			e.Byte(tcpMagic[0])
			e.Byte(tcpMagic[1])
			e.Byte(tcpMagic[2])
			e.Byte(tcpMagic[3])
			e.Byte(tcpVersion)
			e.Int(t.cfg.Rank)
			e.Int(int(time.Now().UnixMicro()))
			err := conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
			if err == nil {
				err = writeFrame(conn, e.Bytes())
			}
			wire.PutEncoder(e)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("transport: handshake to rank %d: %w", p.rank, err)
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			t.cfg.Observer.OnConnect(p.rank, attempt)
			return conn, nil
		}
		lastErr = err
		if closing {
			return nil, fmt.Errorf("transport: dial rank %d (%s) abandoned at close: %w",
				p.rank, addr, lastErr)
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("transport: dial rank %d (%s) after %d attempts: %w",
				p.rank, addr, attempt, lastErr)
		}
		// Sleep the backoff, but let Close interrupt it: an
		// uninterruptible time.Sleep here held Close hostage for up to
		// RetryMax per peer.
		select {
		case <-t.closeCh:
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > t.cfg.RetryMax {
			backoff = t.cfg.RetryMax
		}
	}
}

// Close flushes queued outbound frames, then tears all connections
// down.  Peer failures observed during and after Close are not
// reported.
func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.closeCh) // wake writers sleeping in a dial backoff
	// Stop outbound writers after their queues drain (writers have write
	// deadlines, so this terminates even against a dead peer).
	t.mu.Lock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.closing = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	t.writerWG.Wait()
	// Now stop inbound traffic.
	t.ln.Close()
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.readerWG.Wait()
	return nil
}

// writeFrame writes one length-prefixed frame as a single gathered
// write (writev), so header and payload never split into two packets
// or two syscalls.
func writeFrame(conn net.Conn, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// readFrame reads one length-prefixed frame.  With a non-nil scratch,
// the length prefix and then the payload are read into (and the payload
// aliases) the scratch buffer, which grows to the largest frame seen;
// callers reuse it across frames and must consume the payload before the
// next call, which then allocates nothing.
func readFrame(conn net.Conn, maxFrame int, scratch *[]byte) ([]byte, error) {
	if scratch == nil {
		scratch = new([]byte)
	}
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 4)
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
