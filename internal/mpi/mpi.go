// Package mpi provides an in-process message-passing layer with MPI-like
// semantics: ranks and tagged asynchronous point-to-point messages with
// source/tag matching and wildcards.
//
// The SIP runtime (paper §V) is written against MPI; this package is the
// substitution that lets the whole runtime — block protocol, prefetching,
// communication/computation overlap — run unchanged inside one Go
// process, with each MPI process played by a goroutine.  Semantics follow
// MPI where it matters to the SIP:
//
//   - Sends are buffered and never block (MPI_Isend with an eager
//     protocol).  The receiver takes ownership of the payload; senders
//     must not mutate data after sending.
//   - Receives match on (source, tag), either exact or the AnySource /
//     AnyTag wildcards, and preserve per-sender FIFO order among
//     matching messages.
//
// There are no collectives: every SIP barrier and reduction is a sync
// round mediated by the master over point-to-point messages.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi/transport"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message is a received message.
type Message struct {
	Source int
	Tag    int
	Data   any

	valid bool // set when the message was actually dequeued
}

// Observer receives message-level instrumentation callbacks.  Methods
// are invoked synchronously on the sender's goroutine and must be
// cheap and concurrency-safe.
type Observer interface {
	// OnSend is called after a message is enqueued.  depth is the
	// destination mailbox's queue length right after the enqueue (the
	// send-side view of backlog: its maximum is the high-water mark of
	// the receiver's inbox).
	OnSend(src, dst, tag int, data any, depth int)
}

// World is a set of communicating ranks.  The default world created by
// NewWorld hosts every rank in-process; NewDistributedWorld hosts a
// subset of the ranks and reaches the rest through a Transport.
type World struct {
	n       int
	ranks   []member // one record per rank, indexed by rank
	local   []int    // locally hosted ranks, in rank order
	obs     Observer
	tr      transport.Transport
	closed  atomic.Bool
	aborted atomic.Bool
	live    atomic.Pointer[liveness]

	// evictGen counts membership changes (evictions and joins) so waiters
	// can detect them without a lock.
	evictGen atomic.Uint64

	// memberMu guards the failure diagnosis and every member's reason and
	// clock sample.
	memberMu sync.Mutex
	failure  *RankFailure
}

// Rank states, in the one order a rank moves through them: a latent rank
// (SetLatent) becomes active when it joins, and an active one ends
// departed (its world announced a clean shutdown) or evicted.  A rank
// only ever moves to a later state, so eviction is final.  Ranks start
// active, the zero value.
const (
	latent int32 = iota - 1
	active
	departed
	evicted
)

// member is one rank's record in its world.
type member struct {
	box       *mailbox     // nil for a remote rank
	state     atomic.Int32 // latent, active, departed or evicted
	evictable atomic.Bool  // SetRecover: this rank's death can be survived
	heard     atomic.Int64 // unix ns the rank was last heard, while liveness runs

	// Under World.memberMu.
	reason string      // why the rank was evicted
	clock  clockSample // the lowest-RTT ping-pong sample
}

// advance moves the rank to a later state and reports whether it did.
func (m *member) advance(to int32) bool {
	for {
		cur := m.state.Load()
		if cur >= to {
			return false
		}
		if m.state.CompareAndSwap(cur, to) {
			return true
		}
	}
}

// known reports whether rank names a rank of the world: a frame naming
// any other is dropped before it reaches the table.
func (w *World) known(rank int) bool { return rank >= 0 && rank < w.n }

// SetObserver installs a message observer.  It must be called before
// any rank starts communicating.
func (w *World) SetObserver(o Observer) { w.obs = o }

// NewWorld creates a world with n ranks numbered 0..n-1.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", n))
	}
	w := &World{n: n, ranks: make([]member, n)}
	for i := range w.ranks {
		w.ranks[i].box = newMailbox()
		w.local = append(w.local, i)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Comm returns the communication endpoint for one rank.  Each rank's
// Comm must be used by a single goroutine at a time for receives;
// sends are safe from any goroutine.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.n))
	}
	return &Comm{world: w, rank: rank}
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// Send delivers data to dst with the given tag.  It never blocks
// (buffered, eager).
//
// Ownership of data depends on the transport: the in-process fast path
// and the Router transport hand the receiver the same pointer, so the
// sender must not mutate data after sending; the TCP transport
// serializes data before Send returns, so the sender may reuse it.
// Code that must run on either transport follows the stricter
// in-process contract, or sends with Multicast, which tells it which
// happened.
func (c *Comm) Send(dst, tag int, data any) {
	if dst < 0 || dst >= c.world.n {
		panic(fmt.Sprintf("mpi: send to rank %d out of range [0,%d)", dst, c.world.n))
	}
	w := c.world
	m := &w.ranks[dst]
	if m.state.Load() != active {
		// The rank is gone (evicted, or cleanly shut down after finishing
		// its part of the protocol) or not yet active (latent); nothing is
		// listening.  Dropping the send here keeps every protocol layer
		// free of per-send liveness checks (the matching receive side
		// uses RecvRangeUntil).
		return
	}
	depth := -1 // remote sends have no mailbox-depth view
	if box := m.box; box != nil {
		depth = box.put(Message{Source: c.rank, Tag: tag, Data: data})
	} else if err := w.tr.Send(c.rank, dst, tag, data); err != nil {
		// The connection is gone: abort locally instead of hanging on
		// replies that can never arrive, recording the unreachable rank
		// so the abort is attributed.  (During clean teardown the closed
		// flag suppresses the abort.)
		if !w.closed.Load() {
			w.recordFailure(dst, fmt.Sprintf("send failed: %v", err))
			w.Abort()
		}
	}
	if o := w.obs; o != nil {
		o.OnSend(c.rank, dst, tag, data, depth)
	}
}

// Multicast delivers one payload to every rank in dsts under one tag.
// Unlike Send, the CALLER retains ownership of data: every receiver
// that would share memory with the sender — local mailboxes, and
// remote ranks behind a pointer-sharing transport — gets clone()
// instead, while serializing transports encode data before Multicast
// returns, once however many remote ranks share the bytes.  So a
// replica fan-out over TCP costs one encode and zero clones (and, to
// one rank, no allocation); the same call over the in-process paths
// costs one clone per receiver.
//
// clone runs once per sharing receiver, so it also tells the caller
// what became of data: sending to one rank, a caller may hand data
// itself over from clone, and still owns it if clone never ran.  clone
// may be nil when the payload is immutable: every receiver then shares
// data itself.  Evicted, departed, and latent ranks are skipped exactly
// as in Send, and a transport failure aborts the world attributed to
// the failing destination.
func (c *Comm) Multicast(dsts []int, tag int, data any, clone func() any) {
	w := c.world
	var mc transport.Multicaster
	if w.tr != nil {
		mc = transport.MulticasterFor(w.tr)
	}
	lone := -1       // the first live remote rank
	var remote []int // the others, in dsts order
	for _, dst := range dsts {
		if dst < 0 || dst >= w.n {
			panic(fmt.Sprintf("mpi: multicast to rank %d out of range [0,%d)", dst, w.n))
		}
		switch {
		case mc == nil || w.ranks[dst].box != nil:
			if clone != nil {
				c.Send(dst, tag, clone())
			} else {
				c.Send(dst, tag, data)
			}
		case w.ranks[dst].state.Load() != active: // gone, as in Send
		case lone < 0:
			lone = dst
		default:
			remote = append(remote, dst)
		}
	}
	if remote == nil {
		if lone >= 0 {
			c.Send(lone, tag, data) // encoded before Send returns
		}
		return
	}
	remote = slices.Insert(remote, 0, lone)
	if err := mc.SendMulti(c.rank, remote, tag, data); err != nil {
		if !w.closed.Load() {
			rank := remote[0]
			var se *transport.SendError
			if errors.As(err, &se) {
				rank = se.Rank
			}
			w.recordFailure(rank, fmt.Sprintf("send failed: %v", err))
			w.Abort()
		}
	}
	if o := w.obs; o != nil {
		for _, dst := range remote {
			o.OnSend(c.rank, dst, tag, data, -1)
		}
	}
}

// box returns this rank's mailbox, which must be hosted locally.
func (c *Comm) box() *mailbox {
	b := c.world.ranks[c.rank].box
	if b == nil {
		panic(fmt.Sprintf("mpi: rank %d is not hosted by this world", c.rank))
	}
	return b
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// Use AnySource / AnyTag as wildcards.  On an aborted world it drains
// already-delivered matching messages, then panics with ErrAborted
// instead of blocking forever.
func (c *Comm) Recv(src, tag int) Message {
	lo, hi := tagRange(tag)
	return c.RecvRange(src, lo, hi)
}

// RecvRange blocks until a message from src whose tag lies in
// [tagLo, tagHi] arrives and returns it.  Use AnySource as a source
// wildcard.  Tag-range matching lets several protocol engines share one
// rank's mailbox — each listening on its own disjoint tag window — the
// way a wildcard AnyTag receive cannot (it would steal the others'
// messages).  Abort semantics match Recv.
func (c *Comm) RecvRange(src, tagLo, tagHi int) Message {
	return c.box().take(src, tagLo, tagHi, true, 0, nil)
}

// RecvRangeUntil is RecvRange bounded by an optional deadline d (<= 0
// means none) and a cancel predicate (nil means none).  It returns
// ok == false when the deadline passes or cancel reports true; cancel is
// re-evaluated on every mailbox wakeup (Evict and Join wake all local
// mailboxes), must be cheap, and must not block — it is called with the
// mailbox lock held.
func (c *Comm) RecvRangeUntil(src, tagLo, tagHi int, d time.Duration, cancel func() bool) (Message, bool) {
	m := c.box().take(src, tagLo, tagHi, true, d, cancel)
	return m, m.valid
}

// TryRecv returns a matching message if one is already queued.  On an
// aborted world with no queued match it panics with ErrAborted, so
// Test/TryRecv polling loops terminate like blocked receives do.
func (c *Comm) TryRecv(src, tag int) (Message, bool) {
	lo, hi := tagRange(tag)
	m := c.box().take(src, lo, hi, false, 0, nil)
	return m, m.valid
}

// Irecv posts a non-blocking receive and returns a request handle.
func (c *Comm) Irecv(src, tag int) Request {
	return Request{comm: c, src: src, tag: tag}
}

// Request is a pending non-blocking receive, a value its holder keeps.
type Request struct {
	comm *Comm
	src  int
	tag  int
	done bool
	msg  Message
}

// Test attempts to complete the receive without blocking.
func (r *Request) Test() (Message, bool) {
	if !r.done {
		r.msg, r.done = r.comm.TryRecv(r.src, r.tag)
	}
	return r.msg, r.done
}

// Source returns the source rank this request matches (possibly
// AnySource).
func (r *Request) Source() int { return r.src }

// Tag returns the tag the request is listening on.
func (r *Request) Tag() int { return r.tag }

// mailbox is one rank's unbounded, order-preserving message queue with
// (source, tag) matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	aborted bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) int {
	mb.mu.Lock()
	m.valid = true
	mb.queue = append(mb.queue, m)
	depth := len(mb.queue)
	mb.mu.Unlock()
	mb.cond.Broadcast()
	return depth
}

// tagRange is the inclusive tag window an exact tag or the AnyTag
// wildcard matches.
func tagRange(tag int) (lo, hi int) {
	if tag == AnyTag {
		return math.MinInt, math.MaxInt
	}
	return tag, tag
}

func matches(m Message, src, tagLo, tagHi int) bool {
	return (src == AnySource || m.Source == src) && m.Tag >= tagLo && m.Tag <= tagHi
}

// take is the mailbox's one receive: it removes and returns the oldest
// queued message from src (or AnySource) with a tag in [tagLo, tagHi],
// or the zero Message (valid == false) when there is none and it may not
// wait any longer — block is false, the deadline d (<= 0 means none) has
// passed, or cancel (nil means never) reports true.  cancel runs under
// mb.mu and is rechecked on every wakeup.
func (mb *mailbox) take(src, tagLo, tagHi int, block bool, d time.Duration, cancel func() bool) Message {
	var deadline time.Time
	if block && d > 0 {
		deadline = time.Now().Add(d)
		// sync.Cond has no timed wait; a timer that takes the lock before
		// broadcasting cannot fire between the waiter's deadline check and
		// its cond.Wait, so the wakeup is never lost.
		timer := time.AfterFunc(d, mb.wake)
		defer timer.Stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.queue {
			if matches(m, src, tagLo, tagHi) {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m
			}
		}
		// Drain-then-abort: messages delivered before the abort are
		// still consumable (so receivers already holding their answer
		// finish cleanly); only a receive that would otherwise wait —
		// or poll forever — aborts.
		if mb.aborted {
			panic(ErrAborted)
		}
		if !block || (cancel != nil && cancel()) || (d > 0 && !time.Now().Before(deadline)) {
			return Message{}
		}
		mb.cond.Wait()
	}
}

// abort wakes blocked receivers: they drain queued matches and then
// panic with ErrAborted instead of waiting forever.
func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// wake rouses blocked receivers without changing mailbox state, so
// waiters re-evaluate their cancel predicate and deadline.  Taking the
// lock first means a waiter between its cancel check and cond.Wait
// cannot miss the broadcast.
func (mb *mailbox) wake() {
	mb.mu.Lock()
	mb.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	mb.cond.Broadcast()
}

// ErrAborted is the panic value delivered to receives on an aborted
// world.  Code that aborts a world should recover it.
var ErrAborted = fmt.Errorf("mpi: world aborted")

// controlTag is the reserved point-to-point tag carrying the world's
// own control frames (poison, evict, join and bye notices).  Negative so
// it can never collide with application tags (reply tags grow upward
// without bound); the frames are intercepted in deliver and never reach
// a mailbox.
const controlTag = -2

// broadcast sends one control frame to every remote rank.  Best-effort:
// a connection may itself be the casualty being announced.
func (w *World) broadcast(msg any) {
	if w.tr == nil {
		return
	}
	for r := range w.ranks {
		if w.ranks[r].box == nil {
			w.tr.Send(w.local[0], r, controlTag, msg)
		}
	}
}

// Abort aborts this endpoint of the world: every locally hosted mailbox
// wakes its blocked receivers with ErrAborted (after draining
// already-delivered matches).  Remote endpoints are not told — use Fail
// for that.  It is idempotent and safe to call from any goroutine;
// transports call it when a peer connection dies.
func (w *World) Abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, r := range w.local {
		w.ranks[r].box.abort()
	}
}

// Aborted reports whether the world has been aborted.
func (w *World) Aborted() bool { return w.aborted.Load() }

// RankFailure identifies a world rank diagnosed as failed and why.  It
// is recorded by Fail (local detection: liveness timeout, receive
// deadline, lost connection) or by a reason-carrying poison frame from
// the rank that detected the failure, and is retrievable via
// World.Failure for per-rank diagnosis after an abort.
type RankFailure struct {
	Rank   int
	Reason string
}

func (f *RankFailure) Error() string {
	return fmt.Sprintf("mpi: rank %d failed: %s", f.Rank, f.Reason)
}

// Fail aborts every endpoint of the world with a diagnosis: it records
// rank as failed (the first recorded failure wins), remote worlds get a
// poison frame carrying the reason, so each learns it before aborting,
// and then this world aborts.  Safe from any goroutine and idempotent.
func (w *World) Fail(rank int, reason string) {
	if w.recordFailure(rank, reason) && !w.closed.Load() {
		w.broadcast(poisonMsg{Rank: rank, Reason: reason})
	}
	w.Abort()
}

// recordFailure stores the first failure diagnosis and reports whether
// this call was the one that stored it.
func (w *World) recordFailure(rank int, reason string) bool {
	w.memberMu.Lock()
	defer w.memberMu.Unlock()
	if w.failure != nil {
		return false
	}
	w.failure = &RankFailure{Rank: rank, Reason: reason}
	return true
}

// Failure returns the recorded rank failure, or nil if the world never
// diagnosed one (including worlds aborted without an attributed cause).
func (w *World) Failure() *RankFailure {
	w.memberMu.Lock()
	defer w.memberMu.Unlock()
	return w.failure
}

// SetRecover switches the world to degraded-membership recovery:
// detected failures of non-critical ranks feed Evict instead of Fail,
// so the survivors keep running over the live members.  critical lists
// ranks whose death remains fatal (for the SIP: the master and the I/O
// servers).  Call it once, before ranks start communicating.
func (w *World) SetRecover(critical ...int) {
	for r := range w.ranks {
		w.ranks[r].evictable.Store(!slices.Contains(critical, r))
	}
}

// Evictable reports whether rank's death can be survived: recovery is
// on and the rank is not critical.
func (w *World) Evictable(rank int) bool { return w.ranks[rank].evictable.Load() }

// Evict marks rank as permanently dead without poisoning the
// survivors: sends to it become no-ops, inbound frames from it are
// dropped, and every blocked receiver wakes so eviction-aware waits
// (RecvRangeUntil) can recheck their cancel condition.  Eviction is final —
// a falsely evicted rank that later wakes up is firewalled, never
// re-admitted.  The first eviction of a rank wins; evicting a critical
// rank (or a rank of a non-recovering world) falls back to Fail.  Safe
// from any goroutine.
func (w *World) Evict(rank int, reason string) {
	if !w.Evictable(rank) {
		w.Fail(rank, reason)
		return
	}
	m := &w.ranks[rank]
	w.memberMu.Lock()
	first := m.advance(evicted)
	if first {
		m.reason = reason
	}
	w.memberMu.Unlock()
	if !first {
		return
	}
	w.evictGen.Add(1)
	// Tell the remote worlds (best-effort: the dead rank's connection
	// may be the casualty) so every survivor converges on one view.
	// The evicted rank gets the notice too: if it is actually alive it
	// fails itself fast instead of wedging behind the firewall.
	if !w.closed.Load() {
		w.broadcast(evictNotice{Rank: rank, Reason: reason})
	}
	// Wake blocked receivers: messages from the dead rank will never
	// arrive, and RecvRangeUntil waiters must observe the new membership.
	// The evicted rank's own mailbox — when it lives in this world, as in
	// an in-process pool — is aborted instead, so its goroutines panic
	// with ErrAborted and unwind rather than wait forever behind the
	// firewall (the in-process analogue of the zombie self-abort in
	// deliver).
	for _, r := range w.local {
		if r == rank {
			w.ranks[r].box.abort()
		} else {
			w.ranks[r].box.wake()
		}
	}
}

// IsEvicted reports whether rank has been evicted.
func (w *World) IsEvicted(rank int) bool { return w.ranks[rank].state.Load() == evicted }

// Evicted returns a copy of the evicted ranks and their reasons.
func (w *World) Evicted() map[int]string {
	w.memberMu.Lock()
	defer w.memberMu.Unlock()
	var out map[int]string
	for r := range w.ranks {
		if w.ranks[r].state.Load() == evicted {
			if out == nil {
				out = map[int]string{}
			}
			out[r] = w.ranks[r].reason
		}
	}
	return out
}

// EvictStamp returns a counter that increases on every membership
// change (eviction or join).  Waiters snapshot it before blocking and
// cancel when it changes.
func (w *World) EvictStamp() uint64 { return w.evictGen.Load() }

// SetLatent marks ranks as provisioned but not yet active: spare slots
// of a long-running world that Join activates later.  Sends to a latent
// rank are dropped, liveness does not monitor it, and it is expected to
// stay silent.  Call before ranks start communicating.
func (w *World) SetLatent(ranks ...int) {
	for _, r := range ranks {
		w.ranks[r].state.CompareAndSwap(active, latent)
	}
}

// IsLatent reports whether rank is provisioned but not yet joined.
func (w *World) IsLatent(rank int) bool { return w.ranks[rank].state.Load() == latent }

// Join activates a latent rank — the inverse of Evict, reusing its
// membership-convergence machinery: the membership stamp bumps, remote
// worlds get a joinNotice so every endpoint converges on the new
// membership, and blocked RecvRangeUntil waiters wake to observe it.  It
// reports whether the rank was latent (the first join wins; joining a
// rank in any other state is a no-op).  Safe from any goroutine.
func (w *World) Join(rank int) bool {
	if !w.applyJoin(rank) {
		return false
	}
	// Tell the remote worlds (best-effort, mirroring Evict's fan-out)
	// so every endpoint admits the newcomer's traffic and sends reach
	// it instead of being dropped as latent.
	if !w.closed.Load() {
		w.broadcast(joinNotice{Rank: rank})
	}
	return true
}

// applyJoin performs the local half of a join: make the rank active,
// reset its liveness clock (it was legitimately silent until now), bump
// the membership stamp, and wake blocked receivers so membership-aware
// waits recheck their cancel condition.
func (w *World) applyJoin(rank int) bool {
	m := &w.ranks[rank]
	if !m.state.CompareAndSwap(latent, active) {
		return false
	}
	if w.live.Load() != nil {
		m.heard.Store(time.Now().UnixNano())
	}
	w.evictGen.Add(1)
	for _, r := range w.local {
		w.ranks[r].box.wake()
	}
	return true
}

// Close tears the world down, closing its transport (if any).  Peer
// disconnects observed after Close are part of normal teardown and do
// not abort the world.
//
// A cleanly closing world first announces its departure to the remote
// endpoints (best-effort), so a rank that finishes its part of the
// protocol early does not read as a crashed peer to ranks still
// running.  An aborted world sends no farewell: its disconnect should
// surface as the failure it is.
func (w *World) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	if l := w.live.Load(); l != nil {
		l.stopOnce.Do(func() { close(l.stop) })
	}
	if w.tr == nil {
		return nil
	}
	if !w.aborted.Load() {
		w.broadcast(byeNotice{Ranks: w.local})
	}
	return w.tr.Close()
}
