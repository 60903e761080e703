package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/wire"
)

// NewDistributedWorld creates a world of n ranks in which only the
// ranks listed in local are hosted by this process; messages to every
// other rank go through tr, and inbound traffic from tr is delivered to
// the local mailboxes.  The transport is started (and later closed by
// World.Close); the caller must not Start or Close it directly.
//
// Payload types crossing a serializing transport must be registered
// with internal/wire.
func NewDistributedWorld(n int, local []int, tr transport.Transport) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("mpi: no local ranks")
	}
	if tr == nil {
		return nil, fmt.Errorf("mpi: distributed world needs a transport")
	}
	w := &World{n: n, ranks: make([]member, n), tr: tr}
	for _, r := range local {
		if !w.known(r) {
			return nil, fmt.Errorf("mpi: local rank %d out of range [0,%d)", r, n)
		}
		if w.ranks[r].box != nil {
			return nil, fmt.Errorf("mpi: local rank %d listed twice", r)
		}
		w.ranks[r].box = newMailbox()
		w.local = append(w.local, r)
	}
	if err := tr.Start(w.deliver, w.peerDown); err != nil {
		return nil, err
	}
	return w, nil
}

// deliver is the transport's receive handler: it routes one inbound
// message to the destination rank's mailbox.  Poison frames abort the
// world (recording the failure diagnosis they carry) and heartbeat frames
// refresh liveness state; neither is enqueued.  A frame from or naming a
// rank outside the world is dropped (a poison frame still aborts): the
// member table is indexed by rank.
func (w *World) deliver(src, dst, tag int, data any) {
	if !w.known(src) || w.ranks[src].state.Load() == evicted {
		// Eviction is final: even if the rank was evicted falsely and is
		// still limping along, none of its frames — heartbeats and
		// poison included — may reach the survivors, or a zombie's
		// error-path teardown would abort the run it was evicted from.
		return
	}
	switch n := data.(type) {
	case evictNotice:
		if !w.known(n.Rank) {
			return
		}
		if w.ranks[n.Rank].box != nil {
			// The peers evicted one of *our* ranks: we are the zombie.
			// Abort locally — without broadcasting poison, which could
			// outrace the evict notice to a survivor — so this process
			// terminates instead of wedging behind the firewall.
			w.recordFailure(n.Rank, "evicted by peers: "+n.Reason)
			w.Abort()
			return
		}
		w.Evict(n.Rank, n.Reason)
		return
	case joinNotice:
		// A peer activated a latent rank (World.Join): converge on the
		// grown membership.
		if w.known(n.Rank) {
			w.applyJoin(n.Rank)
		}
		return
	case byeNotice:
		// The sender's ranks shut down cleanly, so the disconnect that
		// follows is teardown, not a failure.
		for _, r := range n.Ranks {
			if w.known(r) {
				w.ranks[r].advance(departed)
			}
		}
		return
	}
	if w.live.Load() != nil {
		now := time.Now().UnixNano()
		w.ranks[src].heard.Store(now)
		if hb, ok := data.(heartbeatMsg); ok {
			for _, r := range hb.Ranks {
				if w.known(r) {
					w.ranks[r].heard.Store(now)
				}
			}
		}
	}
	if _, ok := data.(heartbeatMsg); ok {
		return
	}
	if w.handleClock(src, dst, data) {
		return
	}
	if p, ok := data.(poisonMsg); ok {
		if !w.closed.Load() {
			w.recordFailure(p.Rank, p.Reason)
			w.Abort()
		}
		return
	}
	if !w.known(dst) || w.ranks[dst].box == nil {
		// Misrouted frame; drop rather than crash the reader.
		return
	}
	w.ranks[dst].box.put(Message{Source: src, Tag: tag, Data: data})
}

// peerDown is the transport's failure callback: a lost peer outside
// clean shutdown means pending receives can never complete, so the
// world records the failure and aborts.
func (w *World) peerDown(peer int, err error) {
	if w.closed.Load() {
		return
	}
	if !w.known(peer) {
		w.Abort()
		return
	}
	if w.ranks[peer].state.Load() == departed {
		// The peer said goodbye before the disconnect: clean shutdown.
		return
	}
	reason := fmt.Sprintf("connection lost: %v", err)
	if w.Evictable(peer) {
		w.Evict(peer, reason)
		return
	}
	w.Fail(peer, reason)
}

// ---------------------------------------------------------------------
// Liveness (heartbeat-based failure detection)

// heartbeatTag is the reserved tag for liveness frames.  Like
// controlTag it is negative so application tags can never collide;
// heartbeat frames are intercepted before reaching any mailbox, so the
// tag never surfaces.
const heartbeatTag = -3

// heartbeatMsg announces that the sending endpoint — and every rank it
// hosts — is alive.
type heartbeatMsg struct {
	Ranks []int
}

// Liveness configures heartbeat-based failure detection on a
// distributed world.  The world periodically announces its local ranks
// to every remote rank and watches inbound traffic (any message counts,
// not just heartbeats); a remote rank silent for longer than Timeout is
// declared failed: the world records a RankFailure naming it, notifies
// the other ranks, and aborts.
//
// Timeout bounds detection latency for a crashed or wedged peer, and
// must also cover startup skew between processes plus the longest
// legitimate network stall — heartbeats keep flowing while peers
// compute, so it need not cover computation time.
type Liveness struct {
	// Interval between heartbeat rounds.  Must be positive.
	Interval time.Duration
	// Timeout is the silence bound after which a remote rank is declared
	// failed (default 8 * Interval).
	Timeout time.Duration
	// OnDown, if set, is invoked once with the failed rank and diagnosis
	// before the world aborts (observability hook).
	OnDown func(rank int, reason string)
}

// liveness is the running state behind StartLiveness; the time each
// rank was last heard is in its member record.
type liveness struct {
	lv       Liveness
	stop     chan struct{}
	stopOnce sync.Once
}

// StartLiveness begins heartbeat-based failure detection on a
// distributed world.  It may be called at most once, any time after
// NewDistributedWorld; detection stops when the world is closed or
// aborts.
func (w *World) StartLiveness(lv Liveness) error {
	if w.tr == nil {
		return fmt.Errorf("mpi: liveness requires a distributed world")
	}
	if lv.Interval <= 0 {
		return fmt.Errorf("mpi: liveness interval %v must be positive", lv.Interval)
	}
	if lv.Timeout <= 0 {
		lv.Timeout = 8 * lv.Interval
	}
	l := &liveness{lv: lv, stop: make(chan struct{})}
	if !w.live.CompareAndSwap(nil, l) {
		return fmt.Errorf("mpi: liveness already started")
	}
	go w.monitor(l)
	return nil
}

// monitor is the liveness loop: each round it heartbeats every remote
// rank and checks how long each has been silent.  Ranks not yet heard
// from are measured against the monitor's start (startup grace of one
// Timeout).
func (w *World) monitor(l *liveness) {
	start := time.Now().UnixNano()
	ticker := time.NewTicker(l.lv.Interval)
	defer ticker.Stop()
	src := w.local[0]
	var remotes []int
	for r := range w.ranks {
		if w.ranks[r].box == nil {
			remotes = append(remotes, r)
		}
	}
	targets := make([]int, 0, len(remotes))
	hb := heartbeatMsg{Ranks: w.local}
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
		}
		if w.closed.Load() || w.aborted.Load() {
			return
		}
		targets = targets[:0]
		for _, r := range remotes {
			if s := w.ranks[r].state.Load(); s == active || s == evicted {
				targets = append(targets, r)
			}
		}
		// Best-effort: failures surface through peerDown/silence.  Over a
		// multicast-capable transport the round's heartbeat is encoded
		// once and shared across every peer queue (heartbeatMsg is
		// immutable, so pointer-sharing fallbacks need no clone either).
		if mc := transport.MulticasterFor(w.tr); mc != nil {
			mc.SendMulti(src, targets, heartbeatTag, hb)
		} else {
			for _, r := range targets {
				w.tr.Send(src, r, heartbeatTag, hb)
			}
		}
		now := time.Now().UnixNano()
		for _, r := range remotes {
			m := &w.ranks[r]
			if m.state.Load() != active {
				continue // evicted, departed or not yet joined: silence is expected
			}
			if silent := time.Duration(now - max(m.heard.Load(), start)); silent > l.lv.Timeout {
				reason := fmt.Sprintf("no traffic for %v (liveness timeout %v)",
					silent.Round(time.Millisecond), l.lv.Timeout)
				if l.lv.OnDown != nil {
					l.lv.OnDown(r, reason)
				}
				if w.Evictable(r) {
					w.Evict(r, reason)
					continue // the run goes on degraded; keep monitoring
				}
				w.Fail(r, reason)
				return
			}
		}
	}
}

// poisonMsg aborts the receiving process's world (World.Fail).  It is
// intercepted in deliver before reaching any mailbox, and carries the
// sender's failure diagnosis, which the receiver records (first
// diagnosis wins) before aborting.
type poisonMsg struct {
	Rank   int // the failed rank
	Reason string
}

// evictNotice tells the receiving world that Rank has been evicted
// (World.Evict), so every survivor converges on the same degraded
// membership.  Like poison and heartbeat frames it is intercepted in
// deliver and never reaches a mailbox.
type evictNotice struct {
	Rank   int
	Reason string
}

// byeNotice announces a clean shutdown of the sending endpoint's local
// ranks (World.Close), so the disconnect that follows is teardown, not
// a failure.  Intercepted in deliver; never reaches a mailbox.
type byeNotice struct {
	Ranks []int
}

// joinNotice tells the receiving world that Rank has been activated
// (World.Join), the inverse of evictNotice: every endpoint converges on
// the grown membership.  Intercepted in deliver; never reaches a
// mailbox.
type joinNotice struct {
	Rank int
}

// Wire ids for the world's control and liveness messages (block 16..31,
// see internal/wire).  16 and 17 carried the group-collective
// contribution/result frames until sync became master-mediated; they
// stay reserved so a mixed-build peer fails to decode instead of
// misreading.
const (
	wireIDPoison      = 18
	wireIDHeartbeat   = 19
	wireIDEvictNotice = 20
	wireIDByeNotice   = 21
	// 22, 23 carry the clock-sync ping/pong (clock.go).
	wireIDJoinNotice = 24
)

// decodeRanks reads a count-prefixed rank list, guarding the count
// against the remaining bytes so a corrupt or hostile frame latches a
// decode error instead of OOM-panicking in make.
func decodeRanks(d *wire.Decoder) []int {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Fail("rank list length %d exceeds remaining %d bytes", n, d.Remaining())
		return nil
	}
	rs := make([]int, n)
	for i := range rs {
		rs[i] = d.Int()
	}
	return rs
}

func init() {
	wire.Register(wireIDPoison,
		func(e *wire.Encoder, m poisonMsg) {
			e.Int(m.Rank)
			e.String(m.Reason)
		},
		func(d *wire.Decoder) poisonMsg {
			return poisonMsg{Rank: d.Int(), Reason: d.String()}
		})
	wire.Register(wireIDEvictNotice,
		func(e *wire.Encoder, m evictNotice) {
			e.Int(m.Rank)
			e.String(m.Reason)
		},
		func(d *wire.Decoder) evictNotice {
			return evictNotice{Rank: d.Int(), Reason: d.String()}
		})
	wire.Register(wireIDByeNotice,
		func(e *wire.Encoder, m byeNotice) {
			e.Int(len(m.Ranks))
			for _, r := range m.Ranks {
				e.Int(r)
			}
		},
		func(d *wire.Decoder) byeNotice {
			return byeNotice{Ranks: decodeRanks(d)}
		})
	wire.Register(wireIDJoinNotice,
		func(e *wire.Encoder, m joinNotice) {
			e.Int(m.Rank)
		},
		func(d *wire.Decoder) joinNotice {
			return joinNotice{Rank: d.Int()}
		})
	wire.Register(wireIDHeartbeat,
		func(e *wire.Encoder, m heartbeatMsg) {
			e.Int(len(m.Ranks))
			for _, r := range m.Ranks {
				e.Int(r)
			}
		},
		func(d *wire.Decoder) heartbeatMsg {
			return heartbeatMsg{Ranks: decodeRanks(d)}
		})

	// Fuzz seed corpus: one encoded example per type registered above.
	wire.Sample(poisonMsg{Rank: 1, Reason: "test"})
	wire.Sample(poisonMsg{Rank: -1}) // no attributed cause: still a well-formed frame
	wire.Sample(evictNotice{Rank: 3, Reason: "liveness"})
	wire.Sample(byeNotice{Ranks: []int{4, 5}})
	wire.Sample(joinNotice{Rank: 6})
	wire.Sample(heartbeatMsg{Ranks: []int{0, 1, 2}})
}
