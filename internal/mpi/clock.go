package mpi

import (
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/wire"
)

// clockTag is the reserved tag for clock-synchronization frames.  Like
// heartbeatTag it is negative so application tags can never collide;
// clock frames are intercepted in deliver and never reach a mailbox.
const clockTag = -4

// clockPing asks a peer for its wall clock.  T0 is the sender's clock
// in unix µs at send time, echoed back in the pong.
type clockPing struct {
	T0 int64
}

// clockPong answers a clockPing: T0 is echoed from the ping, TPeer is
// the responder's wall clock in unix µs at response time.
type clockPong struct {
	T0    int64
	TPeer int64
}

// clockSample is one completed ping-pong measurement.
type clockSample struct {
	offsetUs int64 // peer clock − local clock
	rttUs    int64
	ok       bool
}

// handleClock intercepts clock frames in deliver.  Pings are answered
// immediately on the reader goroutine (keeping the echo path short is
// what makes the RTT-halving estimate tight); pongs complete a sample.
func (w *World) handleClock(src, dst int, data any) bool {
	switch m := data.(type) {
	case clockPing:
		// Best-effort: a failed send surfaces through peerDown anyway.
		w.tr.Send(dst, src, clockTag, clockPong{T0: m.T0, TPeer: time.Now().UnixMicro()})
		return true
	case clockPong:
		t1 := time.Now().UnixMicro()
		rtt := t1 - m.T0
		if rtt < 0 {
			return true // clock stepped mid-flight; discard
		}
		// The lowest-RTT sample wins, since symmetric network delay is the
		// estimator's only error term beyond clock granularity.
		w.memberMu.Lock()
		if s := &w.ranks[src].clock; !s.ok || rtt < s.rttUs {
			*s = clockSample{offsetUs: m.TPeer - (m.T0+t1)/2, rttUs: rtt, ok: true}
		}
		w.memberMu.Unlock()
		return true
	}
	return false
}

// SyncClocks estimates every remote rank's wall-clock offset by
// round-trip ping-pong on the reserved clock tag: offset = TPeer −
// (T0+T1)/2, keeping the lowest-RTT sample per peer.  rounds pings are
// sent to each remote rank, spaced by spacing, and the call waits one
// extra spacing for stragglers.  Best-effort and bounded: unreachable
// peers simply yield no sample (ClockOffsetUs then falls back to the
// transport handshake estimate).  No-op on an all-local world.
func (w *World) SyncClocks(rounds int, spacing time.Duration) {
	if w.tr == nil || rounds <= 0 {
		return
	}
	if spacing <= 0 {
		spacing = 10 * time.Millisecond
	}
	src := w.local[0]
	for i := 0; i < rounds; i++ {
		if w.closed.Load() || w.aborted.Load() {
			return
		}
		for r := range w.ranks {
			if m := &w.ranks[r]; m.box == nil && m.state.Load() < departed { // latent or active
				w.tr.Send(src, r, clockTag, clockPing{T0: time.Now().UnixMicro()})
			}
		}
		time.Sleep(spacing)
	}
}

// ClockOffsetUs returns the best estimate of rank's wall-clock offset
// relative to this endpoint (rank clock − local clock, µs): the
// lowest-RTT ping-pong sample when SyncClocks ran, else the transport
// handshake sample, else 0 (shared clock, no estimate, or a rank outside
// the world).
func (w *World) ClockOffsetUs(rank int) int64 {
	if !w.known(rank) {
		return 0
	}
	w.memberMu.Lock()
	s := w.ranks[rank].clock
	w.memberMu.Unlock()
	if s.ok {
		return s.offsetUs
	}
	if w.tr != nil {
		if off, ok := transport.SampleClockOffsets(w.tr)[rank]; ok {
			return off
		}
	}
	return 0
}

// Wire ids for the clock frames (block 16..31, see internal/wire).
const (
	wireIDClockPing = 22
	wireIDClockPong = 23
)

func init() {
	wire.Register(wireIDClockPing,
		func(e *wire.Encoder, m clockPing) { e.Int(int(m.T0)) },
		func(d *wire.Decoder) clockPing { return clockPing{T0: int64(d.Int())} })
	wire.Register(wireIDClockPong,
		func(e *wire.Encoder, m clockPong) {
			e.Int(int(m.T0))
			e.Int(int(m.TPeer))
		},
		func(d *wire.Decoder) clockPong {
			return clockPong{T0: int64(d.Int()), TPeer: int64(d.Int())}
		})
	wire.Sample(clockPing{T0: 1_700_000_000_000_000})
	wire.Sample(clockPong{T0: 1_700_000_000_000_000, TPeer: 1_700_000_000_000_123})
}
