package sip

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// RunRank plays one world rank of a SIP run in this process: the master
// (rank 0), a worker (1..Workers), or an I/O server.  It is the
// multi-process counterpart of Run — every process builds the same
// program and Config, constructs a distributed world over a shared rank
// layout, and calls RunRank with its own rank.
//
// Only the master's Result carries scalars and gathered arrays; worker
// Results report the worker's local view (scalars and profile), and
// server Results are empty.  A failure anywhere surfaces as an error on
// at least the failing rank and the master.  With Config.ObsShip a rank's
// telemetry ends in its home's answer to shutdown, as its blocks do.
func RunRank(prog *bytecode.Program, cfg Config, world *mpi.World, rank int) (*Result, error) {
	at := batch(cfg)
	if world.Size() != at.ranks.Size() {
		return nil, fmt.Errorf("sip: world has %d ranks, config needs %d (1 master + %d workers + %d servers)",
			world.Size(), at.ranks.Size(), cfg.Workers, cfg.Servers)
	}
	if rank < 0 || rank >= world.Size() {
		return nil, fmt.Errorf("sip: rank %d out of range [0,%d)", rank, world.Size())
	}
	rt, err := newRuntime(prog, cfg, world, at)
	if err != nil {
		return nil, err
	}
	defer rt.close()
	rt.setPolicy()
	switch {
	case cfg.ObsShip && rank == 0:
		// Refine the handshake clock-offset estimates with a few
		// ping-pong rounds while the run warms up; the aggregator
		// reads the final estimates as reports arrive.
		go world.SyncClocks(4, 25*time.Millisecond)
	case cfg.ObsShip:
		// The rank's last report travels in its home's answer to shutdown;
		// the deferred halt stops the ticker of a rank that never answers.
		rt.ship = &obsShipper{rt: rt, rank: rank, stop: make(chan struct{}), done: make(chan struct{})}
		go rt.ship.loop()
	}
	defer rt.ship.halt()
	return rt.launch([]int{rank})
}

// FaultEvents adapts a metrics registry to the fault-injection
// transport's event hook (transport.NewFault): every injected event is
// counted as fault.<kind> and fault.<kind>.peer<N>.
func FaultEvents(reg *obs.Registry) func(kind string, peer int) {
	if reg == nil {
		return nil
	}
	return func(kind string, peer int) {
		reg.Counter("fault." + kind).Inc()
		reg.Counter(fmt.Sprintf("fault.%s.peer%d", kind, peer)).Inc()
	}
}

// NewNetObserver adapts a metrics registry to the transport's
// connection-level instrumentation: per-peer byte/frame counters plus
// connect, dial-retry, and failure counts (documented in
// docs/OBSERVABILITY.md, reported by `sial run -metrics`).
func NewNetObserver(reg *obs.Registry) transport.Observer {
	return &netObserver{reg: reg}
}

type netObserver struct {
	reg *obs.Registry
}

var _ transport.Observer = (*netObserver)(nil)

func (n *netObserver) peerCounter(kind string, peer int) *obs.Counter {
	return n.reg.Counter(fmt.Sprintf("net.%s.peer%d", kind, peer))
}

func (n *netObserver) OnConnect(peer, attempts int) {
	n.peerCounter("connects", peer).Inc()
	if attempts > 1 {
		n.peerCounter("dial_retries", peer).Add(int64(attempts - 1))
	}
}

func (n *netObserver) OnAccept(peer int) {
	n.peerCounter("accepts", peer).Inc()
}

func (n *netObserver) OnFrameSend(peer, bytes int) {
	n.peerCounter("frames_out", peer).Inc()
	n.peerCounter("bytes_out", peer).Add(int64(bytes))
}

func (n *netObserver) OnFrameRecv(peer, bytes int) {
	n.peerCounter("frames_in", peer).Inc()
	n.peerCounter("bytes_in", peer).Add(int64(bytes))
}

func (n *netObserver) OnPeerDown(peer int, err error) {
	n.peerCounter("peer_down", peer).Inc()
}
