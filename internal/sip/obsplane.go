package sip

// The observability plane (Config.ObsShip): non-master ranks of a
// distributed run periodically ship their metric snapshots and trace
// ring segments to the master on tagObs, and carry the last report in
// their answer to shutdown.  The master's obs.Aggregator merges them into
// one cluster view — a clock-aligned Chrome trace, Prometheus exposition
// with per-rank labels, and flight-recorder bundles on rank death.  See
// docs/OBSERVABILITY.md, "The aggregation plane".

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// msgFlowID derives the flow-event id correlating a send→recv span pair
// from the triple both ends of the exchange know: the responder's rank,
// the requester's rank, and the (reply) tag of the exchange.  FNV-1a.
func msgFlowID(src, dst, tag int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [3]int{src, dst, tag} {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// obsShipper drives one non-master rank's side of the plane: a ticker
// goroutine (loop) ships incremental reports until the rank's home takes
// the last one for its answer to shutdown (final).
type obsShipper struct {
	rt          *runtime
	rank        int
	seq         int
	lastDropped int64
	stop, done  chan struct{}
	halted      sync.Once
}

// obsShipInterval is the period between telemetry shipments.
const obsShipInterval = 500 * time.Millisecond

func (s *obsShipper) loop() {
	defer close(s.done)
	ticker := time.NewTicker(obsShipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.ship()
		}
	}
}

// WireSizeHint implements wire.SizeHinter: reports carry whole metric
// snapshots and trace segments, so a rough per-entry estimate saves the
// transport's pooled encoder several regrowth copies.  (The reports
// themselves ride the transport's batched frames like any other small
// protocol message; see docs/TRANSPORT.md.)
func (m obsReportMsg) WireSizeHint() int {
	n := 64
	if m.snap != nil {
		n += 32 * (len(m.snap.Counters) + len(m.snap.Gauges) + 2*len(m.snap.Hists))
	}
	for _, t := range m.tracks {
		n += 64 + 96*len(t.Events)
	}
	return n
}

// ship sends one periodic report when the rank has something to say.
// Best-effort: on an aborted or closing world the send is abandoned
// (telemetry must never turn a clean teardown into a crash).
func (s *obsShipper) ship() {
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	if msg := s.report(); msg.snap != nil || len(msg.tracks) > 0 {
		s.rt.world.Comm(s.rank).Send(0, tagObs, msg)
	}
}

// report builds the rank's next report: its cumulative metric snapshot
// and the trace segments recorded since the previous one.  The ticker
// builds them until halt returns, the home's answer after.
func (s *obsShipper) report() obsReportMsg {
	rt := s.rt
	// Fold ring-buffer overwrites into the per-rank drop counter so
	// truncated traces are visible in shipped snapshots.
	if d := int64(rt.tracer.DroppedTotal()); d > s.lastDropped {
		rt.metrics.Counter(obs.MetricTraceDropped).Add(d - s.lastDropped)
		s.lastDropped = d
	}
	s.seq++
	msg := obsReportMsg{seq: s.seq}
	if rt.metrics != nil {
		msg.snap = rt.metrics.Snapshot()
	}
	if rt.tracer != nil {
		msg.wallUs = rt.tracer.WallStart().UnixMicro()
		msg.tracks = rt.tracer.Segments(true)
	}
	return msg
}

// final stops the ticker and returns the rank's last report, for its
// home's answer to shutdown; nil when the rank does not ship.
func (s *obsShipper) final() *obsReportMsg {
	if s == nil {
		return nil
	}
	s.halt()
	msg := s.report()
	return &msg
}

// halt stops the ticker and waits for its goroutine to exit.  Nil-safe
// and idempotent: RunRank defers it for a rank that never answers.
func (s *obsShipper) halt() {
	if s != nil {
		s.halted.Do(func() { close(s.stop) })
		<-s.done
	}
}

// ---------------------------------------------------------------------
// Master side

// handleObsReport folds rank from's report into the aggregator (a nil
// ObsAgg drops it), refreshing the clock-offset estimate for that rank.
// A report is final when it travels in the rank's answer to shutdown.
func (m *master) handleObsReport(from int, r obsReportMsg, final bool) {
	m.rt.cfg.ObsAgg.SetClockOffset(from, m.rt.world.ClockOffsetUs(from))
	m.rt.cfg.ObsAgg.Report(obs.RankReport{
		Rank:        from,
		Role:        m.rt.ranks.Role(from),
		Seq:         r.seq,
		Final:       final,
		WallStartUs: r.wallUs,
		Snap:        r.snap,
		Tracks:      r.tracks,
	})
}

// flightRecord writes a flight-recorder bundle for deadRank, when ObsAgg
// records flights.  reason is "evicted" or "failed"; diagnosis carries
// the recorded reason text.
func (rt *runtime) flightRecord(reason string, deadRank int, diagnosis string) {
	path, err := rt.cfg.ObsAgg.FlightRecord(reason, deadRank, rt.ranks.Role(deadRank), diagnosis)
	if path == "" && err == nil {
		return
	}
	rt.outMu.Lock()
	defer rt.outMu.Unlock()
	if err != nil {
		fmt.Fprintf(rt.cfg.Output, "[sip] flight recorder: %v\n", err)
		return
	}
	fmt.Fprintf(rt.cfg.Output, "[sip] flight recorder: rank %d %s, bundle written to %s\n",
		deadRank, reason, path)
}
