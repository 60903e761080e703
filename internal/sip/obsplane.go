package sip

// The observability plane (Config.ObsShip): non-master ranks of a
// distributed run periodically ship their metric snapshots and trace
// ring segments to the master on tagObs, where an obs.Aggregator merges
// them into one cluster view — a clock-aligned Chrome trace, Prometheus
// exposition with per-rank labels, and flight-recorder bundles on rank
// death.  See docs/OBSERVABILITY.md, "The aggregation plane".

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

// finalObsTimeout bounds how long the master waits after the run for
// stragglers' final telemetry reports: dead or wedged ranks must not
// hold the result hostage.
const finalObsTimeout = 5 * time.Second

// obsShipper drives one non-master rank's side of the plane: a ticker
// goroutine ships incremental reports, and finish() ships the final
// cumulative snapshot after the rank's run (and metric folding) ends.
type obsShipper struct {
	rt   *runtime
	rank int

	mu          sync.Mutex // serializes ticker vs. final shipments
	seq         int
	lastDropped int64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// obsShipInterval is the period between telemetry shipments.
const obsShipInterval = 500 * time.Millisecond

// startObsShipper starts the shipping loop for a non-master rank.
// Returns nil (a valid no-op shipper) when the plane is off or the
// rank is the master.
func startObsShipper(rt *runtime, rank int) *obsShipper {
	if !rt.cfg.ObsShip || rank == 0 {
		return nil
	}
	s := &obsShipper{rt: rt, rank: rank,
		stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *obsShipper) loop() {
	defer close(s.done)
	ticker := time.NewTicker(obsShipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.ship(false)
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

// ship sends one report to the master.  Best-effort: on an aborted or
// closing world the send is abandoned silently (the master is gone or
// going; telemetry must never turn a clean teardown into a crash).
func (s *obsShipper) ship(final bool) {
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.rt
	// Fold ring-buffer overwrites into the per-rank drop counter so
	// truncated traces are visible in shipped snapshots (the
	// obs.trace.dropped satellite).
	if d := int64(rt.tracer.DroppedTotal()); d > s.lastDropped {
		rt.metrics.Counter(obs.MetricTraceDropped).Add(d - s.lastDropped)
		s.lastDropped = d
	}
	s.seq++
	msg := obsReportMsg{origin: s.rank, seq: s.seq, final: final}
	if rt.metrics != nil {
		msg.snap = rt.metrics.Snapshot()
	}
	if rt.tracer != nil {
		msg.wallUs = rt.tracer.WallStart().UnixMicro()
		msg.tracks = rt.tracer.Segments(true)
	}
	if !final && msg.snap == nil && len(msg.tracks) == 0 {
		s.seq-- // nothing to say; don't burn a sequence number
		return
	}
	rt.world.Comm(s.rank).Send(0, tagObs, msg)
}

// finish stops the periodic loop and ships the final report.  Call
// after the rank's run returned and its end-of-run metrics were folded.
// Nil-safe.
func (s *obsShipper) finish() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.ship(true)
}

// ---------------------------------------------------------------------
// Master side

// handleObsReport folds one tagObs delivery into the aggregator,
// refreshing the clock-offset estimate for the reporting rank.
func (m *master) handleObsReport(r obsReportMsg) {
	agg := m.rt.cfg.ObsAgg
	if agg == nil {
		return
	}
	agg.SetClockOffset(r.origin, m.rt.world.ClockOffsetUs(r.origin))
	agg.Report(obs.RankReport{
		Rank:        r.origin,
		Role:        m.rt.ranks.Role(r.origin),
		Seq:         r.seq,
		Final:       r.final,
		WallStartUs: r.wallUs,
		Snap:        r.snap,
		Tracks:      r.tracks,
	})
}

// collectFinalObs drains the remaining telemetry after the run: every
// live non-master rank owes one final report (sent after its run and
// metric fold completed).  Bounded by finalObsTimeout so dead ranks
// cannot hang the result, and tolerant of an aborted world.
func (m *master) collectFinalObs() {
	rt := m.rt
	if !rt.cfg.ObsShip || rt.cfg.ObsAgg == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	deadline := time.Now().Add(finalObsTimeout)
	owed := func() bool {
		finals := rt.cfg.ObsAgg.FinalCount()
		live := 0
		for r := 1; r < rt.world.Size(); r++ {
			if !rt.world.IsEvicted(r) {
				live++
			}
		}
		return finals < live
	}
	for owed() && time.Now().Before(deadline) {
		msg, ok := m.comm.RecvRangeUntil(mpi.AnySource, tagObs, tagObs, 100*time.Millisecond, nil)
		if !ok {
			continue
		}
		m.handleObsReport(msg.Data.(obsReportMsg))
	}
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
