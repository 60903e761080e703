package sip

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestObsReportMsgWireRoundTrip(t *testing.T) {
	snap := &obs.Snapshot{
		Counters: map[string]int64{"sip.worker.fetches": 12, "obs.trace.dropped": 3},
		Gauges:   map[string]obs.GaugeValue{"mpi.qdepth.rank1": {Value: 2, Max: 7}},
		Hists: map[string]obs.HistValue{"sip.worker.wait_ns": {
			Count: 5, Sum: 12345, P50: 100, P90: 4000, P99: 8000,
			Buckets: []int64{0, 1, 2, 0, 2},
		}},
	}
	var ev0, ev1 obs.Event
	ev0.Name, ev0.Cat, ev0.TS, ev0.Dur = "fetch_chunk", obs.CatChunk, 10, 40
	ev0.Flow, ev0.FlowDir = msgFlowID(0, 1, tagChunkRep), obs.FlowIn
	ev0.NArg = 2
	ev0.Args[0] = obs.Arg{Key: "pardo", Val: "1"}
	ev0.Args[1] = obs.Arg{Key: "iters", Val: "8"}
	ev1.Name, ev1.Cat, ev1.TS = "worker_done", obs.CatChunk, 99
	want := obsReportMsg{
		origin: 2, seq: 4, final: true, wallUs: 1722222222000000,
		snap: snap,
		tracks: []obs.TrackSegment{{
			Rank: 2, Tid: 1, Proc: "worker 2", Name: "service",
			Dropped: 1, Events: []obs.Event{ev0, ev1},
		}},
	}
	got := sipRoundTrip(t, want).(obsReportMsg)
	if got.origin != want.origin || got.seq != want.seq || got.final != want.final || got.wallUs != want.wallUs {
		t.Fatalf("header mismatch: %#v", got)
	}
	if !reflect.DeepEqual(got.snap, want.snap) {
		t.Fatalf("snapshot mismatch:\n got %#v\nwant %#v", got.snap, want.snap)
	}
	if !reflect.DeepEqual(got.tracks, want.tracks) {
		t.Fatalf("tracks mismatch:\n got %#v\nwant %#v", got.tracks, want.tracks)
	}

	// A minimal report (tracing off) survives too.
	empty := sipRoundTrip(t, obsReportMsg{origin: 3, seq: 1}).(obsReportMsg)
	if empty.origin != 3 || empty.snap != nil || empty.tracks != nil {
		t.Fatalf("empty report round trip: %#v", empty)
	}
}

// TestDistributedObsPlane runs a full distributed program with the
// observability plane on and checks the master's aggregator ends up
// with a final report from every non-master rank, a merged snapshot
// whose counters include worker and server work, and merged trace
// segments from every rank.
func TestDistributedObsPlane(t *testing.T) {
	var out bytes.Buffer
	base := distConfig(&out)
	n := 1 + base.Workers + base.Servers
	mk := routerWorldMaker(t, n)
	tracers := make([]*obs.Tracer, n)
	regs := make([]*obs.Registry, n)
	for r := 0; r < n; r++ {
		tracers[r] = obs.NewTracer(obs.TracerConfig{})
		regs[r] = obs.NewRegistry()
	}
	agg := obs.NewAggregator(0, "master", tracers[0], regs[0])
	_, errs := runRanksOver(t, distProgram, mk, func(rank int) Config {
		cfg := distConfig(&out)
		cfg.ObsShip = true
		cfg.Tracer = tracers[rank]
		cfg.Metrics = regs[rank]
		if rank == 0 {
			cfg.ObsAgg = agg
		}
		return cfg
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if got := agg.FinalCount(); got != n-1 {
		t.Fatalf("final reports: got %d, want %d (reported %v)", got, n-1, agg.ReportedRanks())
	}
	snap := agg.MergedSnapshot()
	if snap.Counters["sip.worker.fetches"] == 0 {
		t.Errorf("merged snapshot missing worker fetches: %v", snap.Counters)
	}
	if snap.Counters["sip.master.chunks"] == 0 {
		t.Errorf("merged snapshot missing master chunks: %v", snap.Counters)
	}
	var trace bytes.Buffer
	if err := agg.WriteMergedChrome(&trace); err != nil {
		t.Fatal(err)
	}
	for rank := 1; rank < n; rank++ {
		want := fmt.Sprintf(`"pid":%d`, rank)
		if !strings.Contains(trace.String(), want) {
			t.Errorf("merged trace has no events for rank %d", rank)
		}
	}
	if !strings.Contains(trace.String(), `"ph":"s"`) || !strings.Contains(trace.String(), `"ph":"f"`) {
		t.Errorf("merged trace has no flow event pair")
	}
}

// TestObsPlaneRecoversOnlyAborts: on an aborted world the master's final
// telemetry drain returns and a rank's last shipment does not panic; a
// panic that is not an abort — here a report of the wrong type on tagObs —
// still reaches the caller.
func TestObsPlaneRecoversOnlyAborts(t *testing.T) {
	newRT := func(t *testing.T) *runtime {
		cfg := Config{Workers: 2, ObsShip: true, ObsAgg: obs.NewAggregator(0, "master", nil, nil), ScratchDir: t.TempDir()}
		rt, err := newRuntime(nil, cfg, nil, batch(cfg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.close)
		return rt
	}
	t.Run("aborted", func(t *testing.T) {
		rt := newRT(t)
		rt.world.Abort()
		(&obsShipper{rt: rt, rank: 1}).ship(true)
		newMaster(rt).collectFinalObs()
	})
	t.Run("bug", func(t *testing.T) {
		rt := newRT(t)
		rt.world.Comm(1).Send(0, tagObs, ackMsg{})
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("collectFinalObs swallowed a panic that is not an abort")
			}
		}()
		newMaster(rt).collectFinalObs()
	})
}
