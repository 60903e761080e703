package sip

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

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
		seq: 4, wallUs: 1722222222000000,
		snap: snap,
		tracks: []obs.TrackSegment{{
			Rank: 2, Tid: 1, Proc: "worker 2", Name: "service",
			Dropped: 1, Events: []obs.Event{ev0, ev1},
		}},
	}
	got := sipRoundTrip(t, want).(obsReportMsg)
	// The final report travels in a home's answer to shutdown.
	g := sipRoundTrip(t, gatherMsg{obs: &want}).(gatherMsg)
	if g.obs == nil {
		t.Fatal("gather answer lost its report")
	}
	for _, got := range []obsReportMsg{got, *g.obs} {
		if got.seq != want.seq || got.wallUs != want.wallUs {
			t.Fatalf("header mismatch: %#v", got)
		}
		if !reflect.DeepEqual(got.snap, want.snap) {
			t.Fatalf("snapshot mismatch:\n got %#v\nwant %#v", got.snap, want.snap)
		}
		if !reflect.DeepEqual(got.tracks, want.tracks) {
			t.Fatalf("tracks mismatch:\n got %#v\nwant %#v", got.tracks, want.tracks)
		}
	}
	if g := sipRoundTrip(t, gatherMsg{}).(gatherMsg); g.obs != nil {
		t.Fatalf("gather answer grew a report: %#v", g.obs)
	}

	// A minimal report (tracing off) survives too.
	empty := sipRoundTrip(t, obsReportMsg{seq: 1}).(obsReportMsg)
	if empty.seq != 1 || empty.snap != nil || empty.tracks != nil {
		t.Fatalf("empty report round trip: %#v", empty)
	}
}

// TestDistributedObsPlane runs a full distributed program with the
// observability plane on and checks the master's aggregator ends up
// with a final report from every non-master rank, a merged snapshot
// whose counters include worker and server work, and merged trace
// segments from every rank.  The run takes milliseconds and the ticker
// fires every obsShipInterval, so the folded counters and the server's
// job_retired span reach the aggregator only in the final report: they
// pin that a rank folds and ends its spans before its home answers.
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
	results, errs := runRanksOver(t, distProgram, mk, func(rank int) Config {
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
	var fetches int64
	for rank := 1; rank <= base.Workers; rank++ {
		fetches += results[rank].Profile.Fetches()
	}
	if got := snap.Counters["sip.worker.fetches"]; got != fetches {
		t.Errorf("merged sip.worker.fetches = %d, the workers' profiles fetched %d", got, fetches)
	}
	writes := results[n-1].Profile.serverTotals().DiskWrites
	if got := snap.Counters["sip.server.disk.writes"]; writes == 0 || got != writes {
		t.Errorf("merged sip.server.disk.writes = %d, the server's profile wrote %d", got, writes)
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
	if !strings.Contains(trace.String(), `"name":"job_retired"`) {
		t.Errorf("merged trace has no job_retired span of the server")
	}
}

// TestObsPlaneMasterOnlyOwesNothing: with the plane on at the master
// alone, no rank ships, so no answer carries a report and the master
// waits for none: every rank returns as soon as the run is over.
func TestObsPlaneMasterOnlyOwesNothing(t *testing.T) {
	var serialOut bytes.Buffer
	serial, err := RunSource(distProgram, distConfig(&serialOut))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	base := distConfig(&out)
	n := 1 + base.Workers + base.Servers
	agg := obs.NewAggregator(0, "master", nil, obs.NewRegistry())
	start := time.Now()
	results, errs := runRanksOver(t, distProgram, routerWorldMaker(t, n), func(rank int) Config {
		cfg := distConfig(&out)
		if rank == 0 {
			cfg.ObsShip, cfg.ObsAgg = true, agg
		}
		return cfg
	})
	elapsed := time.Since(start)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if elapsed > 2*time.Second {
		t.Errorf("ranks returned after %v: the master waited for reports no rank owed", elapsed)
	}
	if got, want := results[0].Scalars["e"], serial.Scalars["e"]; want == 0 || math.Abs(got-want) > 1e-10 {
		t.Errorf("distributed e = %g, serial e = %g", got, want)
	}
	if got := agg.FinalCount(); got != 0 {
		t.Errorf("final reports: got %d from ranks that do not ship", got)
	}
}

// TestObsPlaneRecoversOnlyAborts: on an aborted world a rank's shipment
// does not panic; a panic that is not an abort — here a shipper for a
// rank outside the world — still reaches the caller.
func TestObsPlaneRecoversOnlyAborts(t *testing.T) {
	newRT := func(t *testing.T) *runtime {
		cfg := Config{Workers: 2, ObsShip: true, Metrics: obs.NewRegistry(), ScratchDir: t.TempDir()}
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
		(&obsShipper{rt: rt, rank: 1}).ship()
	})
	t.Run("bug", func(t *testing.T) {
		rt := newRT(t)
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("ship swallowed a panic that is not an abort")
			}
		}()
		(&obsShipper{rt: rt, rank: rt.world.Size()}).ship()
	})
}
