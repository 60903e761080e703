package sip

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/obs"
)

// servedTraceProgram exercises every SIP role: pardo scheduling by the
// master, block math on the workers, and cache + disk traffic on the
// I/O server (the 2-block cache forces evictions and disk round
// trips).
const servedTraceProgram = `
sial obs_run
param n = 8
aoindex I = 1, n
served S(I,I)
temp t(I,I)
scalar total
pardo I
  t(I,I) = 2.0
  prepare S(I,I) = t(I,I)
endpardo
server_barrier
pardo I
  request S(I,I)
  total += dot(S(I,I), S(I,I))
endpardo
collective total
endsial
`

func runObsProgram(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Seg = bytecode.DefaultSegConfig(1)
	cfg.ServerCacheBlocks = 2
	res, err := RunSource(servedTraceProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["total"] != 8*4 {
		t.Fatalf("total = %g, want 32", res.Scalars["total"])
	}
	return res
}

type chromeTestEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   int64          `json:"ts"`
	Cat  string         `json:"cat"`
	Dur  *int64         `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestRunChromeTrace(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	runObsProgram(t, Config{Workers: 4, Servers: 1, Tracer: tracer})

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeTestEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}

	// Spans must come from the master (pid 0), at least two distinct
	// workers (pids 1..4), and the I/O server (pid 5).
	spanPids := map[int]bool{}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		spanPids[ev.Pid] = true
		cats[ev.Cat] = true
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("complete event without dur: %+v", ev)
		}
	}
	if !spanPids[0] {
		t.Error("no master (pid 0) events")
	}
	workerPids := 0
	for pid := 1; pid <= 4; pid++ {
		if spanPids[pid] {
			workerPids++
		}
	}
	if workerPids < 2 {
		t.Errorf("events from %d worker ranks, want >= 2 (pids %v)", workerPids, spanPids)
	}
	if !spanPids[5] {
		t.Errorf("no I/O server (pid 5) events (pids %v)", spanPids)
	}
	for _, cat := range []string{obs.CatInterp, obs.CatChunk, obs.CatServerCache, obs.CatDisk} {
		if !cats[cat] {
			t.Errorf("no %q events (cats %v)", cat, cats)
		}
	}

	// A batch run registers every rank-goroutine's track exactly once:
	// master dispatch, 4 x (worker interp + service), server cache.
	type lane struct{ pid, tid int }
	lanes := map[lane]string{}
	for _, seg := range tracer.Segments(false) {
		l := lane{seg.Rank, seg.Tid}
		if prev, dup := lanes[l]; dup {
			t.Errorf("rank %d tid %d registered twice (%s, %s)", seg.Rank, seg.Tid, prev, seg.Name)
		}
		lanes[l] = seg.Name
	}
	if len(lanes) != 1+2*4+1 {
		t.Errorf("batch run registered %d tracks, want 10: %v", len(lanes), lanes)
	}
}

func TestRunMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res := runObsProgram(t, Config{Workers: 4, Servers: 1, Metrics: reg})

	snap := res.Profile.Metrics
	if snap == nil {
		t.Fatal("Profile.Metrics not set")
	}
	for _, name := range []string{
		"mpi.msgs.chunk_req", "mpi.msgs.chunk_rep", "mpi.bytes.chunk_req",
		"mpi.msgs.server", "mpi.bytes.server",
		"sip.master.chunks", "sip.server.disk.reads", "sip.server.disk.writes",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Counters["mpi.msgs.chunk_req"] != snap.Counters["mpi.msgs.chunk_rep"] {
		t.Errorf("chunk_req %d != chunk_rep %d",
			snap.Counters["mpi.msgs.chunk_req"], snap.Counters["mpi.msgs.chunk_rep"])
	}
	// The master's mailbox (rank 0) saw traffic.
	if g, ok := snap.Gauges["mpi.qdepth.rank0"]; !ok || g.Max < 1 {
		t.Errorf("mpi.qdepth.rank0 = %+v, want max >= 1", snap.Gauges["mpi.qdepth.rank0"])
	}
	// Server stats also land on the profile itself.
	if len(res.Profile.Servers) != 1 {
		t.Fatalf("profile servers = %d, want 1", len(res.Profile.Servers))
	}
	srv := res.Profile.Servers[0]
	if srv.DiskWrites <= 0 || srv.DiskReads <= 0 {
		t.Errorf("server disk stats = %+v, want reads and writes > 0", srv)
	}
	if snap.Counters["sip.server.disk.reads"] != srv.DiskReads ||
		snap.Counters["sip.server.disk.writes"] != srv.DiskWrites {
		t.Errorf("metric disk counters %d/%d disagree with profile %+v",
			snap.Counters["sip.server.disk.reads"], snap.Counters["sip.server.disk.writes"], srv)
	}
}

// TestRunLineAttribution checks that the per-line hot-spot table is fed
// by real runs: every executed instruction carries its source line.
func TestRunLineAttribution(t *testing.T) {
	res := runObsProgram(t, Config{Workers: 2, Servers: 1})
	if len(res.Profile.Lines) == 0 {
		t.Fatal("no per-line stats recorded")
	}
	var total int64
	for line, ls := range res.Profile.Lines {
		if line <= 0 {
			t.Errorf("line stat with non-positive line %d", line)
		}
		total += ls.Count
	}
	var ops int64
	for _, st := range res.Profile.Ops {
		ops += st.Count
	}
	if total != ops {
		t.Errorf("line counts %d != op counts %d", total, ops)
	}
}
