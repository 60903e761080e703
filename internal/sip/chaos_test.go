package sip

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// Chaos tests: drive the full distributed protocol (distProgram uses
// every message path) through the fault-injection transport and require
// fail-fast, attributed termination instead of a hang.  The worst
// acceptable case is the test binary's own deadline; the asserted bound
// is chaosBound.
const chaosBound = 30 * time.Second

// chaosLiveness is tight enough to keep the tests fast but wide enough
// (8 missed heartbeats) to ride out scheduler hiccups under -race.
func chaosLiveness() mpi.Liveness {
	return mpi.Liveness{Interval: 25 * time.Millisecond, Timeout: 500 * time.Millisecond}
}

// noFault is the inactive spec (KillRank 0 would mean "kill rank 0").
var noFault = transport.FaultSpec{Seed: 1, KillRank: -1}

// faultWorldMaker mirrors routerWorldMaker but wraps every rank's
// endpoint in a fault injector (spec may differ per rank) and starts
// heartbeat liveness on each world.  All worlds are built eagerly,
// before any rank runs: the Local transport has no dial retry (unlike
// TCP), so a heartbeat racing a lazily-built peer world would read as a
// connection failure and blame an innocent rank.
func faultWorldMaker(t *testing.T, n int, spec func(rank int) transport.FaultSpec,
	events func(kind string, peer int)) func(rank int) *mpi.World {
	t.Helper()
	r := transport.NewRouter()
	worlds := make([]*mpi.World, n)
	for rank := 0; rank < n; rank++ {
		tr := transport.NewFault(r.Endpoint(rank), []int{rank}, spec(rank), events)
		w, err := mpi.NewDistributedWorld(n, []int{rank}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.StartLiveness(chaosLiveness()); err != nil {
			t.Fatal(err)
		}
		worlds[rank] = w
	}
	return func(rank int) *mpi.World { return worlds[rank] }
}

func chaosConfig(out *bytes.Buffer) Config {
	cfg := distConfig(out)
	// Generous receive deadline: liveness (0.5s) should win the race to
	// diagnose, with the deadline as backstop.
	cfg.RecvTimeout = 2 * time.Second
	return cfg
}

// runChaos runs distProgram over faulty worlds and returns the per-rank
// errors, failing the test if the run outlives chaosBound.
func runChaos(t *testing.T, spec func(rank int) transport.FaultSpec,
	events func(kind string, peer int), cfg func(rank int) Config) []error {
	t.Helper()
	mkWorld := faultWorldMaker(t, 4, spec, events) // master + 2 workers + 1 server
	start := time.Now()
	_, errs := runRanksOver(t, distProgram, mkWorld, cfg)
	if d := time.Since(start); d > chaosBound {
		t.Errorf("chaos run took %v, want < %v", d, chaosBound)
	}
	return errs
}

// assertBlames requires err to carry a RankFailure naming rank.
func assertBlames(t *testing.T, who string, err error, rank int) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s reported no error, want failure of rank %d", who, rank)
	}
	var rf *mpi.RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("%s error carries no RankFailure: %v", who, err)
	}
	if rf.Rank != rank {
		t.Errorf("%s blamed rank %d, want %d: %v", who, rf.Rank, rank, err)
	}
}

// TestChaosKilledServerRank: the lone I/O server (rank 3) goes silent
// mid-run.  Every rank must terminate, and the master's diagnosis must
// name the dead server.
func TestChaosKilledServerRank(t *testing.T) {
	var outs [4]bytes.Buffer
	reg := obs.NewRegistry()
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		s.KillRank = 3
		s.KillAfter = 10 // let startup traffic through, then wedge
		return s
	}
	errs := runChaos(t, spec, nil, func(rank int) Config {
		cfg := chaosConfig(&outs[rank])
		if rank == 0 {
			cfg.Metrics = reg
		}
		return cfg
	})
	assertBlames(t, "master", errs[0], 3)
	for rank := 1; rank <= 2; rank++ {
		if errs[rank] == nil {
			t.Errorf("worker %d reported no error", rank)
		}
	}
	// The detection event reached the master's metrics.
	if got := reg.Snapshot().Counters[metricFaultRankFailure]; got < 1 {
		t.Errorf("%s counter = %d, want >= 1", metricFaultRankFailure, got)
	}
}

// TestChaosKilledWorkerRank: worker rank 2 wedges.  The master must
// blame rank 2; the surviving worker and server must terminate too.
// (Rank 2 itself is partitioned from everyone and may blame any peer.)
func TestChaosKilledWorkerRank(t *testing.T) {
	var outs [4]bytes.Buffer
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		s.KillRank = 2
		s.KillAfter = 10
		return s
	}
	errs := runChaos(t, spec, nil, func(rank int) Config {
		return chaosConfig(&outs[rank])
	})
	assertBlames(t, "master", errs[0], 2)
	if errs[1] == nil {
		t.Error("surviving worker 1 reported no error")
	}
	if errs[3] == nil {
		t.Error("server reported no error")
	}
}

// recoverDrill stages all mutable state through served arrays and
// scalars, the shape recovery makes exact: prepares are deduplicated on
// replay and the scalar is collected at the phase-ending collective.
// (Distributed arrays homed on a dead worker are lost by design, so the
// drill uses none.)
const recoverDrill = `
sial recover_drill
param n = 24
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp v(I,J)
temp t(I,J)
scalar e
pardo I, J
  compute_integrals v(I,J)
  t(I,J) = 2.0 * v(I,J)
  prepare S(I,J) += t(I,J)
endpardo
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = S(I,J)
  e += dot(t(I,J), t(I,J))
endpardo
collective e
print "e =", e
endsial
`

// TestChaosRecoverWorkerDeath: with Config.Recover on, worker rank 2 is
// killed mid-pardo.  The run must complete on the survivors with the
// serial-reference answer: the master re-dispatches the dead worker's
// unacknowledged iterations, the server deduplicates replayed prepares,
// and the collective folds in only live contributions.
func TestChaosRecoverWorkerDeath(t *testing.T) {
	// Serial reference: the same program, no faults, no recovery.
	var refOut bytes.Buffer
	refCfg := distConfig(&refOut)
	refCfg.Preset = nil // recoverDrill uses no distributed arrays
	ref, err := RunSource(recoverDrill, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Scalars["e"]
	if want == 0 {
		t.Fatal("serial reference computed e = 0; drill is vacuous")
	}

	var outs [4]bytes.Buffer
	reg := obs.NewRegistry()
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		s.KillRank = 2
		s.KillAfter = 40 // deep enough that rank 2 has live prepares to deduplicate
		return s
	}
	mkWorld := faultWorldMaker(t, 4, spec, nil)
	start := time.Now()
	results, errs := runRanksOver(t, recoverDrill, mkWorld, func(rank int) Config {
		cfg := chaosConfig(&outs[rank])
		cfg.Preset = nil
		cfg.Recover = true
		if rank == 0 {
			cfg.Metrics = reg
		}
		return cfg
	})
	if d := time.Since(start); d > chaosBound {
		t.Errorf("recovery run took %v, want < %v", d, chaosBound)
	}
	// The survivors and the master finish cleanly; only the killed rank
	// errors out (it is partitioned from the whole world).
	for _, rank := range []int{0, 1, 3} {
		if errs[rank] != nil {
			t.Errorf("rank %d failed, want degraded completion: %v", rank, errs[rank])
		}
	}
	if errs[2] == nil {
		t.Error("killed rank 2 reported no error")
	}
	if results[0] == nil {
		t.Fatal("master returned no result")
	}
	got := results[0].Scalars["e"]
	if diff := got - want; diff < -1e-10 || diff > 1e-10 {
		t.Errorf("recovered e = %.15g, want serial reference %.15g (diff %g)", got, want, diff)
	}
	snap := reg.Snapshot()
	if snap.Counters[metricMasterRedispatched] < 1 {
		t.Errorf("%s = %d, want >= 1", metricMasterRedispatched, snap.Counters[metricMasterRedispatched])
	}
	if snap.Counters[metricFaultRankEvicted] < 1 {
		t.Errorf("%s = %d, want >= 1", metricFaultRankEvicted, snap.Counters[metricFaultRankEvicted])
	}
}

// ledgerTap observes an in-process world's sends: it counts how often
// each candidate ordinal is handed out — in a chunk reply's span or a
// replay order's spans —
// and keeps every worker's unacknowledged hand-outs (a sync release
// seals the phase and acknowledges them).  The first worker the master
// mails a second chunk within one phase becomes the victim and is
// evicted on the spot, so the kill lands mid-pardo on a worker holding
// two chunks however the scheduler interleaves the ranks.
type ledgerTap struct {
	mu      sync.Mutex
	world   *mpi.World
	handed  map[int]int         // ordinal -> times handed out
	unacked map[int]map[int]int // worker -> ordinal -> unacknowledged hand-outs
	chunks  map[int]int         // worker -> unacknowledged chunks
	victim  int                 // 0 until chosen
}

func (o *ledgerTap) OnSend(src, dst, tag int, data any, depth int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var spans []span
	switch m := data.(type) {
	case chunkReply:
		if m.n > 0 {
			spans = []span{m.span}
		}
	case syncReply:
		if !m.resume && dst != o.victim {
			delete(o.unacked, dst) // released: everything it held is acknowledged
			delete(o.chunks, dst)
		}
		spans = m.spans // replay orders only; releases carry none
	}
	if len(spans) == 0 {
		return
	}
	if o.unacked[dst] == nil {
		o.unacked[dst] = map[int]int{}
	}
	for _, s := range spans {
		for ord := s.lo; ord < s.hi; ord++ { // the drill has no where clause
			o.handed[ord]++
			o.unacked[dst][ord]++
		}
	}
	if o.chunks[dst]++; o.chunks[dst] == 2 && o.victim == 0 {
		o.victim = dst
		o.world.Evict(dst, "ledger test kill")
	}
}

// TestLedgerRedispatchesUnacknowledgedChunks: the chunk ledger is what
// recovery replays from.  A worker dies mid-pardo holding two
// unacknowledged chunks — one it executed (its prepares applied, so the
// replay's are deduplicated by effect seq) and one just mailed.  The
// iterations handed out again must be exactly those chunks flattened,
// and the energy the serial reference.
func TestLedgerRedispatchesUnacknowledgedChunks(t *testing.T) {
	prog, err := compiler.CompileSource(recoverDrill)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 3, Servers: 1, Seg: bytecode.DefaultSegConfig(3), Output: &bytes.Buffer{}}
	ref, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recover = true
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.close()
	tap := &ledgerTap{world: rt.world, handed: map[int]int{},
		unacked: map[int]map[int]int{}, chunks: map[int]int{}}
	rt.world.SetObserver(tap)
	res, err := rt.launch(contiguousRanks(0, rt.world.Size()))
	if err != nil {
		t.Fatalf("run with a worker killed: %v", err)
	}
	if got, want := res.Scalars["e"], ref.Scalars["e"]; math.Abs(got-want) > 1e-10 || want == 0 {
		t.Errorf("recovered e = %.15g, serial reference %.15g", got, want)
	}
	lost := tap.unacked[tap.victim]
	if !rt.world.IsEvicted(tap.victim) || len(lost) == 0 {
		t.Fatalf("victim %d evicted = %v holding %d iterations; the drill is vacuous",
			tap.victim, rt.world.IsEvicted(tap.victim), len(lost))
	}
	// Both pardos run over the same 8x8 block grid, so every iteration
	// is handed out twice, plus once more for each hand-out that died
	// unacknowledged with the victim.
	if len(tap.handed) != 8*8 {
		t.Errorf("%d distinct iterations handed out, want %d", len(tap.handed), 8*8)
	}
	for key, n := range tap.handed {
		if want := 2 + lost[key]; n != want {
			t.Errorf("iteration %d handed out %d times, want %d (%d died with worker %d)",
				key, n, want, lost[key], tap.victim)
		}
	}
}

// TestChaosDroppedFrames: worker 1 silently loses 40% of its outbound
// frames.  The run cannot complete, but it must fail fast with an
// attributed RankFailure on the master rather than hang, and the fault
// injector's event hook must have observed drops.
func TestChaosDroppedFrames(t *testing.T) {
	var outs [4]bytes.Buffer
	reg := obs.NewRegistry()
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		if rank == 1 {
			s.Seed = 7
			s.Drop = 0.4
		}
		return s
	}
	errs := runChaos(t, spec, FaultEvents(reg), func(rank int) Config {
		cfg := chaosConfig(&outs[rank])
		// Lost frames stall the protocol silently (the lossy rank still
		// heartbeats), so the receive deadline is the detector here.
		cfg.RecvTimeout = 500 * time.Millisecond
		return cfg
	})
	// No rank died here, so no particular RankFailure is required — only
	// that the run fails fast instead of hanging on the lost frames.
	if errs[0] == nil {
		t.Fatal("master reported no error despite 40% frame loss")
	}
	if got := reg.Snapshot().Counters["fault."+transport.FaultDrop]; got < 1 {
		t.Errorf("fault.drop counter = %d, want >= 1", got)
	}
}
