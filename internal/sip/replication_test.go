package sip

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// TestServerFlushAllAggregatesErrors: a flush that cannot write keeps
// going and reports every failed block by key, so one bad block does not
// hide the fate of the rest.
func TestServerFlushAllAggregatesErrors(t *testing.T) {
	s := testIOServer(t, 4)
	arr := s.rt.prog.ArrayID("S")
	k0 := blockKey{arr: arr, ord: 0}
	k1 := blockKey{arr: arr, ord: 1}
	for _, k := range []blockKey{k0, k1} {
		b := block.New(testDims(t, s, k)...)
		b.Fill(1)
		if err := s.apply(k, b, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(s.dir); err != nil { // every disk write now fails
		t.Fatal(err)
	}
	err := s.flush(0)
	if err == nil {
		t.Fatal("flush succeeded with its directory removed")
	}
	for _, k := range []blockKey{k0, k1} {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("flush error does not attribute block %v: %v", k, err)
		}
	}
}

// TestServerDedupLedgerRotation: an effect seq is deduplicated for the
// epoch it arrived in plus one rotation, then retired — the third epoch
// applies it again, and the retirement is counted.
func TestServerDedupLedgerRotation(t *testing.T) {
	s := testIOServer(t, 4)
	reg := obs.NewRegistry()
	s.retireCtr = reg.Counter(metricDedupRetired)
	k := blockKey{arr: s.rt.prog.ArrayID("S"), ord: 0}
	put := func() putMsg {
		b := block.New(testDims(t, s, k)...)
		b.Fill(1)
		return putMsg{key: k, b: b, acc: true, seq: 42}
	}
	val := func() float64 {
		b, err := s.fetch(k)
		if err != nil {
			t.Fatal(err)
		}
		return b.Data()[0]
	}
	if err := s.applyPut(put()); err != nil {
		t.Fatal(err)
	}
	if err := s.applyPut(put()); err != nil { // same epoch: dropped
		t.Fatal(err)
	}
	if got := val(); got != 1 {
		t.Fatalf("value after replay in same epoch = %g, want 1", got)
	}
	s.retireSeen(0) // seq 42 moves to the previous epoch
	if err := s.applyPut(put()); err != nil {
		t.Fatal(err)
	}
	if got := val(); got != 1 {
		t.Fatalf("value after replay across one rotation = %g, want 1", got)
	}
	s.retireSeen(0) // seq 42 retired
	if got := reg.Snapshot().Counters[metricDedupRetired]; got != 1 {
		t.Fatalf("%s = %d after retirement, want 1", metricDedupRetired, got)
	}
	if err := s.applyPut(put()); err != nil {
		t.Fatal(err)
	}
	if got := val(); got != 2 {
		t.Fatalf("value after retirement = %g, want 2 (seq forgotten)", got)
	}
}

// TestWorkerDedupLedgerRotation: the worker-side put ledger has the same
// two-epoch lifetime as the server's.
func TestWorkerDedupLedgerRotation(t *testing.T) {
	reg := obs.NewRegistry()
	w := &worker{retireCtr: reg.Counter(metricDedupRetired)}
	if !w.seen.mark(7) {
		t.Fatal("fresh seq reported as duplicate")
	}
	if w.seen.mark(7) {
		t.Fatal("replay in same epoch not deduplicated")
	}
	w.retireSeenPuts()
	if w.seen.mark(7) {
		t.Fatal("replay across one rotation not deduplicated")
	}
	w.retireSeenPuts()
	if got := reg.Snapshot().Counters[metricDedupRetired]; got != 1 {
		t.Fatalf("%s = %d after retirement, want 1", metricDedupRetired, got)
	}
	if !w.seen.mark(7) {
		t.Fatal("retired seq still deduplicated")
	}
	// A worker that never marked a seq has an empty ledger; rotation must be a no-op.
	(&worker{}).retireSeenPuts()
}

// ledgerDrill runs two prepare phases through two server barriers, so
// the first phase's dedup entries age out at the second flush.
const ledgerDrill = `
sial ledger_drill
param n = 6
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp t(I,J)
pardo I, J
  compute_integrals t(I,J)
  prepare S(I,J) += t(I,J)
endpardo
server_barrier
pardo I, J
  compute_integrals t(I,J)
  prepare S(I,J) += t(I,J)
endpardo
server_barrier
endsial
`

// TestDedupLedgerRetiredMetric: a recovery-mode run with more than one
// server barrier must retire old ledger entries rather than hold every
// effect id for the lifetime of the run.
func TestDedupLedgerRetiredMetric(t *testing.T) {
	var out bytes.Buffer
	reg := obs.NewRegistry()
	cfg := Config{
		Workers: 2,
		Servers: 1,
		Seg:     bytecode.DefaultSegConfig(3),
		Recover: true,
		Metrics: reg,
		Output:  &out,
	}
	if _, err := RunSource(ledgerDrill, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[metricDedupRetired]; got < 1 {
		t.Errorf("%s = %d, want >= 1 after two server barriers", metricDedupRetired, got)
	}
}

// TestReplicatedRunMatchesSingle: with every server alive, replication
// must be invisible — the same answer as with one copy per block,
// whether or not recovery is on.
func TestReplicatedRunMatchesSingle(t *testing.T) {
	run := func(replicas int, recov bool) float64 {
		t.Helper()
		var out bytes.Buffer
		cfg := Config{
			Workers:  2,
			Servers:  3,
			Replicas: replicas,
			Recover:  recov,
			Seg:      bytecode.DefaultSegConfig(3),
			Output:   &out,
		}
		res, err := RunSource(recoverDrill, cfg)
		if err != nil {
			t.Fatalf("replicas=%d recover=%v: %v", replicas, recov, err)
		}
		return res.Scalars["e"]
	}
	want := run(1, false)
	if want == 0 {
		t.Fatal("baseline computed e = 0; drill is vacuous")
	}
	for _, tc := range []struct {
		replicas int
		recov    bool
	}{{2, false}, {2, true}, {3, true}} {
		got := run(tc.replicas, tc.recov)
		if diff := got - want; diff < -1e-10 || diff > 1e-10 {
			t.Errorf("replicas=%d recover=%v: e = %.15g, want %.15g (diff %g)",
				tc.replicas, tc.recov, got, want, diff)
		}
	}
}

// TestChaosReplicatedServerDeath: with -recover -replicas 2 and three
// I/O servers, killing one server mid-run must not lose served-array
// state: writes reach the surviving replica, reads fail over, and the
// next server barrier re-replicates under-replicated blocks onto the
// promoted server.  The master's answer must match the serial
// reference.
func TestChaosReplicatedServerDeath(t *testing.T) {
	// Serial reference: same program, no faults, no replication.
	var refOut bytes.Buffer
	refCfg := distConfig(&refOut)
	refCfg.Preset = nil
	ref, err := RunSource(recoverDrill, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Scalars["e"]
	if want == 0 {
		t.Fatal("serial reference computed e = 0; drill is vacuous")
	}

	const n = 6 // master + 2 workers + 3 servers (ranks 3,4,5)
	const victim = 4
	var outs [n]bytes.Buffer
	reg := obs.NewRegistry()
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		s.KillRank = victim
		s.KillAfter = 10 // wedge during the first prepare phase
		return s
	}
	mkWorld := faultWorldMaker(t, n, spec, nil)
	start := time.Now()
	results, errs := runRanksOver(t, recoverDrill, mkWorld, func(rank int) Config {
		cfg := Config{
			Workers:     2,
			Servers:     3,
			Replicas:    2,
			Recover:     true,
			Seg:         bytecode.DefaultSegConfig(3),
			Output:      &outs[rank],
			RecvTimeout: 2 * time.Second,
		}
		if rank == 0 {
			cfg.Metrics = reg
		}
		return cfg
	})
	if d := time.Since(start); d > chaosBound {
		t.Errorf("replicated recovery run took %v, want < %v", d, chaosBound)
	}
	for _, rank := range []int{0, 1, 2, 3, 5} {
		if errs[rank] != nil {
			t.Errorf("rank %d failed, want degraded completion: %v", rank, errs[rank])
		}
	}
	if errs[victim] == nil {
		t.Errorf("killed server %d reported no error", victim)
	}
	if results[0] == nil {
		t.Fatal("master returned no result")
	}
	got := results[0].Scalars["e"]
	if diff := got - want; diff < -1e-10 || diff > 1e-10 {
		t.Errorf("replicated e = %.15g, want serial reference %.15g (diff %g)", got, want, diff)
	}
	snap := reg.Snapshot()
	if snap.Counters[metricFaultRankEvicted] < 1 {
		t.Errorf("%s = %d, want >= 1", metricFaultRankEvicted, snap.Counters[metricFaultRankEvicted])
	}
	if snap.Counters[metricReplPushed] < 1 {
		t.Errorf("%s = %d, want >= 1 (anti-entropy pushed nothing)", metricReplPushed, snap.Counters[metricReplPushed])
	}
	if snap.Counters[metricReplRounds] < 1 {
		t.Errorf("%s = %d, want >= 1", metricReplRounds, snap.Counters[metricReplRounds])
	}
}

// TestChaosServerDeathFatalWithoutReplicas: with -recover but -replicas
// 1 a dead I/O server still fails the run fast, naming the dead rank —
// there is no surviving copy to recover from.
func TestChaosServerDeathFatalWithoutReplicas(t *testing.T) {
	const n = 4 // master + 2 workers + 1 server (rank 3)
	var outs [n]bytes.Buffer
	spec := func(rank int) transport.FaultSpec {
		s := noFault
		s.KillRank = 3
		s.KillAfter = 10
		return s
	}
	mkWorld := faultWorldMaker(t, n, spec, nil)
	start := time.Now()
	_, errs := runRanksOver(t, recoverDrill, mkWorld, func(rank int) Config {
		cfg := Config{
			Workers:     2,
			Servers:     1,
			Recover:     true,
			Seg:         bytecode.DefaultSegConfig(3),
			Output:      &outs[rank],
			RecvTimeout: 2 * time.Second,
		}
		return cfg
	})
	if d := time.Since(start); d > chaosBound {
		t.Errorf("fail-fast run took %v, want < %v", d, chaosBound)
	}
	assertBlames(t, "master", errs[0], 3)
}
