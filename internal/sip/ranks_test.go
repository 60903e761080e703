package sip

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
)

// TestPoolJobRoleNames: a pool job names a failed rank by the job's own
// membership, not by counts laid out as in a batch run.  In a pool of 2
// workers, 1 server and 1 spare, Kill(1) leaves workers [2] and server 3;
// a Join then adds the spare, rank 4, as a worker.  A failure of each rank
// of the running job must reach RunJob's error under its own role, the
// one the abort, relay and flight-recorder paths all print.
func TestPoolJobRoleNames(t *testing.T) {
	const src = `
sial role_probe
aoindex I = 1, 2
temp h(I)
do I
  execute hold h(I)
enddo I
endsial
`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		join   bool
		victim int
		role   string
	}{
		{true, 4, "worker4"},
		{true, 3, "server1"},
		{false, 2, "worker2"},
		{false, 3, "server1"},
	} {
		t.Run(fmt.Sprintf("join=%v/rank%d", tc.join, tc.victim), func(t *testing.T) {
			p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Spares: 1, Recover: true, Output: &bytes.Buffer{}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.Kill(1, "test kill"); err != nil {
				t.Fatal(err)
			}
			live := 1
			if tc.join {
				if rank, err := p.Join(); err != nil || rank != 4 {
					t.Fatalf("Join = %d, %v; want rank 4", rank, err)
				}
				live++
			}
			parked, release := make(chan struct{}, live), make(chan struct{})
			hold := func(*ExecCtx, []*block.Block, []*float64) error {
				select {
				case parked <- struct{}{}:
				default:
				}
				<-release
				return nil
			}
			done := make(chan error, 1)
			go func() {
				_, err := p.RunJob(prog, Config{Seg: bytecode.DefaultSegConfig(1),
					Super: map[string]SuperFunc{"hold": hold}, Output: &bytes.Buffer{}})
				done <- err
			}()
			for range live {
				<-parked
			}
			p.world.Fail(tc.victim, "test failure")
			close(release)
			err = <-done
			var rf *mpi.RankFailure
			if !errors.As(err, &rf) || rf.Rank != tc.victim {
				t.Fatalf("RunJob = %v, want a RankFailure naming rank %d", err, tc.victim)
			}
			// "(worker4)" from an abort, "(worker4; reported by rank 2)" from
			// a relay.
			if !strings.Contains(err.Error(), "("+tc.role) {
				t.Errorf("RunJob = %v, want the role %s", err, tc.role)
			}
		})
	}
	t.Run("batch", func(t *testing.T) {
		ranks := NewRanks(Config{Workers: 2, Servers: 2})
		for rank, want := range []string{"master", "worker1", "worker2", "server1", "server2"} {
			if got := ranks.Role(rank); got != want {
				t.Errorf("Role(%d) = %q, want %q", rank, got, want)
			}
		}
	})
}

// TestMasterLivenessQueriesAllocateNothing: the questions the master asks
// the membership on every turn of its loop — how many workers it is still
// owed, whether the membership changed, whether an open sync round is
// complete — and the evicted-server count of a server barrier allocate
// nothing.
func TestMasterLivenessQueriesAllocateNothing(t *testing.T) {
	cfg := Config{Workers: 3, Servers: 2, Replicas: 2, Recover: true, ScratchDir: t.TempDir()}
	rt, err := newRuntime(nil, cfg, nil, batch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.close()
	rt.world.Evict(2, "test eviction")
	rt.world.Evict(5, "test eviction")
	m := newMaster(rt)
	m.noteEvictions(nil)
	m.doneRanks[1] = true
	m.syncs[1] = &syncState{reports: map[int]syncMsg{}} // rank 3 has not reported
	if allocs := testing.AllocsPerRun(100, func() {
		if n := m.pendingWorkers(); n != 1 {
			t.Fatalf("pendingWorkers = %d, want 1", n)
		}
		m.noteEvictions(nil)
		if err := m.completeSyncRounds(nil, nil); err != nil || len(m.syncs) != 1 {
			t.Fatalf("completeSyncRounds = %v with %d rounds open, want the round left open", err, len(m.syncs))
		}
		if n := rt.ranks.evictedServers(rt.world); n != 1 {
			t.Fatalf("evictedServers = %d, want 1", n)
		}
	}); allocs != 0 {
		t.Errorf("the liveness queries allocate %v times per turn, want 0", allocs)
	}
}
