package sip

import (
	"slices"
	"testing"
)

// replicaRuntime builds a bare runtime for placement tests: replica
// selection depends only on the rank layout and the world's eviction
// state, not on any program.
func replicaRuntime(t *testing.T, workers, servers, replicas int, recover bool) *runtime {
	t.Helper()
	cfg := Config{Workers: workers, Servers: servers, Replicas: replicas, Recover: recover, ScratchDir: t.TempDir()}
	rt, err := newRuntime(nil, cfg, nil, batch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestReplicaPlacementDeterministic: the replica set is a pure function
// of (array, ordinal, membership) — every rank must compute the same
// sets from the same view.
func TestReplicaPlacementDeterministic(t *testing.T) {
	servers := []int{3, 4, 5, 6}
	for arr := 0; arr < 4; arr++ {
		for ord := 0; ord < 64; ord++ {
			a := rendezvousReplicas(nil, 0, arr, ord, 2, servers, nil)
			b := rendezvousReplicas(nil, 0, arr, ord, 2, servers, nil)
			if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
				t.Fatalf("placement of (%d,%d) not deterministic: %v vs %v", arr, ord, a, b)
			}
		}
	}
}

// TestReplicaPlacementNoDuplicates: a replica set never places two
// copies on the same rank, and is exactly min(k, live servers) long.
func TestReplicaPlacementNoDuplicates(t *testing.T) {
	servers := []int{3, 4, 5}
	for k := 1; k <= 4; k++ {
		want := k
		if want > len(servers) {
			want = len(servers)
		}
		for arr := 0; arr < 3; arr++ {
			for ord := 0; ord < 64; ord++ {
				set := rendezvousReplicas(nil, 0, arr, ord, k, servers, nil)
				if len(set) != want {
					t.Fatalf("replicas(%d,%d,k=%d) = %v, want %d ranks", arr, ord, k, set, want)
				}
				seen := map[int]bool{}
				for _, r := range set {
					if seen[r] {
						t.Fatalf("replicas(%d,%d,k=%d) = %v places two copies on rank %d", arr, ord, k, set, r)
					}
					seen[r] = true
				}
			}
		}
	}
}

// TestReplicaPlacementMinimalRebalance: killing one server must leave
// the replica sets of blocks that did not use it untouched, and for
// blocks that did, replace only the dead member (surviving members keep
// their relative order, one new member joins).  In particular the new
// primary is always a rank that already held the block — that is what
// makes failover reads and the anti-entropy push correct.
func TestReplicaPlacementMinimalRebalance(t *testing.T) {
	servers := []int{3, 4, 5, 6}
	const k = 2
	for _, victim := range servers {
		dead := func(r int) bool { return r == victim }
		rebalanced := 0
		for arr := 0; arr < 3; arr++ {
			for ord := 0; ord < 64; ord++ {
				before := rendezvousReplicas(nil, 0, arr, ord, k, servers, nil)
				after := rendezvousReplicas(nil, 0, arr, ord, k, servers, dead)
				held := false
				for _, r := range before {
					if r == victim {
						held = true
					}
				}
				if !held {
					// Untouched set: identical before and after.
					if len(after) != len(before) {
						t.Fatalf("(%d,%d): set %v changed to %v without holding dead rank %d", arr, ord, before, after, victim)
					}
					for i := range before {
						if after[i] != before[i] {
							t.Fatalf("(%d,%d): set %v changed to %v without holding dead rank %d", arr, ord, before, after, victim)
						}
					}
					continue
				}
				rebalanced++
				// Survivors keep their order; exactly one new rank joins.
				var survivors []int
				for _, r := range before {
					if r != victim {
						survivors = append(survivors, r)
					}
				}
				if len(after) != k {
					t.Fatalf("(%d,%d): rebalanced set %v has %d ranks, want %d", arr, ord, after, len(after), k)
				}
				for i, r := range survivors {
					if after[i] != r {
						t.Fatalf("(%d,%d): survivors of %v reordered in %v", arr, ord, before, after)
					}
				}
				// The new primary already held the block.
				holds := false
				for _, r := range before {
					if r == after[0] {
						holds = true
					}
				}
				if !holds {
					t.Fatalf("(%d,%d): new primary %d of %v was not in prior set %v", arr, ord, after[0], after, before)
				}
			}
		}
		if rebalanced == 0 {
			t.Fatalf("no block held rank %d; rebalance untested", victim)
		}
	}
}

// TestPlacementProperties: one placement function serves every
// replication factor, so for every K <= S <= 5 the properties the
// runtime leans on must hold — the K=1 home is the K=2 primary (sets
// nest), removing a server moves only the blocks it held, the load is
// balanced, and selecting into caller scratch does not allocate.
func TestPlacementProperties(t *testing.T) {
	const job, arr, blocks = 0, 1, 4096
	for S := 1; S <= 5; S++ {
		servers := contiguousRanks(3, S)
		for K := 1; K <= S; K++ {
			load := map[int]int{}
			for ord := 0; ord < blocks; ord++ {
				set := rendezvousReplicas(nil, job, arr, ord, K, servers, nil)
				if len(set) != K {
					t.Fatalf("S=%d K=%d ord=%d: set %v, want %d ranks", S, K, ord, set, K)
				}
				for _, r := range set {
					load[r]++
				}
				if K < S {
					next := rendezvousReplicas(nil, job, arr, ord, K+1, servers, nil)
					for i, r := range set {
						if next[i] != r {
							t.Fatalf("S=%d ord=%d: K=%d set %v is not the head of K=%d set %v", S, ord, K, set, K+1, next)
						}
					}
				}
				// Removing any one server moves only the blocks it held.
				for _, victim := range servers {
					after := rendezvousReplicas(nil, job, arr, ord, K, servers, func(r int) bool { return r == victim })
					held := false
					for _, r := range set {
						held = held || r == victim
					}
					if !held && !slices.Equal(after, set) {
						t.Fatalf("S=%d K=%d ord=%d: set %v became %v though it never held dead rank %d", S, K, ord, set, after, victim)
					}
					for _, r := range after {
						if r == victim {
							t.Fatalf("S=%d K=%d ord=%d: set %v still names dead rank %d", S, K, ord, after, victim)
						}
					}
				}
			}
			mean := float64(blocks*K) / float64(S)
			for r, n := range load {
				if float64(n) > 1.25*mean {
					t.Errorf("S=%d K=%d: rank %d holds %d of %d block copies, max/mean %.2f > 1.25", S, K, r, n, blocks*K, float64(n)/mean)
				}
			}
			scratch := make([]int, 0, K)
			ord := 0
			if allocs := testing.AllocsPerRun(100, func() {
				scratch = rendezvousReplicas(scratch, job, arr, ord, K, servers, nil)
				ord++
			}); allocs != 0 {
				t.Errorf("S=%d K=%d: selection into caller scratch allocates %.0f times per call", S, K, allocs)
			}
		}
	}
}

// TestSingleReplicaServersNeverFailOver: with Replicas == 1 every server
// rank is critical, so under Recover the world never lets one be evicted
// and the placement's dead filter can never move a read to a server that
// never held the block.
func TestSingleReplicaServersNeverFailOver(t *testing.T) {
	rt := replicaRuntime(t, 2, 3, 1, true)
	critical := map[int]bool{}
	for _, r := range rt.ranks.critical(rt.cfg.Replicas) {
		critical[r] = true
	}
	for _, sr := range rt.ranks.servers {
		if !critical[sr] {
			t.Errorf("server rank %d is not critical with Replicas == 1", sr)
		}
		if rt.world.Evictable(sr) {
			t.Errorf("world reports server rank %d evictable with Replicas == 1", sr)
		}
	}
	if !rt.world.Evictable(rt.ranks.workers[0]) {
		t.Fatal("workers are not evictable under Recover; the checks above are vacuous")
	}
	victim := rt.ranks.servers[1]
	func() {
		defer func() { recover() }() // evicting a critical rank fails the world
		rt.world.Evict(victim, "test eviction")
	}()
	if rt.world.IsEvicted(victim) {
		t.Fatalf("critical server rank %d was evicted", victim)
	}
	var scratch []int
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = rt.replicaServers(scratch, 1, 7)
	}); allocs != 0 {
		t.Errorf("runtime.replicaServers into caller scratch allocates %.0f times per call", allocs)
	}
}

// TestReplicaServersSkipEvicted: an evicted server leaves every replica
// set; the sets shrink to the live servers.
func TestReplicaServersSkipEvicted(t *testing.T) {
	rt := replicaRuntime(t, 2, 3, 2, true)
	victim := rt.ranks.servers[1] // the middle server
	rt.world.Evict(victim, "test eviction")
	if !rt.world.IsEvicted(victim) {
		t.Fatal("test server rank was not evictable; Ranks.critical is wrong for Replicas > 1")
	}
	for arr := 0; arr < 4; arr++ {
		for ord := 0; ord < 64; ord++ {
			set := rt.replicaServers(nil, arr, ord)
			if len(set) != 2 {
				t.Fatalf("replicaServers(%d,%d) = %v, want 2 live ranks", arr, ord, set)
			}
			for _, r := range set {
				if r == victim {
					t.Fatalf("replicaServers(%d,%d) = %v contains evicted rank %d", arr, ord, set, victim)
				}
			}
		}
	}
}

// TestConfigValidatesReplicas: fill must default Replicas to 1 and
// reject degenerate values.
func TestConfigValidatesReplicas(t *testing.T) {
	cfg := Config{Workers: 1, Servers: 2}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 1 {
		t.Fatalf("fill left Replicas = %d, want default 1", cfg.Replicas)
	}
	bad := Config{Workers: 1, Servers: 1, Replicas: 2}
	if err := bad.fill(); err == nil {
		t.Fatal("fill accepted Replicas = 2 with Servers = 1")
	}
	neg := Config{Workers: 1, Servers: 2, Replicas: -1}
	if err := neg.fill(); err == nil {
		t.Fatal("fill accepted Replicas = -1")
	}
}
