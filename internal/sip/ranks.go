package sip

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// Ranks is the membership of one SIP run or pool: which world ranks play
// its workers and its I/O servers (paper §V-B), and which latent spares a
// pool can still join.  Rank 0 is always the master.  Every question about
// the layout — a rank's role name, a worker's index, a block's home, the
// ranks recovery cannot lose, and which members the world still counts
// alive — is answered here, from the lists each entry point built once:
// Run and RunRank lay a batch run out contiguously, NewPool lays out its
// workers, servers and spares, and Pool.RunJob hands a job the live part of
// the pool's.
//
// A Ranks is never modified once built (Pool.Kill and Pool.Join replace the
// pool's), so a job's snapshot shares the pool's server list.
type Ranks struct {
	workers []int // world ranks in worker-index order
	servers []int // world ranks in server-index order
	spares  []int // latent worker ranks a pool has not joined yet
}

// NewRanks is the layout a launcher gives a batch run of cfg: the master
// on rank 0, workers on 1..cfg.Workers, and the I/O servers after them.
func NewRanks(cfg Config) Ranks { return newRanks(cfg.Workers, cfg.Servers, 0) }

// newRanks lays workers, servers and spares out contiguously after the
// master.  Negative counts lay out none; Config.fill reports them.
func newRanks(workers, servers, spares int) Ranks {
	workers, servers = max(workers, 0), max(servers, 0)
	return Ranks{
		workers: contiguousRanks(1, workers),
		servers: contiguousRanks(1+workers, servers),
		spares:  contiguousRanks(1+workers+servers, spares),
	}
}

func contiguousRanks(first, n int) []int {
	ranks := make([]int, max(n, 0))
	for i := range ranks {
		ranks[i] = first + i
	}
	return ranks
}

// Size is the number of ranks the layout names: the master, the workers,
// the servers and the spares.
func (r Ranks) Size() int { return 1 + len(r.workers) + len(r.servers) + len(r.spares) }

// Role names a rank in diagnostics: "master", "server<i>" for the i-th I/O
// server counting from 1, and "worker<rank>" for any other rank — a spare
// is a worker once it joins.
func (r Ranks) Role(rank int) string {
	if rank == 0 {
		return "master"
	}
	if i := slices.Index(r.servers, rank); i >= 0 {
		return fmt.Sprintf("server%d", i+1)
	}
	return fmt.Sprintf("worker%d", rank)
}

// workerIndex returns the 0-based worker index of a world rank, or -1.
func (r Ranks) workerIndex(rank int) int { return slices.Index(r.workers, rank) }

// isServer reports whether a world rank is one of the I/O servers.
func (r Ranks) isServer(rank int) bool { return slices.Contains(r.servers, rank) }

// home returns the world rank of the worker that owns block ord of array
// arr.
func (r Ranks) home(arr, ord int) int {
	return r.workers[HashPlacement(arr, ord, len(r.workers))]
}

// critical returns the ranks whose death recovery cannot survive: the
// master (sole scheduler) and — with a single replica — the I/O servers
// (then the sole holders of served-array state).  From two replicas up
// every served block lives on several servers, so server ranks become
// evictable like workers.
func (r Ranks) critical(replicas int) []int {
	ranks := []int{0}
	if replicas == 1 {
		ranks = append(ranks, r.servers...)
	}
	return ranks
}

// live is a job's view of the pool's membership: the workers w has not
// evicted, and every server (a dead one's blocks live on its replicas).
func (r Ranks) live(w *mpi.World) Ranks {
	return Ranks{workers: r.liveWorkers(w, nil, nil), servers: r.servers}
}

// The liveness queries below ask the world about the members; they run on
// the master's per-message path, so none allocates beyond what it appends
// to out.

// liveWorkers appends to out the workers w has not evicted and owes (nil:
// every worker) reports true for, in worker-index order.
func (r Ranks) liveWorkers(w *mpi.World, owes func(rank int) bool, out []int) []int {
	return appendLive(out, r.workers, w, owes)
}

// liveServers appends to out the servers w has not evicted and owes (nil:
// every server) reports true for, in server-index order.
func (r Ranks) liveServers(w *mpi.World, owes func(rank int) bool, out []int) []int {
	return appendLive(out, r.servers, w, owes)
}

// countWorkers counts the workers w has not evicted and owes reports true
// for.
func (r Ranks) countWorkers(w *mpi.World, owes func(rank int) bool) int {
	n := 0
	for _, wr := range r.workers {
		if !w.IsEvicted(wr) && owes(wr) {
			n++
		}
	}
	return n
}

// evictedServers counts the servers w has evicted.
func (r Ranks) evictedServers(w *mpi.World) int {
	n := 0
	for _, sr := range r.servers {
		if w.IsEvicted(sr) {
			n++
		}
	}
	return n
}

// evicted appends to out the workers, then the servers, that w has
// evicted.
func (r Ranks) evicted(w *mpi.World, out []int) []int {
	for _, ranks := range [...][]int{r.workers, r.servers} {
		for _, rank := range ranks {
			if w.IsEvicted(rank) {
				out = append(out, rank)
			}
		}
	}
	return out
}

func appendLive(out, ranks []int, w *mpi.World, owes func(rank int) bool) []int {
	for _, rank := range ranks {
		if !w.IsEvicted(rank) && (owes == nil || owes(rank)) {
			out = append(out, rank)
		}
	}
	return out
}
