package sip

import "fmt"

// Placement of served arrays on the I/O servers, for every replication
// factor including 1.
//
// Every served block gets a deterministic preference order over the
// server ranks via rendezvous (highest-random-weight) hashing: each
// (block, server) pair is scored independently, and the block's replica
// set is the k live servers with the highest scores.  Rendezvous gives
// the properties the runtime needs with no shared state:
//
//   - Every rank computes the same placement from the same membership
//     view (the score is a pure function of job id, array id, block
//     ordinal, and server rank).
//   - The sets nest: the replica set under k is the head of the set
//     under k+1, so a block's single home under Replicas == 1 is its
//     primary under any larger factor.
//   - Eviction rebalances minimally: removing a server only changes
//     the replica sets of blocks that had it — for each such block the
//     next-preferred live server joins the set, and since the old set
//     was the top k of the same order, the new primary after <= k-1
//     deaths is always a rank that already holds the block.
//
// Under Replicas == 1 server ranks are critical (Ranks.critical), so the
// dead filter never removes one and a read can never fail over to a
// server that did not hold the block.

// mix64 folds v into the running hash h through the splitmix64
// finalizer, whose avalanche spreads the small consecutive integers that
// ids, ordinals and iteration values are over the whole word.
func mix64(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// rendezvousScore ranks server (the hash's seed) for block (job, arr, ord).
func rendezvousScore(job, arr, ord, server int) uint64 {
	return mix64(mix64(mix64(uint64(server), uint64(job)), uint64(arr)), uint64(ord))
}

// rendezvousReplicas appends to out[:0] up to k ranks from servers in
// descending rendezvous score for block (job, arr, ord), skipping ranks
// for which dead reports true.  Ties break toward the lower rank so the
// order is total.  Each pick is one scan for the best score below the
// previous pick, so nothing is built or sorted: with cap(out) >= k the
// selection does not allocate.
func rendezvousReplicas(out []int, job, arr, ord, k int, servers []int, dead func(rank int) bool) []int {
	out = out[:0]
	var prevScore uint64
	prevRank := -1
	for len(out) < k {
		best := -1
		var bestScore uint64
		for _, sr := range servers {
			if dead != nil && dead(sr) {
				continue
			}
			s := rendezvousScore(job, arr, ord, sr)
			if prevRank >= 0 && (s > prevScore || (s == prevScore && sr <= prevRank)) {
				continue // already picked, or ahead of the previous pick
			}
			if best < 0 || s > bestScore || (s == bestScore && sr < best) {
				best, bestScore = sr, s
			}
		}
		if best < 0 {
			break // fewer than k live servers
		}
		out = append(out, best)
		prevScore, prevRank = bestScore, best
	}
	return out
}

// replicaServers appends to out[:0] the live server ranks holding block
// (arr, ord) of a served array, primary first.  The result can be
// shorter than Replicas when fewer servers remain live; empty means
// every replica died.
func (rt *runtime) replicaServers(out []int, arr, ord int) []int {
	if len(rt.ranks.servers) == 0 {
		panic(fmt.Sprintf("sip: array %s is served but no I/O servers configured", rt.prog.Arrays[arr].Name))
	}
	return rendezvousReplicas(out, rt.job, arr, ord, rt.cfg.Replicas, rt.ranks.servers, rt.world.IsEvicted)
}
