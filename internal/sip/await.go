package sip

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// awaitAttempts is how many RecvTimeout-long receives pass in silence
// before await rules on it.
const awaitAttempts = 3

// waitFor says what a wait is for.  It is read only by a verdict, so a
// block wait names its key instead of formatting it on every fetch.
type waitFor struct {
	what string
	key  *blockKey // when set, what is about this block
}

func (f waitFor) String() string {
	if f.key != nil {
		return f.what + " " + f.key.String()
	}
	return f.what
}

// await is the one bounded receive of a SIP run (docs/FAULTS.md, "Who
// waits, and what silence means"): every wait of a master or a worker for
// a message it is owed goes through it, so that how long to wait, what
// ends a wait early and what silence means are decided here alone.
//
// It returns the next message on c from src with a tag in [tagLo, tagHi]
// (ok), or ok == false with a nil error when the caller must look again at
// whom it is waiting for ("woke"): the membership changed, or src itself is
// evicted (now or before the wait began — a message it delivered first is
// still returned).
//
// Silence is awaitAttempts receives of Config.RecvTimeout each without a
// message (0 never times out).  Silence is the last death signal for a
// rank that stopped answering, and the verdict on it is one rule: evict
// the first evictable rank of suspects (the ranks owing the message; nil
// means src) and return "woke"; failing that, return a verdict naming the
// first suspect, which fails the world (rule), or a plain timeout when
// nobody is suspected.  A pool job never reaches a verdict: it has no
// RecvTimeout, because a quiet pool rank is slow — serving another job,
// parked by the fairness gate — and pool ranks die by explicit eviction
// (Pool.Kill, liveness), which wakes this wait.
//
// With no deadline the wait is a plain blocking receive; none of the
// closures escape, so a wait allocates nothing.
func (rt *runtime) await(c *mpi.Comm, src, tagLo, tagHi int, what waitFor, suspects func() []int) (mpi.Message, bool, error) {
	world := rt.world
	d := rt.cfg.RecvTimeout
	// An eviction after the stamp is read moves it; one before is seen by
	// the check of src.
	stamp := world.EvictStamp()
	gone := src != mpi.AnySource && world.IsEvicted(src)
	cancel := func() bool {
		return gone || world.EvictStamp() != stamp
	}
	for i := 0; i < awaitAttempts; i++ {
		if msg, ok := c.RecvRangeUntil(src, tagLo, tagHi, d, cancel); ok {
			return msg, true, nil
		}
		if d <= 0 || cancel() {
			return mpi.Message{}, false, nil
		}
	}

	who := "master"
	if c.Rank() != 0 {
		who = fmt.Sprintf("worker %d", c.Rank())
	}
	total := awaitAttempts * d
	var waiting []int
	if suspects != nil {
		waiting = suspects()
	} else if src != mpi.AnySource {
		waiting = []int{src}
	}
	for _, r := range waiting {
		if world.Evictable(r) {
			world.Evict(r, fmt.Sprintf("%s heard no %s from it within %v", who, what, total))
			return mpi.Message{}, false, nil
		}
	}
	if len(waiting) == 0 {
		return mpi.Message{}, false, fmt.Errorf("sip: %s: no %s within %v", who, what, total)
	}
	reason := fmt.Sprintf("%s heard no %s within %v", who, what, total)
	if len(waiting) > 1 {
		reason += fmt.Sprintf(" (still waiting on ranks %v)", waiting)
	}
	return mpi.Message{}, false, verdict{&mpi.RankFailure{Rank: waiting[0], Reason: reason}}
}

// verdict is await's ruling that a rank owing a message is dead: the
// RankFailure naming it.  It is the one failure that fails the world
// (rule).  Every other failure — a rank's own error, a RankFailure a caller
// built from an eviction — is reported to the job's master, which winds
// the job down through its normal shutdown.
type verdict struct{ *mpi.RankFailure }

func (v verdict) Unwrap() error { return v.RankFailure }

// rule fails the world when err carries a verdict, so every rank of the
// run unwinds now instead of waiting on the dead one, and returns err.  The
// master calls it as a verdict comes back to it, a worker after its done
// report, which then travels ahead of the poison frame on every
// connection.
func (rt *runtime) rule(err error) error {
	if err != nil {
		var v verdict // declared here: errors.As moves it to the heap
		if errors.As(err, &v) {
			rt.world.Fail(v.Rank, v.Reason)
		}
	}
	return err
}

// collect is the one wait for a known set of ranks to reply: it receives
// on this job's tag until debts, the replies still owed by rank, is
// empty, and hands each counted reply to got (nil: nothing to fold).  Its
// callers are a worker's put and prepare acks before a sync report, the
// master's server flush, resume rehydration and the shutdown answer of
// every live home, and a pool job's registration with the shared servers.
//
// A debtor evicted before paying is written off: a dead home's blocks
// died with it, a dead server's live on its replicas, and an evicted
// server never answers.  A reply from a rank that owes nothing — a stale
// ack delivered before the firewall went up, or a second reply from a
// paid rank — is not counted.  Silence is await's to rule on, with the
// debtors as suspects in rank order, so a verdict names the lowest.
// Until a verdict collect allocates nothing beyond the caller's map.
func (rt *runtime) collect(c *mpi.Comm, tag int, what string, debts map[int]int, got func(mpi.Message)) error {
	debtors := func() []int {
		ranks := make([]int, 0, len(debts))
		for r := range debts {
			ranks = append(ranks, r)
		}
		slices.Sort(ranks)
		return ranks
	}
	for {
		for r := range debts {
			if rt.world.IsEvicted(r) {
				delete(debts, r)
			}
		}
		if len(debts) == 0 {
			return nil
		}
		m, ok, err := rt.await(c, mpi.AnySource, rt.tag(tag), rt.tag(tag), waitFor{what: what}, debtors)
		if err != nil {
			return err
		}
		if !ok || debts[m.Source] == 0 {
			continue
		}
		if debts[m.Source]--; debts[m.Source] == 0 {
			delete(debts, m.Source)
		}
		if got != nil {
			got(m)
		}
	}
}

// oneEach is a collect ledger in which each of ranks owes one reply.
func oneEach(ranks []int) map[int]int {
	debts := make(map[int]int, len(ranks))
	for _, r := range ranks {
		debts[r] = 1
	}
	return debts
}
