// Package serve is the multi-tenant SIP job service behind `sial serve`:
// a queue and admission controller in front of a persistent sip.Pool,
// with an HTTP/JSON front door for submissions and status.
//
// Jobs are admitted strictly in submission order (FIFO), gated by two
// resources: a concurrency cap and a per-worker memory budget that the
// dry-run analysis (paper §V-B) charges each job against before it ever
// runs.  Once running, concurrent jobs share the pool's workers under a
// fairness gate that keeps any one job from monopolizing chunk
// dispatch.
package serve

import (
	"sync"
	"time"
)

// FairGate implements sip.ChunkGate: FIFO-with-fairness arbitration of
// pardo chunk dispatch between concurrent jobs.  Each job's master
// calls Acquire before answering one of its workers' chunk requests;
// the gate tracks a per-job dispatch count and parks a job that is more
// than Burst dispatches ahead of the slowest active job.
//
// The gate is soft: a parked job is released after a bounded wait even
// if still ahead, so a job whose peers are idle between chunk bursts
// (or wedged) can never deadlock behind them.  Fairness here is a
// throughput shaper, not a hard guarantee.
type FairGate struct {
	// Burst is how many dispatches a job may run ahead of the slowest
	// active job before being parked (default 4).
	Burst int64
	// MaxPark bounds one Acquire's total parking time (default 100ms).
	MaxPark time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	counts map[int]int64 // active job -> chunks dispatched
}

// NewFairGate returns a gate parking jobs burst dispatches ahead of the
// slowest active job.  burst <= 0 selects the default of 4.
func NewFairGate(burst int64) *FairGate {
	g := &FairGate{Burst: burst}
	if g.Burst <= 0 {
		g.Burst = 4
	}
	g.MaxPark = 100 * time.Millisecond
	g.cond = sync.NewCond(&g.mu)
	g.counts = map[int]int64{}
	return g
}

// Start registers a job as active with a zero dispatch count.  The
// service calls it at admission, before the job's master dispatches
// anything.
func (g *FairGate) Start(job int) {
	g.mu.Lock()
	g.counts[job] = 0
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Finish removes a job from the active set, so the remaining jobs stop
// being measured against its final count.
func (g *FairGate) Finish(job int) {
	g.mu.Lock()
	delete(g.counts, job)
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Acquire implements sip.ChunkGate.  It parks while job is more than
// Burst dispatches ahead of the slowest active job, up to MaxPark, then
// charges one dispatch and returns.
func (g *FairGate) Acquire(job int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.behind(job) {
		// The cond has no timed wait; a timer broadcast bounds the park so
		// the deadline is always observed.  It is armed only here, not on
		// every chunk hand-out.  The timer takes the lock first, and is
		// armed under it, so its broadcast cannot land between a deadline
		// check and the Wait that follows and be lost.
		deadline := time.Now().Add(g.MaxPark)
		timer := time.AfterFunc(g.MaxPark, func() {
			g.mu.Lock()
			g.mu.Unlock() //nolint:staticcheck // empty critical section is the point
			g.cond.Broadcast()
		})
		defer timer.Stop()
		for g.behind(job) && time.Now().Before(deadline) {
			g.cond.Wait()
		}
	}
	g.counts[job]++
	g.cond.Broadcast()
}

// behind reports whether job is over its fair-share lead.  A job not in
// the active set (Start was skipped) is never parked.
func (g *FairGate) behind(job int) bool {
	mine, active := g.counts[job]
	if !active {
		return false
	}
	min := mine
	for _, c := range g.counts {
		if c < min {
			min = c
		}
	}
	return mine > min+g.Burst
}

// Counts returns a copy of the active jobs' dispatch counts (for tests
// and status reporting).
func (g *FairGate) Counts() map[int]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[int]int64, len(g.counts))
	for j, c := range g.counts {
		out[j] = c
	}
	return out
}
