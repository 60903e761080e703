package sip

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/wire"
)

// master is the SIP management task (paper §V-B): it allocates pardo
// iterations to workers in guided chunks, coordinates checkpoints, and
// runs the shutdown protocol.
type master struct {
	rt   *runtime
	comm *mpi.Comm

	runs map[[2]int]*pardoRun // (pardo id, generation) -> scheduler state

	syncs     map[int]*syncState // sync round -> progress
	evictSeen map[int]bool       // evictions already folded into the ledger
	doneRanks map[int]bool       // workers past the end round, ranks that reported a failure
	scalars   []float64          // the end round's scalars, from its lowest-ranked report
	// evictStamp is the world's EvictStamp as of the last noteEvictions
	// scan (0, a world that never changed membership, needs none).
	evictStamp uint64

	// ownErr is the master's own failure and workerErr the running
	// diagnosis relayed over the done path (see recordRelay); outcome
	// picks the run's error from them.
	ownErr, workerErr error

	// abandoned records that the job was given up (abandon): pardo
	// dispatch is starved from here on.  canceled records that Cancel or
	// Stop gave it up, not a failure.
	abandoned, canceled bool

	// Snapshot / resume state (Config.CkptInterval > 0; snapshot.go).
	snap snapState
	// Resume scalar corrections: on the first collective over scalar sc
	// after a resume, injS[sc] (the manifest's true total) minus the
	// resumed workers' bases injB[sc] replaces the contributions of the
	// phase that was not re-executed.  injArmed marks corrections not yet
	// consumed.
	injS     []float64
	injB     []float64
	injArmed []bool
	// resumeBase is the worker state installed on the round-0 release of
	// a resumed run; resumeSkip holds per-(pardo,gen) spans already
	// completed before the snapshot, stepped over by re-dispatch.
	resumeBase *workerState
	resumeSkip map[[2]int][]span
	resumed    bool
	// stopNoted records that Config.Stop fired and the final snapshot
	// path is (or has been) taken.
	stopNoted bool

	// Replication state: anti-entropy passes after server evictions.
	replRound  int // anti-entropy pass number (stale-ack filter)
	replHealed int // evicted-server count as of the last completed pass
}

// syncState tracks one master-mediated sync round: the report of every
// worker that has reached it (and is parked awaiting release, or died
// after reporting), by sender, with what it carried — a collective's
// contribution, a blocks_to_list partition, the captured interpreter state
// (nil when checkpointing is off or a pardo frame was active; the snapshot
// base is taken from the lowest live rank).  A report implies every
// put/prepare the worker issued this phase is acknowledged, so it doubles
// as the completion ack for all chunks the ledger holds against that
// worker.  kind and id are the round's, the same in every report.
type syncState struct {
	kind, id int
	reports  map[int]syncMsg
}

func newMaster(rt *runtime) *master {
	m := &master{
		rt:        rt,
		comm:      rt.world.Comm(0),
		runs:      map[[2]int]*pardoRun{},
		syncs:     map[int]*syncState{},
		evictSeen: map[int]bool{},
		doneRanks: map[int]bool{},
	}
	m.initSnap()
	return m
}

// span is a chunk of a pardo's iteration space: the candidates whose
// row-major ordinals lie in [lo, hi), of which n pass the where clauses.
// A chunk, a replay order, the chunk ledger and a snapshot's overlay are
// spans, so they grow with the number of chunks, not of iterations.
type span struct{ lo, hi, n int }

// space is the iteration space of one pardo: the ranges of its indices,
// walked in row-major order, the last index fastest.
type space struct {
	info    *bytecode.PardoInfo
	params  []int
	los, ns []int // first value and number of values, per index
	total   int   // candidates
}

// newSpaces lays out the iteration space of every pardo of rt's program.
func newSpaces(rt *runtime) []space {
	spaces := make([]space, len(rt.prog.Pardos))
	for pid := range spaces {
		s := &spaces[pid]
		s.info, s.params, s.total = &rt.prog.Pardos[pid], rt.layout.ParamVals, 1
		s.los, s.ns = make([]int, len(s.info.Indices)), make([]int, len(s.info.Indices))
		for i, id := range s.info.Indices {
			lo, hi := rt.layout.IndexRange(id)
			s.los[i], s.ns[i] = lo, max(hi-lo+1, 0)
			s.total *= s.ns[i]
		}
	}
	return spaces
}

// cursor walks a space: vals holds the candidate with ordinal pos, and
// stack is the where code's scratch.  The master's pardoRun and a
// worker's pardo frame each own one, so a walk allocates nothing.
type cursor struct {
	sp    *space
	pos   int
	vals  []int
	stack []float64
}

func newCursor(sp *space) cursor {
	return cursor{sp: sp, vals: slices.Clone(sp.los), stack: make([]float64, 0, len(sp.info.Where))}
}

// seek moves the cursor to the candidate with ordinal ord < total.
func (c *cursor) seek(ord int) {
	c.pos = ord
	for i := len(c.vals) - 1; i >= 0; i-- {
		c.vals[i] = c.sp.los[i] + ord%c.sp.ns[i]
		ord /= c.sp.ns[i]
	}
}

// step moves the cursor to the next candidate.
func (c *cursor) step() {
	c.pos++
	for i := len(c.vals) - 1; i >= 0; i-- {
		if c.vals[i]++; c.vals[i] < c.sp.los[i]+c.sp.ns[i] {
			return
		}
		c.vals[i] = c.sp.los[i]
	}
}

// passes reports whether the candidate satisfies every where clause.
func (c *cursor) passes() bool { return c.sp.info.Passes(c.vals, c.sp.params, c.stack) }

// pardoRun hands out the iteration space of one pardo execution in
// guided chunks and keeps the ledger of what it handed out.
type pardoRun struct {
	cursor     // the next candidate
	issued int // iterations handed out fresh

	// Chunk ledger: the chunks handed to each worker and not yet
	// acknowledged by its next sync report, plus chunks reclaimed from
	// dead workers.
	assigned map[int][]span
	requeue  []span

	// Checkpoint watermarks (Config.CkptInterval > 0).  completed[wr]
	// holds the chunks wr has certainly finished — a worker requests
	// chunk N+1 only after executing all of chunk N, so the assignment
	// ledger at request time is the completed set.  completedDelta[wr] is
	// the in-pardo scalar contribution covering exactly those iterations.
	// skip holds, by ordinal, the spans a resumed run must not
	// re-dispatch (completed before the snapshot), carried forward into
	// further snapshots; ahead is its part the walk has not passed.
	completed      map[int][]span
	completedDelta map[int][]float64
	skip, ahead    []span
}

func newPardoRun(rt *runtime, pid int) *pardoRun {
	return &pardoRun{cursor: newCursor(&rt.spaces[pid]), assigned: map[int][]span{}}
}

// next returns the span of up to n fresh iterations: from the walk's
// position through the n-th candidate that passes the where clauses, or
// to the end of the space.  A span holds no skipped candidate: it ends
// where a skip span begins, or starts where one ends.  The span of an
// exhausted space has n == 0.
func (r *pardoRun) next(n int) span {
	s := span{lo: r.pos}
	for r.pos < r.sp.total && s.n < n {
		if len(r.ahead) > 0 && r.pos >= r.ahead[0].lo {
			if s.n > 0 {
				break
			}
			r.seek(max(r.pos, r.ahead[0].hi))
			r.ahead, s.lo = r.ahead[1:], r.pos
			continue
		}
		if r.passes() {
			s.n++
		}
		r.step()
	}
	s.hi = r.pos
	r.issued += s.n
	return s
}

// take returns the next chunk for worker wr of about n iterations: a
// chunk reclaimed from a dead worker before fresh ones.  Every hand-out
// stays in the ledger until wr acknowledges it at its next sync point.
func (r *pardoRun) take(n, wr int, redispatched *obs.Counter) span {
	var s span
	if len(r.requeue) > 0 {
		s, r.requeue = r.requeue[0], r.requeue[1:]
		redispatched.Inc()
	} else {
		s = r.next(n)
	}
	if s.n > 0 {
		r.assigned[wr] = append(r.assigned[wr], s)
	}
	return s
}

// chunkSize implements guided self-scheduling: chunks shrink as the
// remaining work shrinks ("The chunk size decreases as the computation
// proceeds.  This is similar to ... guided scheduling in OpenMP",
// paper §V-B).
func (r *pardoRun) chunkSize(workers int) int {
	return min(max((r.sp.total-r.issued)/(2*workers), 1), 4096)
}

// recvAny is the master's receive on one of this job's tags, or with
// mpi.AnyTag on its whole window: several jobs' masters share rank 0's
// mailbox because each window is disjoint (a plain AnyTag receive would
// steal the other jobs' traffic).  ok == false with a nil error means the
// caller must look again at whom it is waiting for (see await).  A
// verdict fails the world before it is returned.
func (m *master) recvAny(tag int, what string, suspects func() []int) (mpi.Message, bool, error) {
	lo, hi := m.rt.tag(tag), m.rt.tag(tag)
	if tag == mpi.AnyTag {
		lo, hi = m.rt.tagBase, m.rt.tagBase+jobTagStride-1
	}
	msg, ok, err := m.rt.await(m.comm, mpi.AnySource, lo, hi, waitFor{what: what}, suspects)
	return msg, ok, m.rt.rule(err)
}

// collect is runtime.collect on the master's comm (see recvAny).
func (m *master) collect(tag int, what string, debts map[int]int, got func(mpi.Message)) error {
	return m.rt.rule(m.rt.collect(m.comm, tag, what, debts, got))
}

// relayErr rebuilds a failure rank from reported over the done path.
// When the reporter attributed it to a specific rank, the returned error
// wraps a reconstructed RankFailure so errors.As works on the master's
// result even if the relay beat the master's own detection; a
// bystander's echo of an abort it did not cause gets its ErrAborted back
// (worker.run always wraps it last), so errors.Is classifies it as one.
func (m *master) relayErr(from int, done doneMsg) error {
	if done.failRank >= 0 {
		rf := &mpi.RankFailure{Rank: done.failRank, Reason: done.failReason}
		return fmt.Errorf("sip: master: %w (%s; reported by rank %d)",
			rf, m.rt.ranks.Role(rf.Rank), from)
	}
	if text, echo := strings.CutSuffix(done.err, mpi.ErrAborted.Error()); echo {
		return fmt.Errorf("%s%w", text, mpi.ErrAborted)
	}
	return errors.New(done.err)
}

// relayWeight orders relayed failures by how much they explain: a
// diagnosis naming a failed rank, then a rank's own error, then a
// bystander's echo of an abort.
func relayWeight(err error) int {
	var rf *mpi.RankFailure
	switch {
	case errors.As(err, &rf):
		return 2
	case errors.Is(err, mpi.ErrAborted):
		return 0
	}
	return 1
}

// recordRelay folds one failure reported over the done path into the
// running diagnosis and gives the job up.  The weightier error wins and
// the first among equals: with several ranks racing to report, a
// bystander's generic "aborted after peer failure" can reach the master
// before the failed rank's own report.
func (m *master) recordRelay(trk *obs.Track, from int, done doneMsg) {
	if relay := m.relayErr(from, done); m.workerErr == nil || relayWeight(relay) > relayWeight(m.workerErr) {
		m.workerErr = relay
	}
	m.abandon(trk, "job_failed", false)
}

// noteCancel folds a fired Config.Cancel into the scheduler state, and
// keeps an abandoned job's ledger empty: iterations an eviction reclaimed
// after the job was given up must not be replayed either.
func (m *master) noteCancel(trk *obs.Track) {
	if m.abandoned || fired(m.rt.cfg.Cancel) {
		m.abandon(trk, "job_canceled", true)
	}
}

// abandon gives the job up — on a fired Config.Cancel, after the final
// snapshot of a Config.Stop, or on a failure of the master or a worker:
// from here on every chunk request is answered empty, and the iterations
// the ledger holds — handed out, or reclaimed from dead workers — are
// dropped rather than replayed.  Sync rounds, gathers, and the shutdown
// protocol all proceed normally, so the job's tag window and server-side
// namespace are retired exactly as on a normal completion; only the
// answers are garbage, and the run reports outcome's error instead of a
// result.  The first call names the trace instant (event) and says
// whether Cancel or Stop gave the job up (cancel).
func (m *master) abandon(trk *obs.Track, event string, cancel bool) {
	if !m.abandoned {
		m.abandoned, m.canceled = true, cancel
		m.snap.stopPending = false
		if trk != nil {
			trk.Instant(obs.CatChunk, event, obs.AInt("job", m.rt.job))
		}
	}
	for _, r := range m.runs {
		r.requeue = nil
		clear(r.assigned)
	}
}

// outcome is the error the run ends with: the master's own failure, else
// ErrJobCanceled when Cancel or Stop gave the job up — a worker that
// failed mid-fast-forward failed because the job was abandoned, not the
// other way around — else the weightiest relayed failure.
func (m *master) outcome() error {
	if m.ownErr == nil && m.canceled {
		return fmt.Errorf("sip: job %d: %w", m.rt.job, ErrJobCanceled)
	}
	return cmp.Or(m.ownErr, m.workerErr)
}

// run services messages until every worker has passed the end round or
// failed, then shuts down every home — each worker's service loop and each
// I/O server — and returns once every live home has answered.
func (m *master) run() (res *Result, err error) {
	rt := m.rt
	defer func() {
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				// The master's own failure, or what a rank relayed before
				// the abort when that explains it (a worker's done report
				// travels ahead of the poison frame it sends), else the
				// abort.
				err = cmp.Or(m.ownErr, m.workerErr)
				if err == nil || (rt.world.Failure() != nil && relayWeight(err) == 0) {
					err = rt.abortError("master")
				}
				return
			}
			panic(r)
		}
	}()
	trk := rt.tracer.Track(0, 0, "master", "dispatch")
	chunkCtr := rt.metrics.Counter(metricMasterChunks)
	iterCtr := rt.metrics.Counter(metricMasterIters)
	redispCtr := rt.metrics.Counter(metricMasterRedispatched)
	res = &Result{Arrays: map[string][]ArrayBlock{}, Served: map[string][]ArrayBlock{}}
	if err := m.resumeSetup(trk); err != nil {
		// The master's own failure winds the job down as a worker's does:
		// the workers parked in the start-up round are released into an
		// abandoned job.
		m.ownErr = err
		m.abandon(trk, "job_failed", false)
	}
	for m.pendingWorkers() > 0 {
		m.noteEvictions(trk)
		m.noteCancel(trk)
		m.noteStop(trk)
		if err := m.completeSyncRounds(redispCtr, trk); err != nil {
			return res, err
		}
		if m.pendingWorkers() == 0 {
			break
		}
		msg, ok, err := m.recvAny(mpi.AnyTag, "worker traffic", m.owedWorkers)
		if err != nil {
			return res, err
		}
		if !ok {
			continue // membership changed: fold it in
		}
		from := msg.Source
		switch msg.Tag - rt.tagBase {
		case tagChunkReq:
			start := trk.Start()
			req := msg.Data.(chunkMsg)
			if rt.world.IsEvicted(from) {
				// A zombie's request racing its own eviction (the frame was
				// mailed before the rank died).  Serving it would assign
				// fresh iterations to the dead rank AFTER noteEvictions
				// swept its ledger entry — stranding them unexecuted and
				// unreplayed, which silently corrupts the collective.
				break
			}
			if m.abandoned {
				// The job is being abandoned: starve the pardo so every
				// worker fast-forwards to the next sync point and, from
				// there, the shutdown protocol.  No gate charge — an
				// abandoned job must not brake its live peers.
				m.comm.Send(from, rt.tag(tagChunkRep), chunkReply{})
				break
			}
			// Fairness between concurrent jobs (sial serve): the gate may
			// park this job's dispatch while other active jobs are behind
			// on their share of the pool.
			if rt.gate != nil {
				rt.gate.Acquire(rt.job)
			}
			key := [2]int{req.pardo, req.gen}
			r, ok := m.runs[key]
			if !ok {
				r = newPardoRun(rt, req.pardo)
				if sk, ok := m.resumeSkip[key]; ok {
					slices.SortFunc(sk, func(a, b span) int { return a.lo - b.lo })
					r.skip, r.ahead = sk, sk
					delete(m.resumeSkip, key)
				}
				m.runs[key] = r
			}
			// Fold the requester's progress into the chunk ledger before
			// handing out more work, and possibly take a mid-pardo snapshot
			// at the -ckpt-interval watermark.
			m.notePardoProgress(from, req, r, trk)
			if m.abandoned {
				// A stop-triggered snapshot just self-canceled the job.
				m.comm.Send(from, rt.tag(tagChunkRep), chunkReply{})
				break
			}
			// A drained run stays in m.runs until the next sync round seals
			// the phase: a worker may still die holding iterations that need
			// re-queuing here.
			chunk := r.take(r.chunkSize(len(rt.ranks.workers)), from, redispCtr)
			m.comm.Send(from, rt.tag(tagChunkRep), chunkReply{chunk})
			chunkCtr.Inc()
			iterCtr.Add(int64(chunk.n))
			if trk != nil {
				// Flow-out endpoint: the worker's matching wait_block span
				// records the flow-in half under the same (0, requester,
				// tagChunkRep) id, so the merged trace draws the arrow.
				trk.FlowOut(start, msgFlowID(0, from, rt.tag(tagChunkRep)),
					obs.CatChunk, "dispatch_chunk",
					obs.AInt("pardo", req.pardo), obs.AInt("iters", chunk.n))
			}
		case tagObs:
			m.handleObsReport(from, msg.Data.(obsReportMsg), false)
		case tagSync:
			m.handleSync(from, msg.Data.(syncMsg))
		case tagDone:
			// A failure report.  A server whose blocks live on elsewhere is
			// evicted, and the run goes on degraded.  A report racing its
			// rank's eviction is dropped: marking a zombie worker done would
			// cancel the re-queue of its in-flight iterations.
			done := msg.Data.(doneMsg)
			if trk != nil {
				trk.Instant(obs.CatChunk, "rank_failed", obs.AInt("rank", from))
			}
			switch {
			case rt.ranks.isServer(from) && rt.world.Evictable(from):
				rt.world.Evict(from, done.err)
			case !rt.world.IsEvicted(from):
				m.doneRanks[from] = true
				m.recordRelay(trk, from, done)
			}
		}
	}
	// Shut every home down and collect one answer from each live one, with
	// its blocks when gathering and its rank's final telemetry when it
	// ships, so no shutdown is still queued when the world closes.  A
	// pool's shared servers retire the job and keep serving other tenants.
	// A send to an evicted rank is dropped, its answer written off.
	shut, homes := shutdownMsg{gather: rt.cfg.GatherArrays, job: rt.job}, oneEach(rt.ranks.workers)
	for _, wr := range rt.ranks.workers {
		m.comm.Send(wr, rt.tag(tagService), shut)
	}
	for _, sr := range rt.ranks.servers {
		m.comm.Send(sr, tagServer, shut)
		homes[sr] = 1
	}
	answer := func(msg mpi.Message) { m.recordGather(res, msg.Source, msg.Data.(gatherMsg)) }
	if err := m.collect(tagGather, "shutdown answer", homes, answer); err != nil {
		return res, err
	}
	res.Scalars = map[string]float64{}
	for i, s := range rt.prog.Scalars {
		if i < len(m.scalars) {
			res.Scalars[s.Name] = m.scalars[i]
		}
	}
	err = m.outcome()
	m.cleanupSnapshots(err)
	return res, err
}

// recordGather folds home from's answer to shutdown into res, and its
// rank's final telemetry report into the aggregator.  Every live replica
// of a served block reports a copy, so only the current primary's is
// kept: after an eviction the promoted backups may not have been healed
// yet, but the primary is always a prior holder with the authoritative
// copy.
func (m *master) recordGather(res *Result, from int, g gatherMsg) {
	if g.obs != nil {
		// A periodic report shipped before the answer is queued ahead of it
		// (a sender's messages arrive in order): fold it first.
		for r, ok := m.comm.TryRecv(from, tagObs); ok; r, ok = m.comm.TryRecv(from, tagObs) {
			m.handleObsReport(from, r.Data.(obsReportMsg), false)
		}
		m.handleObsReport(from, *g.obs, true)
	}
	var reps []int
	for arr, blocks := range g.arrays {
		name := m.rt.prog.Arrays[arr].Name
		if !m.rt.ranks.isServer(from) {
			res.Arrays[name] = append(res.Arrays[name], blocks...)
			continue
		}
		for _, ab := range blocks {
			if reps = m.rt.replicaServers(reps, arr, ab.Ord); len(reps) > 0 && reps[0] == from {
				res.Served[name] = append(res.Served[name], ab)
			}
		}
	}
}

// pendingWorkers counts workers the master still owes a completion:
// alive and not yet done.
func (m *master) pendingWorkers() int { return m.rt.ranks.countWorkers(m.rt.world, m.owes) }

// owedWorkers lists the workers pendingWorkers counts, in worker-index
// order: the suspects of a silent main loop and the parked workers of a
// complete sync round.
func (m *master) owedWorkers() []int { return m.rt.ranks.liveWorkers(m.rt.world, m.owes, nil) }

// owes reports whether worker wr has not reported done.
func (m *master) owes(wr int) bool { return !m.doneRanks[wr] }

// noteEvictions folds newly evicted ranks into the scheduler state.
// For workers: their unacknowledged iterations go back on the
// re-dispatch queue, and sync rounds — which ask every live worker for its
// report — stop waiting for them.  Evicted I/O servers only need
// recording — their blocks heal at the next server barrier's
// anti-entropy pass, and reads fail over to the surviving replicas in
// the meantime.
//
// It runs on every turn of the master loop, so a turn with no membership
// change since the last scan returns at once.  The stamp is read before
// the evicted set: World.Evict records a rank before bumping the stamp,
// so an eviction racing the read is either in the set now or rescanned
// next turn, and evictSeen keeps a rank from being folded in twice.
func (m *master) noteEvictions(trk *obs.Track) {
	stamp := m.rt.world.EvictStamp()
	if stamp == m.evictStamp {
		return
	}
	m.evictStamp = stamp
	dead := m.rt.ranks.evicted(m.rt.world, nil)
	reasons := m.rt.world.Evicted() // after dead: it holds every rank dead does
	for _, rank := range dead {
		if !m.evictSeen[rank] {
			m.evictSeen[rank] = true
			m.noteEviction(trk, rank, reasons[rank])
		}
	}
}

// noteEviction folds one newly evicted rank into the scheduler state.
func (m *master) noteEviction(trk *obs.Track, rank int, reason string) {
	m.rt.metrics.Counter(metricFaultRankEvicted).Inc()
	m.rt.metrics.Counter(fmt.Sprintf("%s.rank%d", metricFaultRankEvicted, rank)).Inc()
	m.rt.flightRecord("evicted", rank, reason)
	if m.rt.ranks.isServer(rank) {
		if trk != nil {
			trk.Instant(obs.CatChunk, "server_evicted", obs.AInt("rank", rank))
		}
		return
	}
	if trk != nil {
		trk.Instant(obs.CatChunk, "worker_evicted", obs.AInt("rank", rank))
	}
	if m.doneRanks[rank] {
		return // finished before dying: nothing in flight
	}
	// Reclaim every chunk the worker had not acknowledged.  The dead
	// worker's checkpoint watermark is dropped with it: its completed
	// iterations go back on the queue, so counting them in a later
	// snapshot's overlay would double-execute nothing but skip their (now
	// re-queued) scalar contributions.
	for _, r := range m.runs {
		r.requeue = append(r.requeue, r.assigned[rank]...)
		delete(r.assigned, rank)
		delete(r.completed, rank)
		delete(r.completedDelta, rank)
	}
}

// handleSync records worker from's arrival at a sync point.  The report
// doubles as the completion ack for everything the ledger holds against
// that worker: by protocol it is sent only after all of the worker's
// put/prepare traffic has been acknowledged.
func (m *master) handleSync(from int, req syncMsg) {
	if m.rt.world.IsEvicted(from) {
		return
	}
	s := m.syncs[req.round]
	if s == nil {
		s = &syncState{reports: map[int]syncMsg{}}
		m.syncs[req.round] = s
	}
	s.kind, s.id = req.kind, req.id
	s.reports[from] = req
	for _, r := range m.runs {
		delete(r.assigned, from)
	}
}

// completeSyncRounds closes any sync round every live worker has
// reached.  If dead workers left re-queued iterations behind, parked
// survivors are first ordered to replay them (and re-report); once the
// queues are dry the master performs the round's coordination — server
// flush for server_barrier, element-wise sum for collectives, the file
// written for blocks_to_list or read for list_to_blocks, the scalars kept
// and every reporter marked done at the end round — releases everyone,
// and seals the phase's pardo runs.
func (m *master) completeSyncRounds(redispCtr *obs.Counter, trk *obs.Track) error {
	rt := m.rt
	for round, s := range m.syncs {
		unreported := func(wr int) bool {
			_, reported := s.reports[wr]
			return !reported && m.owes(wr)
		}
		if rt.ranks.countWorkers(rt.world, unreported) > 0 {
			continue
		}
		parked := m.owedWorkers()
		if len(parked) == 0 {
			continue
		}
		if m.resumeRequeued(round, s, parked, redispCtr) {
			continue // survivors are replaying; they will re-report
		}
		if s.kind == syncEnd {
			// Every reporter is done; collectives made their scalars
			// identical, and the lowest-ranked reporter's are the run's.
			lowest := -1
			for wr, r := range s.reports {
				if m.doneRanks[wr] = true; lowest < 0 || wr < lowest {
					m.scalars, lowest = r.vals, wr
				}
			}
		}
		var vals []float64
		if s.kind == syncCollective {
			// Sum over every report, including workers that reported and
			// then died: their report covered work that is not replayed.
			for _, r := range s.reports {
				for len(vals) < len(r.vals) {
					vals = append(vals, 0)
				}
				for i, v := range r.vals {
					vals[i] += v
				}
			}
			// Resume correction: the reports' bases came from the snapshot,
			// but the phase before it was not re-executed.  Substitute the
			// manifest's true total for the reported bases, once per scalar.
			if sc := s.id; sc >= 0 && sc < len(m.injArmed) &&
				m.injArmed[sc] && len(vals) > 0 {
				vals[0] += m.injS[sc] - float64(len(s.reports))*m.injB[sc]
				m.injArmed[sc] = false
			}
		}
		if s.kind == syncServerBarrier {
			if err := m.flushServers(); err != nil {
				return err
			}
			// Heal replication before releasing anyone: once workers
			// resume, further traffic would race the re-replication
			// pushes.
			if err := m.rereplicateServers(); err != nil {
				return err
			}
		}
		// A checkpoint file is written from, or dealt out to, the parked
		// workers.  A failure is theirs to report: it travels in the release.
		var homed map[int][]ArrayBlock
		var ckptErr error
		switch s.kind {
		case syncSave:
			// Every report's partition, as a collective sums every report: a
			// worker that reported and then died had its blocks at the save.
			var all []ArrayBlock
			for _, wr := range rt.ranks.workers {
				all = append(all, s.reports[wr].blocks...)
			}
			ckptErr = writeIntegrityFile(m.ckptPath(s.id), ckptFileMagic, wire.Encode(ckptData{arr: s.id, blocks: all}))
		case syncLoad:
			homed, ckptErr = m.readCkptFile(s.id)
		}
		// Sync points are the snapshot consistency points: every live
		// worker is parked, every effect acknowledged, dirty server state
		// flushable on demand.
		if err := m.maybeSyncSnapshot(s, parked, vals, trk); err != nil {
			return err
		}
		for _, wr := range parked {
			rep := syncReply{round: round, vals: vals, blocks: homed[wr]}
			if ckptErr != nil {
				rep.err = ckptErr.Error()
			}
			if round == 0 && m.resumed {
				rep.state = m.resumeBase
			}
			m.comm.Send(wr, rt.tag(tagSyncRep), rep)
		}
		delete(m.syncs, round)
		// Seal the phase: every run's iterations are executed and acked.
		for key := range m.runs {
			delete(m.runs, key)
		}
	}
	return nil
}

// resumeRequeued hands the re-queued chunks of one pardo run to the
// parked survivors and reports whether any were dispatched.  Each
// ordered worker replays its share and re-reports the round, so the
// round stays open until every queue is dry.
func (m *master) resumeRequeued(round int, s *syncState, parked []int, redispCtr *obs.Counter) bool {
	for key, r := range m.runs {
		if len(r.requeue) == 0 {
			continue
		}
		per := (len(r.requeue) + len(parked) - 1) / len(parked)
		for _, wr := range parked[:(len(r.requeue)+per-1)/per] {
			k := min(per, len(r.requeue))
			share := r.requeue[:k:k]
			r.requeue = r.requeue[k:]
			r.assigned[wr] = append(r.assigned[wr], share...)
			delete(s.reports, wr)
			m.comm.Send(wr, m.rt.tag(tagSyncRep), syncReply{
				round: round, resume: true, pardo: key[0], gen: key[1], spans: share,
			})
			redispCtr.Inc()
		}
		return true // one run at a time; the re-reports trigger the next
	}
	return false
}

// flushServers performs the server_barrier flush on the workers'
// behalf: with every live worker parked at the sync round there is no
// competing traffic, so the master simply asks each live server to
// flush and waits for the acks.
func (m *master) flushServers() error {
	for _, sr := range m.rt.ranks.servers {
		m.comm.Send(sr, tagServer, flushMsg{job: m.rt.job}) // dropped when sr is evicted, and its ack written off
	}
	return m.collect(tagAck, "flush ack", oneEach(m.rt.ranks.servers), nil)
}

// rereplicateServers runs the anti-entropy pass at a server barrier
// after a server eviction, while every live worker is parked (without
// replication servers are critical and never evicted, so the pass never
// runs): each live server scans the blocks it holds, and pushes the
// ones it is primary for to replicas promoted into the set by the
// eviction.  The master coordinates the pass so it completes before the
// barrier releases — it waits for every server's scan ack plus one ack
// per pushed block, all on tagRepl.  A further eviction mid-pass
// restarts it with a higher round number; stragglers from the
// abandoned round are discarded by their round stamp.
func (m *master) rereplicateServers() error {
	rt := m.rt
	if rt.ranks.evictedServers(rt.world) == m.replHealed {
		return nil
	}
	roundCtr := rt.metrics.Counter(metricReplRounds)
	pushCtr := rt.metrics.Counter(metricReplPushed)
restart:
	for {
		healedTo := rt.ranks.evictedServers(rt.world)
		m.replRound++
		round := m.replRound
		live := rt.ranks.liveServers(rt.world, nil, nil)
		if len(live) == 0 {
			// Every server is gone; reads will fail with a cause instead.
			m.replHealed = healedTo
			return nil
		}
		for _, sr := range live {
			m.comm.Send(sr, tagServer, rereplicateMsg{round: round, job: rt.job})
		}
		roundCtr.Inc()
		scanned := map[int]bool{}
		pushes, acks := 0, 0
		for len(scanned) < len(live) || acks < pushes {
			if rt.ranks.evictedServers(rt.world) != healedTo {
				continue restart // a pass participant died: rescan
			}
			// Any eviction restarts the pass, so within one wait live is live.
			msg, ok, err := m.recvAny(tagRepl, "re-replication ack", func() []int {
				if unscanned := rt.ranks.liveServers(rt.world, func(sr int) bool { return !scanned[sr] }, nil); len(unscanned) > 0 {
					return unscanned
				}
				return live // scans are in; a push destination owes the ack
			})
			if err != nil {
				return err
			}
			if !ok {
				continue restart // membership changed: rescan the new set
			}
			switch a := msg.Data.(type) {
			case rereplicateAck:
				if a.round != round {
					break // straggler from an abandoned pass
				}
				scanned[msg.Source] = true
				pushes += a.pushed
			case replAckMsg:
				if a.round == round {
					acks++
				}
			}
		}
		pushCtr.Add(int64(pushes))
		m.replHealed = healedTo
		if rt.ranks.evictedServers(rt.world) == healedTo {
			return nil
		}
		// A server died while the pass ran: heal again against the new set.
	}
}

// ckptPath returns the checkpoint file for an array.  The job id in the
// name keeps two jobs checkpointing same-named arrays into a shared
// scratch from colliding.
func (m *master) ckptPath(arr int) string {
	return filepath.Join(m.rt.scratch, fmt.Sprintf("ckpt_j%d_%s.ckpt", m.rt.job, m.rt.prog.Arrays[arr].Name))
}

// readCkptFile reads the checkpoint of an array and deals its blocks out
// by home worker.  The save framed it with writeIntegrityFile, so a crash
// mid-save left the old checkpoint or the new one, and bit rot fails the
// checksum here instead of reaching the hostile-length-guarded decoder.
func (m *master) readCkptFile(arr int) (map[int][]ArrayBlock, error) {
	path := m.ckptPath(arr)
	payload, err := readIntegrityFile(path, ckptFileMagic)
	if err != nil {
		return nil, err
	}
	v, err := wire.Decode(payload)
	if err != nil {
		return nil, err
	}
	data, ok := v.(ckptData)
	if !ok {
		return nil, fmt.Errorf("sip: checkpoint %s holds %T, not blocks", path, v)
	}
	homed := map[int][]ArrayBlock{}
	for _, ab := range data.blocks {
		home := m.rt.ranks.home(arr, ab.Ord)
		homed[home] = append(homed[home], ab)
	}
	return homed, nil
}
