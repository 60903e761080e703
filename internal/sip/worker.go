package sip

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// worker is one worker rank: the interpreter core (core.go) and the data
// movement and sync it asks for, which it implements as the core's mover
// over messages — the block cache and its fetches, put/prepare with their
// acks, the service loop answering other workers, chunk requests and sync
// rounds with the master, presets, and the answer to shutdown.
type worker struct {
	interp
	comm *mpi.Comm

	dist      *store
	cache     *blockCache
	nextReply int

	// Sync and recovery state.  syncRound numbers this worker's
	// master-mediated sync points (all workers pass the same ones in the
	// same order).  debts counts the put and prepare acks each home or
	// server still owes this worker, collected before a sync report.  seen
	// is the put-dedup ledger, shared with the service loop (seenMu) and
	// rotated at each sync release.  replicas is scratch for replica sets,
	// so placing a served block allocates nothing.
	syncRound   int
	debts       map[int]int
	seenMu      sync.Mutex
	seen        effectLedger
	replicas    []int
	dropCtr     *obs.Counter
	retireCtr   *obs.Counter
	failoverCtr *obs.Counter
	waitHist    *obs.Histogram // the shared wait-time histogram
	ran         sync.WaitGroup // held by run until it folded the counters (launch adds it)
}

func newWorker(rt *runtime, rank int) *worker {
	w := &worker{
		comm:        rt.world.Comm(rank),
		dist:        newStore(),
		debts:       map[int]int{},
		dropCtr:     rt.metrics.Counter(metricDedupDroppedEffects),
		retireCtr:   rt.metrics.Counter(metricDedupRetired),
		failoverCtr: rt.metrics.Counter(metricReplFailovers),
		waitHist:    rt.metrics.Histogram(metricWorkerWait),
	}
	w.init(rt, rank, w)
	w.cache = newBlockCache(rt.cfg.CacheBlocks)
	return w
}

// run executes the program to completion, which its report of the end
// round tells the master.  A failure is reported in a done report instead,
// carrying the error: the master gives the job up, and the live workers
// fast-forward through the normal shutdown.
func (w *worker) run() (err error) {
	defer w.ran.Done()
	defer w.foldMetrics()
	defer operandPool.Put(w.ops)
	defer func() {
		if r := recover(); r != nil {
			if r != mpi.ErrAborted {
				err = fmt.Errorf("sip: worker %d: panic: %v", w.rank, r)
			} else {
				err = w.rt.abortError(fmt.Sprintf("worker %d", w.rank))
			}
		}
		if err == nil || w.rt.world.IsEvicted(w.rank) {
			// An evicted rank (pool Kill, liveness diagnosis) unwinding is
			// part of the recovery, not a failure to report.  The master
			// already tracks the eviction, and a done report would wrongly
			// mark the rank finished — suppressing the re-queue of its
			// in-flight iterations.
			return
		}
		// The done report carries a diagnosed rank failure structurally
		// (failRank) so the master can rebuild the RankFailure even when
		// the relay wins the race against its own detection.
		d := doneMsg{err: err.Error(), failRank: -1}
		var rf *mpi.RankFailure
		if errors.As(err, &rf) {
			d.failRank, d.failReason = rf.Rank, rf.Reason
		}
		w.comm.Send(0, w.rt.tag(tagDone), d)
		w.rt.rule(err) // after the report, so the master learns this error first
	}()
	homed := func(k blockKey) bool { return w.rt.ranks.home(k.arr, k.ord) == w.rank }
	put := func(k blockKey, b *block.Block) error { w.dist.put(k, b, false); return nil }
	if err := presetBlocks(w.rt.cfg.Preset, w.rt.prog, w.rt.layout, w.rt.job, bytecode.ArrayDistributed, homed, put); err != nil {
		return err
	}
	// All homes hold their presets before anyone can fetch.  The round-0
	// release may carry a resume base (Config.Resume), which jumps this
	// worker to the snapshot's program point before the program starts.
	if _, err := w.syncPoint(syncBarrier, -1, false); err != nil {
		return err
	}
	if err := w.dispatch(0); err != nil {
		return err
	}
	// The end round: its report carries this worker's scalars, and any
	// iterations a freshly dead worker still held are replayed in it.  The
	// service loop stays up until the master shuts it down, so late
	// get/put requests from stragglers are still answered.
	_, err = w.syncPoint(syncEnd, -1, false)
	return err
}

// recvFrom waits for the message src owes this worker on tag.  It cannot
// do without it: an evicted debtor fails the wait, naming it.
func (w *worker) recvFrom(src, tag int, what waitFor) (mpi.Message, error) {
	for {
		m, ok, err := w.rt.await(w.comm, src, tag, tag, what, nil)
		if ok || err != nil {
			return m, err
		}
		if w.rt.world.IsEvicted(src) {
			reason := w.rt.world.Evicted()[src]
			return m, &mpi.RankFailure{Rank: src, Reason: fmt.Sprintf("evicted (%s) owing worker %d a %s", reason, w.rank, what)}
		}
	}
}

// nextChunk asks the master for the next chunk of a pardo execution
// ("Initially, the set of iterations ... is divided into 'chunks' and
// doled out to the workers.  When a worker completes its chunk, it
// requests another chunk from the master", paper §V-B).
func (w *worker) nextChunk(pid, gen int, delta []float64) (span, error) {
	start := w.trk.Start()
	w.comm.Send(0, w.rt.tag(tagChunkReq), chunkMsg{pardo: pid, gen: gen, delta: delta})
	m, err := w.recvFrom(0, w.rt.tag(tagChunkRep), waitFor{what: "chunk reply from the master"})
	if err != nil {
		return span{}, err
	}
	rep := m.Data.(chunkReply)
	if w.trk != nil {
		// Flow-in half of the master's dispatch_chunk flow-out.
		w.trk.FlowIn(start, msgFlowID(0, w.rank, w.rt.tag(tagChunkRep)),
			obs.CatChunk, "fetch_chunk",
			obs.AInt("pardo", pid), obs.AInt("iters", rep.n))
	}
	return rep.span, nil
}

// fetch serves the core's blocks of distributed and served arrays from
// the worker's cache: a get starts an asynchronous fetch unless the block
// is cached, a look-ahead fetch only while its budget and the cache have
// room, and a read waits for the fetch in flight, charging the wait to the
// innermost pardo (paper §VI-B: per-pardo wait times are the primary
// tuning signal).
func (w *worker) fetch(op fetchOp, arr int, loc *refLoc) (*block.Block, error) {
	switch op {
	case fetchGet:
		if e := w.cache.lookup(loc.key); e != nil {
			e.pending() // receives the reply if it is there
			return nil, nil
		}
		return nil, w.startFetch(arr, loc, false)
	case fetchAhead:
		if w.cache.nAhead >= w.aheadCap || !w.cache.room() {
			return nil, errNoRoom
		}
		if w.cache.entries[loc.key] == nil {
			_ = w.startFetch(arr, loc, true) // best-effort: the demand fetch reports
		}
		return nil, nil
	case fetchSettle:
		w.cache.settle()
		return nil, nil
	}
	e := w.cache.lookup(loc.key)
	if e == nil {
		return nil, fmt.Errorf("block %s%v used without get/request", w.rt.prog.Arrays[arr].Name, loc.at())
	}
	if !e.pending() {
		return e.b, nil
	}
	start := time.Now()
	// Capture the responder and reply tag before the wait consumes the
	// request: they key the flow event pairing this wait with the remote
	// serve_get span in the merged trace.
	flowSrc, flowTag := e.req.Source(), e.req.Tag()
	if err := w.awaitBlock(e); err != nil {
		return nil, err
	}
	d := time.Since(start)
	pid := -1
	if f := w.pardoFrame(); f != nil {
		pid = f.pid
	}
	w.prof.addWait(pid, d)
	w.waitHist.Observe(int64(d))
	if w.trk != nil {
		w.trk.FlowIn(start, msgFlowID(flowSrc, w.rank, flowTag),
			obs.CatWait, "wait_block", obs.A("block", e.key.String()))
	}
	return e.b, nil
}

// awaitBlock completes e's fetch.  A distributed block died with an
// evicted home (recvFrom's failure stands); a served block is asked of its
// next live replica.  That retry is bounded by the replica count: each
// failover moves down the (finite, shrinking) live-replica order, and
// when none remain the block is unrecoverable.
func (w *worker) awaitBlock(e *cacheEntry) error {
	served := w.rt.prog.Arrays[e.key.arr].Kind == bytecode.ArrayServed
	for {
		src := e.req.Source()
		m, err := w.recvFrom(src, e.req.Tag(), waitFor{what: "reply for block", key: &e.key})
		if err == nil {
			e.complete(m)
			return nil
		}
		if !served || !w.rt.world.IsEvicted(src) {
			return err
		}
		replicas := w.replicaServers(e.key.arr, e.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("sip: worker %d: block %s: every replica server is dead", w.rank, e.key)
		}
		w.failoverCtr.Inc()
		if w.trk != nil {
			w.trk.Instant(obs.CatGet, "read_failover",
				obs.A("block", e.key.String()), obs.AInt("from", src), obs.AInt("to", replicas[0]))
		}
		replyTag := w.replyTag()
		e.req = w.comm.Irecv(replicas[0], replyTag)
		w.comm.Send(replicas[0], tagServer, getMsg{key: e.key, replyTag: replyTag})
	}
}

// startFetch begins an asynchronous fetch of one block into the cache,
// for the program or for look-ahead (ahead), which skips locally homed
// blocks: copying one is as cheap when the program asks.  Served blocks
// are requested from their primary replica; the error is non-nil only
// when every replica of the block has been evicted.
func (w *worker) startFetch(arrID int, loc *refLoc, ahead bool) error {
	arr := &w.rt.prog.Arrays[arrID]
	var home int
	if arr.Kind == bytecode.ArrayServed {
		replicas := w.replicaServers(arrID, loc.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("request %s%v: every replica server is dead", arr.Name, loc.at())
		}
		home = replicas[0]
	} else {
		home = w.rt.ranks.home(arrID, loc.key.ord)
	}
	if home == w.rank {
		if !ahead {
			// Locally homed: copy out of the store under its lock.
			b := w.pool.Get(loc.blockDims()...)
			w.dist.copyInto(loc.key, b)
			w.cache.insert(loc.key, b, mpi.Request{}, false)
		}
		return nil
	}
	replyTag := w.replyTag()
	req := w.comm.Irecv(home, replyTag)
	// Worker homes listen on this job's strided service tag; I/O servers
	// are shared across jobs and listen on the global tagServer (the
	// job travels in the block key).
	msgTag := w.rt.tag(tagService)
	if arr.Kind == bytecode.ArrayServed {
		msgTag = tagServer
	}
	w.comm.Send(home, msgTag, getMsg{key: loc.key, replyTag: replyTag})
	w.prof.fetches++
	if ahead {
		w.prof.prefetches++
	}
	if w.trk != nil {
		w.trk.Instant(obs.CatGet, "fetch_issued",
			obs.A("block", loc.key.String()), obs.AInt("home", home))
	}
	w.cache.insert(loc.key, nil, req, ahead)
	return nil
}

// replyTag returns the tag of this worker's next block reply, wrapping
// inside the job's reply window: a long run never walks into the next
// pool tenant's tags.
func (w *worker) replyTag() int {
	t := w.rt.tag(tagReplyBase) + w.nextReply
	w.nextReply = (w.nextReply + 1) % (jobTagStride - tagReplyBase)
	return t
}

// replicaServers is rt.replicaServers into this worker's scratch: the
// result is valid until the worker's next call.
func (w *worker) replicaServers(arr, ord int) []int {
	w.replicas = w.rt.replicaServers(w.replicas, arr, ord)
	return w.replicas
}

// store sends a put (distributed) or prepare (served) of val to the
// block at loc, and drops any stale cached copy of it.
func (w *worker) store(arrID int, loc *refLoc, val *block.Block, acc bool, seq uint64) error {
	arr := &w.rt.prog.Arrays[arrID]
	if w.trk != nil {
		w.trk.Instant(obs.CatPut, "put_issued",
			obs.A("block", loc.key.String()), obs.AInt("bytes", 8*val.Size()))
	}
	// The source block may be reused next iteration, so no receiver may
	// share it: Multicast clones it per in-process receiver, while a
	// serializing transport encodes it once before returning — at most
	// one payload copy end-to-end over TCP, and zero clones for the
	// whole replica fan-out.
	msg := putMsg{key: loc.key, b: val, acc: acc, seq: seq}
	cloned := func() any {
		m := msg
		m.b = val.Clone()
		return m
	}
	if arr.Kind == bytecode.ArrayServed {
		// Fan out to every live replica; the quorum is all of them (dead
		// replicas' acks are written off on eviction, and the anti-entropy
		// pass restores the factor later).
		replicas := w.replicaServers(arrID, loc.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("prepare %s%v: every replica server is dead", arr.Name, loc.at())
		}
		w.comm.Multicast(replicas, tagServer, msg, cloned)
		for _, srv := range replicas {
			w.debts[srv]++
		}
	} else {
		home := w.rt.ranks.home(arrID, loc.key.ord)
		switch {
		case home == w.rank:
			w.applyLocalPut(loc.key, val.Clone(), acc, seq)
		case w.rt.world.IsEvicted(home):
			// The home rank is gone and its partition with it; the block
			// is unrecoverable (distributed arrays are not durable under
			// recovery) — drop the put rather than wait on a dead rank.
		default:
			w.comm.Multicast([]int{home}, w.rt.tag(tagService), msg, cloned)
			w.debts[home]++
		}
	}
	w.cache.invalidate(loc.key)
	return nil
}

// sync reports this worker's arrival at a sync point to the master and
// waits for its answer.  The report is sent only after every outstanding
// put/prepare is acknowledged, so it doubles as the completion ack for
// all chunks this worker executed this phase; a syncSave report carries
// this worker's partition of the array.  An order to replay leaves the
// round open: the core reports it again.  A release numbers the next
// round, seals the phase and finishes the round on this side: a
// barrier's release forgets the cached remote blocks (conflicting writes
// may have changed them), a syncLoad release installs the restored blocks
// this worker homes, and a resume state sets the round numbering to the
// snapshot's.
func (w *worker) sync(kind, id int, val float64, st *workerState) (syncReply, error) {
	if err := w.rt.collect(w.comm, tagAck, "put/prepare ack", w.debts, nil); err != nil {
		return syncReply{}, err
	}
	round := w.syncRound
	report := syncMsg{round: round, kind: kind, id: id, state: st}
	switch kind {
	case syncCollective:
		report.vals = []float64{val}
	case syncEnd:
		// Collectives make scalars identical across workers; the master
		// keeps the lowest-ranked reporter's copy, sharing no memory with it.
		report.vals = append([]float64(nil), w.scalars...)
	case syncSave:
		report.blocks = w.dist.copyOut(func(k blockKey) bool { return k.arr == id })[id]
	}
	if st != nil {
		st.syncRound = round + 1
	}
	w.comm.Send(0, w.rt.tag(tagSync), report)
	// Block without a deadline: the master may legitimately stay silent
	// for as long as the slowest worker computes or a checkpoint file
	// takes to write.  The master is a critical rank — its death fails
	// the world and aborts this receive via the liveness monitor.
	rep := w.comm.Recv(0, w.rt.tag(tagSyncRep)).Data.(syncReply)
	if rep.round != round {
		return rep, fmt.Errorf("sip: worker %d: sync reply for round %d at round %d", w.rank, rep.round, round)
	}
	if rep.resume {
		return rep, nil
	}
	w.syncRound = round + 1
	// The release seals the phase; effects older than the previous phase
	// can no longer be replayed, so retire their dedup entries.
	w.retireSeenPuts()
	if rep.err != "" {
		return rep, errors.New(rep.err) // the master's, writing or reading the array's file
	}
	switch kind {
	case syncBarrier, syncServerBarrier:
		w.cache.invalidateAll()
	case syncLoad:
		w.dist.drop(func(k blockKey) bool { return k.arr == id })
		w.cache.invalidateAll()
		shape := w.rt.layout.Shapes[id]
		for _, ab := range rep.blocks {
			dims := shape.BlockDims(shape.CoordOf(ab.Ord))
			w.dist.put(blockKey{job: w.rt.job, arr: id, ord: ab.Ord}, block.FromData(ab.Data, dims...), false)
		}
	}
	if rep.state != nil {
		w.syncRound = rep.state.syncRound
		w.cache.invalidateAll()
	}
	return rep, nil
}

// serviceLoop answers get/put requests against this worker's partition
// of the distributed arrays.  It runs concurrently with the interpreter,
// providing the asynchronous progress the paper's SIP achieves by
// periodically polling for messages (§V-B).
func (w *worker) serviceLoop() {
	// A poisoned run aborts this worker's mailbox; the blocked Recv
	// below then panics with ErrAborted instead of waiting for a
	// shutdown message that may never come.
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	trk := w.rt.tracer.Track(w.rank, 1, fmt.Sprintf("worker %d", w.rank), "service")
	var dims [maxRank]int // a reply's dims
	for {
		m := w.comm.Recv(mpi.AnySource, w.rt.tag(tagService))
		switch msg := m.Data.(type) {
		case getMsg:
			start := trk.Start()
			shape := &w.rt.layout.Shapes[msg.key.arr]
			shape.OrdinalDims(msg.key.ord, dims[:])
			b := block.Get(dims[:shape.Rank()]...)
			w.dist.copyInto(msg.key, b)
			sendBlock(w.comm, m.Source, msg.replyTag, b)
			if trk != nil {
				// Flow-out endpoint matched by the requester's wait_block
				// flow-in (same responder/requester/replyTag triple).
				trk.FlowOut(start, msgFlowID(w.rank, m.Source, msg.replyTag),
					obs.CatGet, "serve_get",
					obs.A("block", msg.key.String()), obs.AInt("origin", m.Source))
			}
		case putMsg:
			start := trk.Start()
			w.applyLocalPut(msg.key, msg.b, msg.acc, msg.seq)
			w.comm.Send(m.Source, w.rt.tag(tagAck), ackMsg{})
			if trk != nil {
				trk.End(start, obs.CatPut, "serve_put",
					obs.A("block", msg.key.String()), obs.AInt("origin", m.Source))
			}
		case shutdownMsg:
			// Every worker's end report followed its put acks, so the
			// partition is complete: answer with it when asked, then drop it.
			// The answer waits for the interpreter to fold its counters, which
			// cannot block: the master shuts a home down only once its worker
			// is done (past the end round, or reported failed) or evicted.
			w.ran.Wait()
			g := gatherMsg{obs: w.rt.ship.final()}
			if msg.gather {
				g.arrays = w.dist.copyOut(func(blockKey) bool { return true })
			}
			w.comm.Send(m.Source, w.rt.tag(tagGather), g)
			w.dist.drop(func(blockKey) bool { return true })
			return
		}
	}
}

// sendBlock sends b, a block the caller owns alone, to dst: a receiver
// that would share memory takes b itself, and when a serializing
// transport has encoded it instead, b goes back to the allocator.
func sendBlock(comm *mpi.Comm, dst, tag int, b *block.Block) {
	kept := true
	comm.Multicast([]int{dst}, tag, b, func() any { kept = false; return b })
	if kept {
		block.Put(b)
	}
}

// applyLocalPut applies a put to this worker's partition, dropping
// replayed effects whose seq the ledger already holds (so accumulates
// land at-most-once).  Called from both the interpreter (local home) and
// the service loop, hence the lock.
func (w *worker) applyLocalPut(k blockKey, b *block.Block, acc bool, seq uint64) {
	if seq != 0 {
		w.seenMu.Lock()
		fresh := w.seen.mark(seq)
		w.seenMu.Unlock()
		if !fresh {
			w.dropCtr.Inc()
			return
		}
	}
	w.dist.put(k, b, acc)
}

// retireSeenPuts rotates the put ledger at a sync release and counts what
// it retired.
func (w *worker) retireSeenPuts() {
	w.seenMu.Lock()
	retired := w.seen.rotate()
	w.seenMu.Unlock()
	w.retireCtr.Add(int64(retired))
}
