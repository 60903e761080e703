package sip

import (
	"repro/internal/block"
	"repro/internal/obs"
)

// The payloads below name no sender: a receiver takes the sender's rank
// from the envelope, mpi.Message.Source, which delivery has already
// checked against the world's size.

// getMsg asks a block's home for a copy of it.  The reply carries a
// *block.Block on the requester's unique replyTag.
type getMsg struct {
	key      blockKey
	replyTag int
}

// putMsg delivers a block to its home (distributed arrays) or its server
// (served arrays).  acc selects atomic accumulate.  The home acks every
// put to its sender on tagAck, so the sender can collect outstanding
// writes at barriers.  seq, when non-zero, is a deterministic effect id
// (hash of job, pardo, generation, iteration, and per-iteration effect
// ordinal) the destination uses to deduplicate replayed iterations: a
// second put with a seen seq is acknowledged but not applied, so
// accumulates land at-most-once.  The id is sender-independent — a
// survivor replaying a dead worker's iteration regenerates the same
// seq the dead worker may already have delivered.
type putMsg struct {
	key blockKey
	b   *block.Block
	acc bool
	seq uint64
}

// flushMsg asks an I/O server to write one job's dirty cached blocks to
// disk (server_barrier; master -> server).  The server acks rank 0 on
// the job's tagAck.
type flushMsg struct {
	job int
}

// shutdownMsg ends one job on a home, a rank that holds the job's blocks:
// a worker's service loop, or an I/O server.  The home answers the master
// with one gatherMsg, carrying its blocks of the job when gather is set
// and its rank's last telemetry report when the rank ships (ObsShip).
// job names the job that is ending: a server stops for good when that is
// the run it belongs to; a pool's shared server drops the tenant's blocks
// and registration, and keeps serving.
type shutdownMsg struct {
	gather bool
	job    int
}

// chunkMsg asks the master for the next chunk of pardo iterations.
// gen distinguishes repeated executions of the same pardo.
type chunkMsg struct {
	pardo int
	gen   int
	// delta is the requester's cumulative in-pardo scalar contributions
	// (scalars now minus scalars at pardo entry), the mid-pardo
	// checkpoint's scalar watermark.  Empty when checkpointing is off.
	delta []float64
}

// chunkReply carries the assigned chunk, a span of the pardo's
// iteration space.  A span with no iterations (n == 0) means the pardo
// is exhausted for this worker.
type chunkReply struct {
	span
}

// doneMsg reports a worker's or I/O server's failure to the master (a
// worker's completion is its end-round report).  When the failure was
// attributed to a specific rank (liveness timeout, receive deadline),
// failRank/failReason carry the diagnosis structurally so the master can
// rebuild the RankFailure; failRank is -1 otherwise (0 is a valid failed
// rank — the master itself).
type doneMsg struct {
	err        string
	failRank   int
	failReason string
}

// ackMsg is the payload of a tagAck acknowledgement: a put, prepare,
// flush or pool registration applied.  (A named type rather than
// struct{}{} so it can be registered with the wire codec.)
type ackMsg struct{}

// ckptData is the payload of a blocks_to_list file (ckptFileMagic +
// wire.Encode(ckptData) + CRC): the whole array, every worker's partition.
type ckptData struct {
	arr    int
	blocks []ArrayBlock
}

// gatherMsg is a home's answer to its shutdownMsg: the home's blocks of
// the job by array, when the master asked for them, and the rank's final
// telemetry, when it ships, built after it folded its counters.
type gatherMsg struct {
	arrays map[int][]ArrayBlock // array id -> blocks
	obs    *obsReportMsg        // nil when the rank does not ship
}

// Sync-point kinds carried by syncMsg.  Each kind maps to one program
// construct whose global coordination the master mediates.
const (
	syncBarrier       = iota // sip_barrier / initial startup barrier
	syncServerBarrier        // server_barrier (master flushes the servers)
	syncCollective           // collective: vals[0] is the scalar contribution
	// The checkpoint kinds are never snapshot points (maybeSyncSnapshot).
	syncCkpt // the plain round before a save and after a load: no unsynchronised put or get races either
	syncSave // blocks_to_list: blocks is the reporter's partition of arr, the master writes the file
	syncLoad // list_to_blocks: the master reads arr's file and releases each worker with the blocks it homes
	syncEnd  // the program's end: vals is the reporter's scalars, the master marks every reporter done
)

// syncMsg reports that a worker reached sync point round (a worker's
// rounds are numbered consecutively; all workers pass the same sync
// points in the same order, so equal round numbers are the same program
// point).  Sending it implies every put/prepare the worker issued
// before the sync point has been acknowledged — the report is the
// completion ack for all chunks the worker executed this phase.
type syncMsg struct {
	round int
	kind  int
	// id is what the round is about: the scalar a collective reduces
	// (the checkpointing master uses it to consume resume corrections
	// exactly once per scalar), or the array a syncSave round saves and a
	// syncLoad round loads; -1 otherwise.
	id   int
	vals []float64 // collective contributions, the end round's scalars (nil otherwise)
	// state is the worker's interpreter state at the sync point, attached
	// when checkpointing is on and no pardo frame is active: sync points
	// are the snapshot consistency points (snapshot.go).
	state *workerState
	// blocks is the reporter's partition of the array (syncSave only).
	blocks []ArrayBlock
}

// rereplicateMsg starts one anti-entropy pass on a server (master ->
// server on tagServer, sent at a server barrier after a server
// eviction).  The server pushes every block it
// holds and is the current primary for to the block's other live
// replicas, then acks the master with rereplicateAck.  round numbers
// the pass so the master can discard stragglers from a pass it
// restarted after a further eviction.
type rereplicateMsg struct {
	round int
	// job scopes the scan to one job's blocks (acks return on the job's
	// strided tagRepl).
	job int
}

// rereplicateAck reports one server's anti-entropy scan complete:
// pushed is the number of replPutMsg pushes it issued, which the master
// adds to the replAckMsg count it waits for.
type rereplicateAck struct {
	round  int
	pushed int
}

// replPutMsg carries one re-replicated block from a primary to a backup
// (server -> server on tagServer).  The destination overwrites its copy
// and acks the master — not the pushing server, whose main loop may
// itself be mid-scan pushing the other way.
type replPutMsg struct {
	key   blockKey
	b     *block.Block
	round int
}

// replAckMsg acknowledges one applied replPutMsg to the master
// (server -> master on tagRepl).
type replAckMsg struct {
	round int
}

// obsReportMsg is one rank's telemetry (Config.ObsShip) on tagObs, or
// the last one in its answer to shutdown: the rank's cumulative metric
// snapshot plus the trace ring segments recorded since its previous
// report.  seq numbers a rank's reports so the aggregator can drop
// duplicates.  wallUs is the rank tracer's wall-clock start in unix µs (0
// when tracing is off), the anchor for cross-rank clock alignment.
type obsReportMsg struct {
	seq    int
	wallUs int64
	snap   *obs.Snapshot
	tracks []obs.TrackSegment
}

// syncReply releases a worker from a sync point (resume == false; for
// collectives vals carries the reduced results, for syncLoad blocks the
// restored blocks this worker homes, and for syncSave / syncLoad err the
// master's failure to write or read the file) or orders it to replay
// re-dispatched iterations of a dead worker first (resume == true:
// spans lists the chunks of pardo/gen to execute, after which the
// worker re-reports the same round).
type syncReply struct {
	round  int
	resume bool
	pardo  int
	gen    int
	spans  []span
	vals   []float64
	blocks []ArrayBlock
	err    string
	// state, when non-nil on the round-0 release, orders the worker to
	// install a resume base — jump to the recorded pc with the recorded
	// scalars and control stack — before continuing (snapshot.go).
	state *workerState
}
