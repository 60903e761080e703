package sip

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Metric names exposed by the SIP (documented in docs/OBSERVABILITY.md).
// MPI message metrics are per tag: mpi.msgs.<tag> / mpi.bytes.<tag>;
// mailbox backlog gauges are per rank: mpi.qdepth.rank<N>.
const (
	metricWorkerFetches    = "sip.worker.fetches"
	metricWorkerPrefetches = "sip.worker.prefetches"
	metricWorkerCacheHits  = "sip.worker.cache.hits"
	metricWorkerCacheMiss  = "sip.worker.cache.misses"
	metricWorkerCacheEvict = "sip.worker.cache.evictions"
	metricWorkerWait       = "sip.worker.wait_ns"
	metricPoolAllocs       = "sip.worker.pool.allocs"
	metricPoolReuses       = "sip.worker.pool.reuses"
	metricMasterChunks     = "sip.master.chunks"
	metricMasterIters      = "sip.master.iters"
	metricServerCacheHits  = "sip.server.cache.hits"
	metricServerCacheMiss  = "sip.server.cache.misses"
	metricServerDiskReads  = "sip.server.disk.reads"
	metricServerDiskWrites = "sip.server.disk.writes"
	// Failure detection: incremented once per process when a run ends
	// with an attributed rank failure (plus a .rank<N> breakdown).
	// Injected fault events are counted separately as fault.<kind> /
	// fault.<kind>.peer<N> (see FaultEvents) and liveness detections as
	// fault.rank_down.rank<N> (wired by cmd/sial).
	metricFaultRankFailure = "fault.rank_failure"
	// Recovery (Config.Recover): ranks evicted from the world (plus a
	// .rank<N> breakdown), pardo iterations the master re-dispatched
	// from a dead worker to survivors, and replayed put/prepare effects
	// the destinations dropped as already applied.
	metricFaultRankEvicted    = "fault.rank_evicted"
	metricMasterRedispatched  = "sip.master.chunks_redispatched"
	metricDedupDroppedEffects = "sip.dedup.dropped"
	// Dedup-ledger GC: effect-seq entries retired once the sync rounds
	// that could replay them have sealed (two ledger rotations old).
	metricDedupRetired = "sip.dedup.retired"
	// Replication (Config.Replicas > 1): served-block reads re-routed
	// from a dead primary to a backup, anti-entropy passes the master
	// ran after server evictions, and blocks those passes pushed onto
	// under-replicated servers.
	metricReplFailovers = "sip.repl.read_failovers"
	metricReplRounds    = "sip.repl.rounds"
	metricReplPushed    = "sip.repl.blocks_pushed"
	// Checkpoint/restart (Config.CkptInterval > 0; snapshot.go):
	// snapshots written, bytes and wall time they cost, the current epoch
	// (gauge), and snapshot attempts that failed.
	metricCkptSnapshots = "sip.ckpt.snapshots"
	metricCkptBytes     = "sip.ckpt.bytes"
	metricCkptDuration  = "sip.ckpt.duration_ns"
	metricCkptEpoch     = "sip.ckpt.epoch"
	metricCkptErrors    = "sip.ckpt.errors"
	// Resume (Config.Resume): runs restored from a snapshot, served
	// blocks rehydrated, restores that fell back past a corrupt newest
	// epoch, manifests rejected for a fingerprint mismatch, and resumes
	// that found no usable snapshot and started cold.
	metricResumeResumed   = "sip.resume.resumed"
	metricResumeBlocks    = "sip.resume.blocks"
	metricResumeFallbacks = "sip.resume.fallbacks"
	metricResumeRejected  = "sip.resume.rejected"
	metricResumeCold      = "sip.resume.cold_starts"
)

// tagNames labels the fixed message tags for per-tag metrics; block
// replies use per-request tags >= tagReplyBase and share one label.
var tagNames = [...]string{
	tagChunkReq: "chunk_req",
	tagChunkRep: "chunk_rep",
	tagService:  "service",
	tagAck:      "ack",
	tagServer:   "server",
	tagDone:     "done",
	tagGather:   "gather",
	tagSync:     "sync",
	tagSyncRep:  "sync_rep",
	tagRepl:     "repl",
	tagObs:      "obs",
}

const replyTagSlot = len(tagNames) // index for the shared block-reply label

// tagIndex maps a tag to its slot in the mpiStats counter tables.  A
// pool job's tags are strided into its own window (jobTag); they count
// under the same labels as job 0's.
func tagIndex(tag int) int {
	if tag > 0 {
		if t := tag % jobTagStride; t < len(tagNames) && tagNames[t] != "" {
			return t
		}
	}
	return replyTagSlot
}

// mpiStats implements mpi.Observer: per-tag message count/byte counters
// and per-rank mailbox depth gauges.  A message counts its codec's size
// hint (wire.SizeHint, the estimate the TCP transport sizes its encoders
// by), or envelope when its type reports none; the exact framed bytes
// are the transport's net.bytes_* counters.  Counters are resolved once
// at construction so the per-send cost is two atomic adds and a gauge set.
var _ mpi.Observer = (*mpiStats)(nil)

// envelope is the size counted for a message that reports no size hint.
const envelope = 16

type mpiStats struct {
	msgs   [replyTagSlot + 1]*obs.Counter
	bytes  [replyTagSlot + 1]*obs.Counter
	qdepth []*obs.Gauge
}

func newMPIStats(reg *obs.Registry, ranks int) *mpiStats {
	s := &mpiStats{qdepth: make([]*obs.Gauge, ranks)}
	for tag, name := range tagNames {
		if name == "" {
			continue
		}
		s.msgs[tag] = reg.Counter("mpi.msgs." + name)
		s.bytes[tag] = reg.Counter("mpi.bytes." + name)
	}
	s.msgs[replyTagSlot] = reg.Counter("mpi.msgs.block_reply")
	s.bytes[replyTagSlot] = reg.Counter("mpi.bytes.block_reply")
	for r := range s.qdepth {
		s.qdepth[r] = reg.Gauge(fmt.Sprintf("mpi.qdepth.rank%d", r))
	}
	return s
}

func (s *mpiStats) OnSend(src, dst, tag int, data any, depth int) {
	i := tagIndex(tag)
	s.msgs[i].Inc()
	s.bytes[i].Add(int64(wire.SizeHint(data, envelope)))
	// Remote sends report depth -1: the sender has no view of a remote
	// mailbox's backlog.
	if depth >= 0 && dst >= 0 && dst < len(s.qdepth) {
		s.qdepth[dst].Set(int64(depth))
	}
}

// foldMetrics publishes a worker's plain counters — the hot paths count
// in ints, not atomics — under their metric names as its interpreter
// returns, failed or not, so that its home's answer to shutdown carries them.
func (w *worker) foldMetrics() {
	reg := w.rt.metrics
	reg.Counter(metricWorkerFetches).Add(w.prof.fetches)
	reg.Counter(metricWorkerPrefetches).Add(w.prof.prefetches)
	reg.Counter(metricWorkerCacheHits).Add(w.cache.hits)
	reg.Counter(metricWorkerCacheMiss).Add(w.cache.misses)
	reg.Counter(metricWorkerCacheEvict).Add(w.cache.evictions)
	reg.Counter(metricPoolAllocs).Add(w.pool.Fresh)
	reg.Counter(metricPoolReuses).Add(w.pool.Reused)
}

// foldMetrics publishes an I/O server's cache and disk counters, as a
// worker's do, just before the server answers its own run's shutdown.
func (s *ioServer) foldMetrics() {
	reg := s.rt.metrics
	reg.Counter(metricServerCacheHits).Add(s.hits)
	reg.Counter(metricServerCacheMiss).Add(s.misses)
	reg.Counter(metricServerDiskReads).Add(s.diskReads)
	reg.Counter(metricServerDiskWrites).Add(s.diskWrites)
}

// observeFault feeds one fault of the world into the metrics registry and
// tracer: kind (metricFaultRankFailure, metricFaultRankEvicted) counted
// whole and per rank, and an instant span naming the rank and reason, so
// detection events appear alongside the run's other observability output.
func observeFault(reg *obs.Registry, tracer *obs.Tracer, kind string, rank int, reason string) {
	if reg != nil {
		reg.Counter(kind).Inc()
		reg.Counter(fmt.Sprintf("%s.rank%d", kind, rank)).Inc()
	}
	if trk := tracer.Track(rank, 2, fmt.Sprintf("rank %d", rank), "fault"); trk != nil {
		trk.Instant(obs.CatFault, strings.TrimPrefix(kind, "fault."), obs.AInt("rank", rank), obs.A("reason", reason))
	}
}
