package sip

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// ioServer holds blocks of served (disk-backed) arrays (paper §V-B).
// Blocks arriving from prepare are cached and lazily written to disk;
// requested blocks are answered from the cache when possible.
// Replacement is LRU; dirty blocks are written out on eviction, at
// server barriers, and when the server's own run shuts down.
type ioServer struct {
	rt   *runtime
	comm *mpi.Comm
	rank int

	capacity int
	entries  map[blockKey]*srvEntry
	lru      *list.List
	onDisk   map[blockKey]bool
	dir      string

	hits, misses, diskReads, diskWrites int64

	// ledgers holds each job's prepare-dedup ledger, which rotates at the
	// job's own flushes (server_barrier): by then every phase older than
	// the previous flush is sealed and can no longer be replayed.  Ledgers
	// are per job: one tenant's barrier cadence must never retire another
	// tenant's still-replayable effects.
	ledgers   map[int]*effectLedger
	dropCtr   *obs.Counter
	retireCtr *obs.Counter

	// jobs holds the registration of every job whose blocks this server
	// can size and place: its own run's (a batch server, at construction)
	// and a pool's tenants.  Like all server state it is touched only by
	// the server's own goroutine.
	jobs map[int]*srvJob

	trk *obs.Track // cache/disk span track; nil when tracing is off
}

// srvJob is one job's registration on an I/O server: the resolved
// program and layout that size its blocks, its presets, and its
// replication config for placement.  Jobs register before their master
// starts, so every request carrying the job's id can be served.
type srvJob struct {
	job      int
	prog     *bytecode.Program
	layout   *bytecode.Layout
	preset   map[string]PresetFunc
	replicas int
	servers  []int
}

// srvRegMsg registers a pool tenant with the shared server loop.  It is
// sent from rank 0 of the pool's in-process world, so the pointer payload
// crosses no codec.
type srvRegMsg struct{ j *srvJob }

type srvEntry struct {
	key   blockKey
	b     *block.Block
	dirty bool
	elem  *list.Element
}

func newIOServer(rt *runtime, rank int) *ioServer {
	s := &ioServer{
		rt:        rt,
		comm:      rt.world.Comm(rank),
		rank:      rank,
		capacity:  rt.cfg.ServerCacheBlocks,
		entries:   map[blockKey]*srvEntry{},
		lru:       list.New(),
		onDisk:    map[blockKey]bool{},
		dir:       filepath.Join(rt.scratch, fmt.Sprintf("srv%d", rank)),
		ledgers:   map[int]*effectLedger{},
		jobs:      map[int]*srvJob{},
		dropCtr:   rt.metrics.Counter(metricDedupDroppedEffects),
		retireCtr: rt.metrics.Counter(metricDedupRetired),
		trk:       rt.tracer.Track(rank, 0, fmt.Sprintf("server %d", rank), "cache"),
	}
	if rt.prog != nil {
		// A run that brings its own servers registers itself with them.
		s.jobs[rt.job] = &srvJob{job: rt.job, prog: rt.prog, layout: rt.layout,
			preset: rt.cfg.Preset, replicas: rt.cfg.Replicas, servers: rt.ranks.servers}
	}
	return s
}

// blockFileFormat names a served block's spill file; scanDisk and the
// snapshot code (eachSpillFile) parse names with it.
const blockFileFormat = "j%d_a%d_b%d.blk"

func (s *ioServer) blockPath(k blockKey) string {
	return filepath.Join(s.dir, fmt.Sprintf(blockFileFormat, k.job, k.arr, k.ord))
}

// ledger returns (allocating on first use) the dedup ledger of a job.
func (s *ioServer) ledger(job int) *effectLedger {
	l := s.ledgers[job]
	if l == nil {
		l = &effectLedger{}
		s.ledgers[job] = l
	}
	return l
}

// retireSeen rotates a job's ledger at its flush and counts what it retired.
func (s *ioServer) retireSeen(job int) {
	s.retireCtr.Add(int64(s.ledger(job).rotate()))
}

func (s *ioServer) blockDims(k blockKey) ([]int, error) {
	j := s.jobs[k.job]
	if j == nil {
		return nil, fmt.Errorf("sip: server %d: block %v belongs to an unregistered job", s.rank, k)
	}
	shape := j.layout.Shapes[k.arr]
	return shape.BlockDims(shape.CoordOf(k.ord)), nil
}

// replicasOf returns the live replica set of a block, placed by its
// job's registration; empty for unknown jobs.
func (s *ioServer) replicasOf(k blockKey) []int {
	j := s.jobs[k.job]
	if j == nil {
		return nil
	}
	return rendezvousReplicas(nil, k.job, k.arr, k.ord, j.replicas, j.servers, s.rt.world.IsEvicted)
}

// holdsBlock reports whether this server is in the block's replica set.
func (s *ioServer) holdsBlock(k blockKey) bool {
	for _, sr := range s.replicasOf(k) {
		if sr == s.rank {
			return true
		}
	}
	return false
}

// run is the server main loop.  All operations are handled from one
// goroutine, which serializes access and makes accumulates atomic.
//
// A server that cannot do its job (scratch dir unavailable, disk I/O
// failing, corrupt block file) returns an error instead of panicking:
// the error is reported to the master over the regular doneMsg path and
// the world is failed with this rank as the diagnosis, so workers
// blocked on acks wake with a cause instead of hanging.
func (s *ioServer) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				err = s.rt.abortError(fmt.Sprintf("server %d", s.rank))
				return
			}
			err = fmt.Errorf("sip: server %d: panic: %v", s.rank, r)
		}
		if err != nil && !errors.Is(err, mpi.ErrAborted) {
			// Best-effort: the master may already be gone.
			s.comm.Send(0, tagDone, doneMsg{err: err.Error(), failRank: -1})
			if s.rt.world.Evictable(s.rank) {
				// Replicated served arrays survive this server's death:
				// leave the world degraded instead of aborting it.
				s.rt.world.Evict(s.rank, err.Error())
			} else {
				s.rt.world.Fail(s.rank, err.Error())
			}
		}
	}()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("sip: server %d: scratch dir: %w", s.rank, err)
	}
	if err := s.scanDisk(); err != nil {
		return err
	}
	if j := s.jobs[s.rt.job]; j != nil {
		if err := s.installPresets(j); err != nil {
			return err
		}
	}
	for {
		m := s.comm.Recv(mpi.AnySource, tagServer)
		switch msg := m.Data.(type) {
		case getMsg:
			start := s.trk.Start()
			b, err := s.fetch(msg.key)
			if err != nil {
				return err
			}
			// The reply must not share the cached block with the
			// requester: clone for in-process delivery, but let a
			// serializing transport encode the cached bytes directly —
			// the served-read hot path then makes zero copies.
			s.comm.Multicast([]int{m.Source}, msg.replyTag, b, func() any { return b.Clone() })
			if s.trk != nil {
				// Flow-out endpoint matched by the requester's wait_block
				// flow-in (same responder/requester/replyTag triple).
				s.trk.FlowOut(start, msgFlowID(s.rank, m.Source, msg.replyTag),
					obs.CatServerCache, "serve_get",
					obs.A("block", msg.key.String()), obs.AInt("origin", m.Source))
			}
		case putMsg:
			start := s.trk.Start()
			if err := s.applyPut(msg); err != nil {
				return err
			}
			s.comm.Send(m.Source, jobTag(msg.key.job, tagAck), ackMsg{})
			if s.trk != nil {
				s.trk.End(start, obs.CatServerCache, "serve_put",
					obs.A("block", msg.key.String()), obs.AInt("origin", m.Source))
			}
		case flushMsg:
			start := s.trk.Start()
			if err := s.flush(msg.job); err != nil {
				return err
			}
			// The previous flush's sync round has sealed: nothing can replay
			// the effects that predate it.
			s.retireSeen(msg.job)
			s.comm.Send(0, jobTag(msg.job, tagAck), ackMsg{})
			if s.trk != nil {
				s.trk.End(start, obs.CatServerCache, "flush", obs.AInt("job", msg.job))
			}
		case rereplicateMsg:
			start := s.trk.Start()
			pushed, err := s.rereplicate(msg.round, msg.job)
			if err != nil {
				return err
			}
			s.comm.Send(0, jobTag(msg.job, tagRepl), rereplicateAck{round: msg.round, pushed: pushed})
			if s.trk != nil {
				s.trk.End(start, obs.CatServerCache, "rereplicate", obs.AInt("pushed", pushed))
			}
		case replPutMsg:
			// Re-replicated copy from the block's primary: overwrite ours
			// and ack the coordinating master (never the pusher, whose
			// main loop may itself be mid-scan pushing the other way).
			if err := s.apply(msg.key, msg.b, false); err != nil {
				return err
			}
			s.comm.Send(0, jobTag(msg.key.job, tagRepl), replAckMsg{round: msg.round})
		case shutdownMsg:
			// A job is over.  The server's own run keeps its blocks on disk
			// for a restarted run to adopt; a pool tenant's are dropped
			// unwritten.  Either way the master gets one answer, which for
			// the server's own run carries its counters and final telemetry.
			start, own, g := s.trk.Start(), msg.job == s.rt.job, gatherMsg{}
			var err error
			if msg.gather {
				g.arrays, err = s.gatherJob(msg.job)
			}
			if err == nil && own {
				err = s.flush(msg.job)
			}
			if err != nil {
				return err
			}
			if own {
				s.foldMetrics()
			} else {
				s.dropJob(msg.job)
			}
			if s.trk != nil {
				s.trk.End(start, obs.CatServerCache, "job_retired", obs.AInt("job", msg.job))
			}
			g.obs = s.rt.ship.final() // nil but on a RunRank server, whose one job is its own
			s.comm.Send(0, jobTag(msg.job, tagGather), g)
			if own {
				return nil
			}
		case srvRegMsg:
			// A pool tenant registering (Pool.registerJob).  Presets
			// install before the readiness ack, so the job's workers can
			// fetch them the moment the pool releases the job to its
			// master.
			s.jobs[msg.j.job] = msg.j
			if err := s.installPresets(msg.j); err != nil {
				return err
			}
			s.comm.Send(0, jobTag(msg.j.job, tagAck), ackMsg{})
		}
	}
}

// dropJob forgets a retired tenant — cache entries, disk blocks, dedup
// ledger, registration — so the pool's footprint tracks its live
// tenants.  The cached blocks go back to the allocator, dirty or not, and
// none is written: as in apply, no reply or re-replication push holds one
// past its send.
func (s *ioServer) dropJob(job int) {
	for k, e := range s.entries {
		if k.job == job {
			s.lru.Remove(e.elem)
			delete(s.entries, k)
			block.Put(e.b)
		}
	}
	for k := range s.onDisk {
		if k.job == job {
			os.Remove(s.blockPath(k))
			delete(s.onDisk, k)
		}
	}
	delete(s.ledgers, job)
	delete(s.jobs, job)
}

// installPresets loads a newly registered job's served-array presets
// onto this server when it is in the block's replica set, so backups
// start with the same contents as the primary.
func (s *ioServer) installPresets(j *srvJob) error {
	return presetBlocks(j.preset, j.prog, j.layout, j.job, bytecode.ArrayServed, s.holdsBlock,
		func(k blockKey, b *block.Block) error { return s.apply(k, b, false) })
}

// fetch returns the cached block, reading from disk on a miss; absent
// blocks are implicitly zero (paper §V-B: blocks are allocated "only
// when actually filled with data").
func (s *ioServer) fetch(k blockKey) (*block.Block, error) {
	if e, ok := s.entries[k]; ok {
		s.hits++
		s.lru.MoveToFront(e.elem)
		return e.b, nil
	}
	s.misses++
	var b *block.Block
	if s.onDisk[k] {
		var err error
		b, err = s.readDisk(k)
		if err != nil {
			return nil, err
		}
	} else {
		dims, err := s.blockDims(k)
		if err != nil {
			return nil, err
		}
		b = block.New(dims...)
	}
	if err := s.insert(k, b, false); err != nil {
		return nil, err
	}
	return b, nil
}

// apply stores or accumulates an incoming block, which the server owns
// alone: what it adds or replaces goes back to the allocator (every reply
// and re-replication push is a clone, or encoded before it returns).
func (s *ioServer) apply(k blockKey, b *block.Block, acc bool) error {
	if acc {
		cur, err := s.fetch(k)
		if err != nil {
			return err
		}
		cur.AddScaled(1, b)
		block.Put(b)
		s.entries[k].dirty = true
		return nil
	}
	if e, ok := s.entries[k]; ok {
		block.Put(e.b)
		e.b = b
		e.dirty = true
		s.lru.MoveToFront(e.elem)
		return nil
	}
	return s.insert(k, b, true)
}

func (s *ioServer) insert(k blockKey, b *block.Block, dirty bool) error {
	e := &srvEntry{key: k, b: b, dirty: dirty}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	for len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil || back == e.elem {
			// Never evict the entry just inserted: callers (accumulate,
			// fetch) hold a reference into s.entries[k] right after this
			// returns, so evicting it would leave them a dangling key.
			break
		}
		victim := back.Value.(*srvEntry)
		if victim.dirty {
			if err := s.writeDisk(victim.key, victim.b); err != nil {
				return err
			}
		}
		s.lru.Remove(back)
		delete(s.entries, victim.key)
		block.Put(victim.b)
	}
	return nil
}

// applyPut applies one incoming put/prepare, dropping a replayed effect
// the job's ledger already holds.
func (s *ioServer) applyPut(msg putMsg) error {
	if msg.seq != 0 && !s.ledger(msg.key.job).mark(msg.seq) {
		s.dropCtr.Inc()
		return nil
	}
	return s.apply(msg.key, msg.b, msg.acc)
}

// rereplicate runs one anti-entropy scan (Config.Replicas > 1): every
// block this server holds — cached or on disk — whose current primary
// is this rank is pushed to the block's other live replicas.  After an
// eviction the new primary of a lost block is always a surviving holder
// (rendezvous preference order), so exactly one live server pushes each
// block and the pushes repopulate servers promoted into the replica
// set.  The scan is per job — each tenant master drives its own
// anti-entropy rounds.  Returns the number of pushes issued; the master
// waits for that many replAckMsg acks.
func (s *ioServer) rereplicate(round, job int) (int, error) {
	keys := make([]blockKey, 0, len(s.entries)+len(s.onDisk))
	for k := range s.entries {
		keys = append(keys, k)
	}
	for k := range s.onDisk {
		if _, ok := s.entries[k]; !ok {
			keys = append(keys, k)
		}
	}
	pushed := 0
	for _, k := range keys {
		if k.job != job {
			continue
		}
		replicas := s.replicasOf(k)
		if len(replicas) == 0 || replicas[0] != s.rank {
			continue
		}
		var b *block.Block
		if e, ok := s.entries[k]; ok {
			b = e.b
		} else {
			var err error
			b, err = s.readDisk(k)
			if err != nil {
				return pushed, err
			}
		}
		// One anti-entropy push per block, however many backups: the
		// block is encoded once over a serializing transport and cloned
		// only for in-process backups (which take ownership).
		dsts := replicas[1:]
		if len(dsts) == 0 {
			continue
		}
		msg := replPutMsg{key: k, b: b, round: round}
		s.comm.Multicast(dsts, tagServer, msg, func() any {
			m := msg
			m.b = b.Clone()
			return m
		})
		pushed += len(dsts)
	}
	return pushed, nil
}

// flush writes one job's dirty cached blocks to disk (server_barrier, the
// server's own run's shutdown).  It keeps flushing past single failures
// and returns the joined errors, each attributed to its block key, so
// one bad block does not hide the fate of the rest.
func (s *ioServer) flush(job int) error {
	var errs []error
	for _, e := range s.entries {
		if e.dirty && e.key.job == job {
			if err := s.writeDisk(e.key, e.b); err != nil {
				errs = append(errs, err)
				continue
			}
			e.dirty = false
		}
	}
	return errors.Join(errs...)
}

// gatherJob returns all blocks this server holds for one job (cache
// plus disk) for the final result.
func (s *ioServer) gatherJob(job int) (map[int][]ArrayBlock, error) {
	out := map[int][]ArrayBlock{}
	seen := map[blockKey]bool{}
	for k, e := range s.entries {
		if k.job != job {
			continue
		}
		out[k.arr] = append(out[k.arr], ArrayBlock{Ord: k.ord, Data: append([]float64(nil), e.b.Data()...)})
		seen[k] = true
	}
	for k := range s.onDisk {
		if seen[k] || k.job != job {
			continue
		}
		b, err := s.readDisk(k)
		if err != nil {
			return nil, err
		}
		out[k.arr] = append(out[k.arr], ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
	}
	return out, nil
}

// scanDisk rebuilds the on-disk index from block files left by a
// previous incarnation of this server in the same scratch dir, so a
// restarted run can serve durable blocks it did not write itself.  Only
// files of a job registered here — the registration sizes them — are
// adopted: a batch server's own job's, and none on a pool's shared
// servers, whose tenants restart from their snapshots.  Leftover temp
// files from interrupted atomic writes are removed.
func (s *ioServer) scanDisk() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("sip: server %d: scan scratch dir: %w", s.rank, err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		var job, arr, ord int
		if n, _ := fmt.Sscanf(name, blockFileFormat, &job, &arr, &ord); n == 3 && filepath.Ext(name) == ".blk" {
			if j := s.jobs[job]; j != nil && arr >= 0 && arr < len(j.prog.Arrays) && ord >= 0 {
				s.onDisk[blockKey{job: job, arr: arr, ord: ord}] = true
			}
			continue
		}
		if strings.Contains(name, ".blk.tmp") {
			os.Remove(filepath.Join(s.dir, name)) // torn atomic write
		}
	}
	return nil
}

// encodeBlockFile is the spill-file form of a served block: its elements
// as raw little-endian float64s.  The dims are the layout's to supply.
func encodeBlockFile(b *block.Block) []byte {
	data := b.Data()
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// decodeBlockFile rebuilds a block of the given dims from its spill file;
// the error of a file of any other size completes "block <key> ...".
func decodeBlockFile(buf []byte, dims []int) (*block.Block, error) {
	b := block.New(dims...)
	data := b.Data()
	if len(buf) != 8*len(data) {
		return nil, fmt.Errorf("has %d bytes, want %d", len(buf), 8*len(data))
	}
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return b, nil
}

// writeDisk persists one block atomically, so a server killed mid-write
// leaves either the old block or the new one, never a torn file.
func (s *ioServer) writeDisk(k blockKey, b *block.Block) error {
	start := s.trk.Start()
	buf := encodeBlockFile(b)
	if err := atomicfile.Write(s.blockPath(k), buf); err != nil {
		return fmt.Errorf("sip: server %d: write block %v: %w", s.rank, k, err)
	}
	s.onDisk[k] = true
	s.diskWrites++
	if s.trk != nil {
		s.trk.End(start, obs.CatDisk, "disk_write",
			obs.A("block", k.String()), obs.AInt("bytes", len(buf)))
	}
	return nil
}

// readDisk loads one block previously written by writeDisk.
func (s *ioServer) readDisk(k blockKey) (*block.Block, error) {
	start := s.trk.Start()
	buf, err := os.ReadFile(s.blockPath(k))
	if err != nil {
		return nil, fmt.Errorf("sip: server %d: read block %v: %w", s.rank, k, err)
	}
	dims, err := s.blockDims(k)
	if err != nil {
		return nil, err
	}
	b, err := decodeBlockFile(buf, dims)
	if err != nil {
		return nil, fmt.Errorf("sip: server %d: block %v %w", s.rank, k, err)
	}
	s.diskReads++
	if s.trk != nil {
		s.trk.End(start, obs.CatDisk, "disk_read",
			obs.A("block", k.String()), obs.AInt("bytes", len(buf)))
	}
	return b, nil
}
