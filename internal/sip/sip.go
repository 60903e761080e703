// Package sip implements the Super Instruction Processor: the parallel
// virtual machine that executes SIA byte code (paper §V).
//
// A SIP instance is organized as a master, a set of workers, and a set of
// I/O servers (paper §V-B), each played by goroutines communicating
// through the in-process MPI layer:
//
//   - The master assigns pardo iterations to workers in guided chunks
//     whose size decreases as the computation proceeds, and coordinates
//     checkpointing and shutdown.
//   - Each worker interprets the byte code: it manages temp/local/static
//     blocks, fetches distributed blocks asynchronously with get
//     (overlapping communication with computation and prefetching ahead
//     in sequential loops), stores them with put, and talks to the I/O
//     servers for served (disk-backed) arrays.  A service goroutine per
//     worker answers get/put requests against the worker's partition of
//     each distributed array, providing the asynchronous progress a real
//     MPI implementation gets from its progress engine.
//   - Each I/O server holds a write-back LRU cache of served-array
//     blocks, lazily persisting dirty blocks to scratch files.
//
// Rank layout: rank 0 is the master; a batch run's workers are ranks
// 1..W and its I/O servers W+1..W+S, and a pool job's are the pool's live
// members (Ranks).
package sip

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/segment"
)

// Message tags.
const (
	tagChunkReq  = 1  // worker -> master: request a pardo chunk
	tagChunkRep  = 2  // master -> worker: iteration chunk
	tagService   = 3  // worker -> worker service loop: get/put/shutdown
	tagAck       = 4  // home/server -> sender: put, prepare, flush or registration applied
	tagServer    = 5  // worker -> server: request/prepare/flush/shutdown
	tagDone      = 8  // worker/server -> master: failure report; pool -> its supervisor: stop
	tagGather    = 10 // home (service loop, server) -> master: answer to shutdown, with its blocks when gathering
	tagSync      = 11 // worker -> master: sync-point report
	tagSyncRep   = 12 // master -> worker: sync-point release / replay order
	tagRepl      = 13 // server -> master: re-replication control traffic
	tagObs       = 14 // worker/server -> master: telemetry reports
	tagReplyBase = 1 << 16
)

// jobTagStride is the tag-space stride between concurrent jobs sharing
// one world (sial serve).  Every tag a job's master and workers use is
// offset by job*jobTagStride, so two jobs' chunk replies, acks, and
// reply tags can never collide in a shared mailbox.  A batch run is job
// 0, whose window starts at tag 0.  The stride leaves room for
// tagReplyBase plus hundreds of thousands of outstanding replies per
// job.
const jobTagStride = 1 << 20

// jobTag offsets a base tag into job's tag space.  I/O servers are
// shared between jobs and listen on the *global* tagServer; their
// replies go back strided so each job's ranks only ever see their own
// traffic.
func jobTag(job, t int) int { return job*jobTagStride + t }

// ChunkGate arbitrates pardo chunk dispatch between concurrent jobs
// (FIFO-with-fairness scheduling in sial serve).  The master calls
// Acquire before answering each chunk request; a gate may block the
// calling job's dispatch while other active jobs are behind on their
// share.  Implementations must be safe for concurrent use by many
// per-job master goroutines.
type ChunkGate interface {
	Acquire(job int)
}

// PresetFunc initializes one block of an array at startup.  coord is the
// block coordinate; lo and hi are the inclusive element bounds per
// dimension.  Returning nil leaves the block unallocated (implicitly
// zero).  The block becomes the runtime's, like an IntegralFunc's.
type PresetFunc func(coord segment.Coord, lo, hi []int) *block.Block

// presetBlocks calls put with each block presets give the arrays of kind
// whose key holds reports true: the distributed blocks a worker homes, or
// the served blocks a server holds a replica of.
func presetBlocks(presets map[string]PresetFunc, prog *bytecode.Program, layout *bytecode.Layout, job int,
	kind bytecode.ArrayKind, holds func(blockKey) bool, put func(blockKey, *block.Block) error) error {
	for name, fn := range presets {
		arr := prog.ArrayID(name)
		if arr < 0 || prog.Arrays[arr].Kind != kind {
			continue
		}
		shape := layout.Shapes[arr]
		var err error
		shape.EachCoord(func(c segment.Coord) {
			k := blockKey{job: job, arr: arr, ord: shape.Ordinal(c)}
			if err != nil || !holds(k) {
				return
			}
			lo, hi := shape.BlockBounds(c)
			switch b := fn(c.Clone(), lo, hi); {
			case b == nil: // left unallocated, implicitly zero
			case !slices.Equal(b.Dims(), shape.BlockDims(c)):
				err = fmt.Errorf("sip: preset %s%v returned dims %v, want %v", name, c, b.Dims(), shape.BlockDims(c))
			default:
				err = put(k, b)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// resolve lays prog out under a filled cfg and refuses a preset for an
// array prog lacks: a run and its dry run refuse the same.
func resolve(prog *bytecode.Program, cfg *Config) (*bytecode.Layout, error) {
	for name := range cfg.Preset {
		if prog.ArrayID(name) < 0 {
			return nil, fmt.Errorf("sip: preset for unknown array %q", name)
		}
	}
	return prog.Resolve(cfg.Params, cfg.Seg)
}

// IntegralFunc computes an integral block on demand for
// compute_integrals.  arr is the SIAL array name; lo and hi are the
// inclusive element bounds of the block.  lo and hi are the worker's
// scratch, valid only during the call.  The block becomes the runtime's,
// which gives it back through block.Put when its temp dies, so the
// function keeps no reference to it, and draws it from block.Get to
// allocate nothing in steady state.
type IntegralFunc func(arr string, lo, hi []int) *block.Block

// ExecCtx gives user super instructions access to their execution
// environment.  Like the argument slices of a SuperFunc, it is the
// worker's scratch, valid only during the call.
type ExecCtx struct {
	Worker int // worker index, 0-based
	Layout *bytecode.Layout
	args   [len(bytecode.Instr{}.R)]argLoc
}

// argLoc is where one block argument of an execute lies.
type argLoc struct {
	rank          int
	coord, lo, hi [maxRank]int
}

// Block returns where block argument i < len(blocks) lies: its segment
// coordinate and the inclusive element range of each dimension, lent like
// the arguments, valid only during the call.  Past len(blocks) they are
// empty, and past the three arguments an execute takes Block panics.
func (c *ExecCtx) Block(i int) (coord, lo, hi []int) {
	a := &c.args[i]
	return a.coord[:a.rank], a.lo[:a.rank], a.hi[:a.rank]
}

// SuperFunc is a user-registered computational super instruction invoked
// by the SIAL execute statement.  Blocks are resolved read-write; scalars
// are passed by pointer.  A distributed or served block argument is a
// copy, so writing it changes no cached or remote block.  The function
// must not keep ctx, blocks or scalars past the call: the worker lends
// them, so that an execute allocates nothing.
type SuperFunc func(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error

// Config parameterizes a SIP run; Run, RunRank and Pool.RunJob all take
// one.
//
// A pool job is a tenant of a world the pool owns, so the pool fills in
// the fields that describe that world: Workers (its live members at
// admission), Servers, ScratchDir, Tracer, Recover and Replicas, and
// Output when it is nil.  RunJob rejects a job that sets any of those six,
// or ServerCacheBlocks, RecvTimeout, ObsShip or ObsAgg, which configure
// ranks and planes a tenant does not run.  Every other field is the
// tenant's.
type Config struct {
	// Workers is the number of worker tasks (>= 1).
	Workers int
	// Servers is the number of I/O server tasks; required only when the
	// program uses served arrays.
	Servers int
	// Params supplies values for the program's symbolic constants.
	Params map[string]int
	// Seg selects segment sizes (the key runtime tuning parameter).
	Seg bytecode.SegConfig
	// PrefetchWindow is how many iterations of the enclosing do loops get
	// and request look ahead, fetching the blocks they will name (paper
	// §V-A).  0 means DefaultPrefetchWindow, a negative value is off.  At
	// most min(PrefetchWindow, CacheBlocks/2) blocks are ever requested
	// ahead and not yet used, so a cache of one block turns it off too.
	PrefetchWindow int
	// CacheBlocks bounds each worker's remote-block cache (0 = 1024).
	CacheBlocks int
	// ServerCacheBlocks bounds each I/O server's block cache (0 = 1024).
	ServerCacheBlocks int
	// ScratchDir is where served arrays and checkpoints are written.
	// Empty means a fresh temporary directory.
	ScratchDir string
	// Preset initializes distributed and served arrays by name before
	// execution begins.
	Preset map[string]PresetFunc
	// Super registers user super instructions by name.
	Super map[string]SuperFunc
	// Integrals computes blocks for compute_integrals.  Defaults to a
	// deterministic synthetic generator.
	Integrals IntegralFunc
	// Output receives print statements (default os.Stdout).  Prints are
	// executed by worker 1 only.
	Output io.Writer
	// Tracer, when non-nil, records per-rank spans (instruction, get,
	// put, wait, chunk, server cache, disk) for Chrome-trace export, and
	// writes the text instruction trace when its TracerConfig.Text is set:
	// the transparent relationship between SIAL source and execution the
	// paper emphasizes (§VI-B).
	Tracer *obs.Tracer
	// Metrics, when non-nil, collects named counters/gauges/histograms:
	// per-tag MPI message counts and bytes, mailbox depth high-water
	// marks, worker fetch/prefetch/cache statistics, wait-time
	// histograms, and server cache/disk counters.
	Metrics *obs.Registry
	// GatherArrays collects all distributed and served array contents
	// into the Result after the run (for tests and small problems).
	GatherArrays bool
	// RecvTimeout bounds each wait of a worker or the master for a message it
	// is owed (chunk and block replies, acks, gather).  After three
	// RecvTimeout-long receives in silence the waiting rank rules on it
	// (runtime.await, docs/FAULTS.md): a run that can survive losing the
	// silent peer evicts it, any other fails the world naming it instead of
	// hanging.  That verdict is the only failure that fails the world; every
	// other one winds the job down as Cancel does.  A pool job never has one
	// set, so it never reaches a verdict.  0 (the default) never times out,
	// right for in-process runs where no rank can silently vanish; a set
	// value must exceed the longest legitimate quiet stretch (e.g. a server
	// flushing a large cache to disk).
	RecvTimeout time.Duration
	// Recover decides what a diagnosed rank death does, and nothing else:
	// off (the default) it fails the whole run fast; on, a dead worker is
	// evicted and the run completes without it.  What makes the eviction
	// exact is always kept — the master's ledger of handed-out pardo
	// chunks, whose unacknowledged iterations go back to the survivors,
	// and the effect seqs that drop replayed put/prepare at their
	// destinations.  Blocks of *distributed* (worker-homed) arrays on the
	// dead worker are lost — recovery is exact for programs that stage
	// mutable state through served arrays and scalars (docs/FAULTS.md,
	// "Recovery").  Master death stays fatal, and so does I/O-server
	// death at Replicas == 1.
	Recover bool
	// Replicas is the number of I/O servers holding each served-array
	// block (default 1).  Every served block gets a deterministic replica
	// set — the Replicas live servers that rendezvous hashing ranks
	// highest for it (replica.go): put/prepare goes to every member (the
	// effect-seq dedup keeps retries idempotent) and request reads from
	// the primary.  From 2 up a block survives its server: reads fail
	// over to the backups and — combined with Recover — a dead server
	// rank is evicted instead of fatal, with an anti-entropy pass at the
	// next server barrier re-replicating under-replicated blocks.  Must
	// not exceed Servers.
	Replicas int
	// ObsShip enables the observability plane for distributed runs
	// (RunRank): every non-master rank periodically ships its metric
	// snapshot and new trace ring segments to the master on tagObs, where
	// ObsAgg merges them into one cluster view, and its home's answer to
	// shutdown carries the last report, with the rank's counters folded.
	// No-op for the in-process Run, whose ranks share one registry and
	// tracer.
	ObsShip bool
	// ObsAgg is the master-side sink of shipped telemetry (rank 0
	// only).  Required when ObsShip is set on the master.  With a flight
	// directory set (obs.Aggregator.SetFlightRecorder) it is also the flight
	// recorder: whenever a rank is evicted or diagnosed failed, the
	// master writes a post-mortem bundle there.
	ObsAgg *obs.Aggregator
	// Cancel, when non-nil, cancels the run cooperatively once it is
	// closed: the master stops dispatching pardo iterations (every chunk
	// request is answered empty and iterations reclaimed from dead
	// workers are dropped), so the program fast-forwards through its
	// remaining phases and the normal shutdown protocol retires the
	// run's tag window, block namespaces, and server-side state exactly
	// as on completion.  The run then reports ErrJobCanceled; any partial
	// results are discarded.  This is the mechanism behind `sial serve`
	// job deadlines and POST /jobs/{id}/cancel, and the path every failure
	// but a silence verdict (RecvTimeout) takes too: a worker's error, or
	// the master's own, gives the job up the same way, and the run reports
	// that error.
	Cancel <-chan struct{}
	// CkptInterval enables automatic consistent job snapshots
	// (snapshot.go): the master captures a restartable checkpoint at
	// every sealed sync round and every CkptInterval completed pardo
	// chunks (when the open pardos are pure).  Independent of Recover: a
	// snapshot survives the whole run dying, an eviction one rank.  0
	// disables checkpointing.
	CkptInterval int
	// CkptName names the snapshot directory <scratch>/ckpt/<CkptName>.
	// A restarted run resumes only from snapshots written under the same
	// name (default "job"; sial serve uses the stable per-job id).
	CkptName string
	// Resume, with CkptInterval set, loads the newest valid snapshot
	// under CkptName at startup and resumes from it: servers are
	// rehydrated (worker/server counts may differ from the snapshotting
	// run), workers jump to the recorded program counter, and completed
	// pardo iterations are skipped.  Without Resume any existing
	// snapshots under CkptName are cleared first.
	Resume bool
	// Stop, when non-nil and closed, requests a checkpoint-then-stop:
	// the master takes one final snapshot at the next consistency point
	// and then cancels the run (ErrJobCanceled).  This is the drain path
	// of sial serve — the requeued job resumes from that snapshot after
	// restart.  Without checkpointing it behaves exactly like Cancel.
	Stop <-chan struct{}
	// OnSnapshot, when non-nil, is called after every completed snapshot
	// (from the master goroutine; keep it fast).
	OnSnapshot func(SnapshotInfo)
	// OnResume, when non-nil, is called once if the run resumed from a
	// snapshot.
	OnResume func(ResumeInfo)
}

// DefaultPrefetchWindow is the look-ahead depth of a Config that sets
// none and of the CLI's -prefetch flag, from the sweep in EXPERIMENTS.md
// "Overlap": a message-bound run likes 8 better than 4 better than 2, a
// compute-bound one does not care.
const DefaultPrefetchWindow = 8

func (c *Config) fill() error {
	if c.Workers < 1 {
		return fmt.Errorf("sip: Workers = %d, need >= 1", c.Workers)
	}
	if c.Servers < 0 {
		return fmt.Errorf("sip: Servers = %d, need >= 0", c.Servers)
	}
	if c.Seg.Default == 0 {
		c.Seg = bytecode.DefaultSegConfig(4)
	}
	if c.PrefetchWindow == 0 {
		c.PrefetchWindow = DefaultPrefetchWindow
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 1024
	}
	if c.ServerCacheBlocks == 0 {
		c.ServerCacheBlocks = 1024
	}
	if c.ServerCacheBlocks < 1 {
		// A server must be able to pin at least the block it is working
		// on; smaller values would make insert evict its own entry.
		c.ServerCacheBlocks = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 1 {
		return fmt.Errorf("sip: Replicas = %d, need >= 1", c.Replicas)
	}
	if c.Replicas > max(c.Servers, 1) { // a run without served arrays needs no server
		return fmt.Errorf("sip: Replicas = %d exceeds Servers = %d", c.Replicas, c.Servers)
	}
	if c.Output == nil {
		c.Output = os.Stdout
	}
	if c.Integrals == nil {
		c.Integrals = DefaultIntegrals
	}
	if c.CkptInterval < 0 {
		return fmt.Errorf("sip: CkptInterval = %d, need >= 0", c.CkptInterval)
	}
	if c.CkptInterval > 0 && c.CkptName == "" {
		c.CkptName = "job"
	}
	if c.Resume && c.CkptInterval == 0 {
		return fmt.Errorf("sip: Resume requires CkptInterval > 0")
	}
	return nil
}

// ArrayBlock is one gathered block of a distributed or served array.
type ArrayBlock struct {
	Ord  int // block ordinal within the array shape
	Data []float64
}

// Result reports the outcome of a SIP run.
type Result struct {
	// Scalars holds final scalar values (from worker 1; collectives
	// make them identical across workers).
	Scalars map[string]float64
	// Arrays holds gathered distributed arrays (GatherArrays only).
	Arrays map[string][]ArrayBlock
	// Served holds gathered served arrays (GatherArrays only).
	Served map[string][]ArrayBlock
	// Profile aggregates per-instruction timing and wait statistics.
	Profile *Profile
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// placement locates one run inside a world.  The job id strides every
// tag the run's master and workers use by job*jobTagStride and namespaces
// every block key, file name and effect id, isolating concurrent jobs end
// to end.  A batch run (batch) is job 0 owning the world, laid out
// contiguously, with unconstrained dispatch.  A pool hands the launcher a
// positive job id together with the live membership it snapshotted at
// admission (so jobs admitted after a rank join include the newcomer while
// running jobs keep their group) and its fairness gate.
type placement struct {
	job   int
	ranks Ranks
	gate  ChunkGate
}

// batch is the placement of a run that owns its world: job 0, its ranks
// laid out from cfg's counts.
func batch(cfg Config) placement {
	return placement{ranks: newRanks(cfg.Workers, cfg.Servers, 0)}
}

// runtime is the state shared (read-only after construction) by all
// ranks of one SIP run.
type runtime struct {
	cfg    Config
	prog   *bytecode.Program
	layout *bytecode.Layout
	spaces []space     // by pardo id: its iteration space
	supers []SuperFunc // by string id: what an execute naming it runs (superTable)
	world  *mpi.World
	ranks  Ranks // who plays which role; the one source of roles and liveness

	// job namespaces this run's block keys, and tagBase (job*jobTagStride)
	// its message tags, inside the world.
	job     int
	tagBase int

	gate ChunkGate // nil = unconstrained guided self-scheduling

	scratch    string
	ownScratch bool // scratch is a temp dir this runtime removes on close

	tracer  *obs.Tracer   // nil when span tracing is disabled
	metrics *obs.Registry // nil when metrics are disabled
	ship    *obsShipper   // a RunRank rank's telemetry shipper; nil when it does not ship

	outMu sync.Mutex
}

// tag offsets a base message tag into this run's job tag space.
func (rt *runtime) tag(t int) int { return rt.tagBase + t }

// fired reports, without blocking, whether ch (Config.Cancel, Config.Stop)
// is closed; a nil channel never is.
func fired(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// abortError is the error of rank who (as in "worker 2") whose receive
// an abort unwound (an ErrAborted panic): the world's diagnosis with the
// failed rank's role when detection attributed the abort, else a generic
// one.  It wraps both the RankFailure (errors.As extracts the rank) and
// ErrAborted (errors.Is classifies the abort), the latter last.
func (rt *runtime) abortError(who string) error {
	if f := rt.world.Failure(); f != nil {
		return fmt.Errorf("sip: %s: aborted: %w (%s): %w", who, f, rt.ranks.Role(f.Rank), mpi.ErrAborted)
	}
	return fmt.Errorf("sip: %s: aborted after peer failure: %w", who, mpi.ErrAborted)
}

// newRuntime is the one bootstrap behind Run, RunRank, NewPool and
// Pool.RunJob: it fills and validates the config, resolves the layout
// (a pool's shared-server runtime has no program of its own) and settles
// the scratch directory.  A nil world means a fresh in-process one sized
// for the placement's ranks, which takes this runtime's policy
// (setPolicy): Run's and NewPool's.  A world handed in keeps the policy
// its creator set.
func newRuntime(prog *bytecode.Program, cfg Config, world *mpi.World, at placement) (*runtime, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rt := &runtime{
		cfg:     cfg,
		prog:    prog,
		world:   world,
		ranks:   at.ranks,
		job:     at.job,
		tagBase: at.job * jobTagStride,
		gate:    at.gate,
		scratch: cfg.ScratchDir,
		tracer:  cfg.Tracer,
		metrics: cfg.Metrics,
	}
	if prog != nil {
		layout, err := resolve(prog, &cfg)
		if err != nil {
			return nil, err
		}
		rt.layout = layout
		rt.spaces = newSpaces(rt)
		rt.supers = superTable(prog.Strings, cfg.Super)
	}
	if rt.scratch == "" {
		dir, err := os.MkdirTemp("", "sip-scratch-")
		if err != nil {
			return nil, fmt.Errorf("sip: scratch dir: %w", err)
		}
		rt.scratch, rt.ownScratch = dir, true
	}
	if rt.world == nil {
		rt.world = mpi.NewWorld(rt.ranks.Size())
		rt.setPolicy()
	}
	return rt, nil
}

// setPolicy sets the policy of a world before any rank communicates: the
// ranks a recovering run may evict, and the observer counting every
// message.  It is set by the code that creates the world (newRuntime, for
// Run and NewPool) or is handed it (RunRank); a pool job runs under its
// pool's.
func (rt *runtime) setPolicy() {
	if rt.cfg.Recover {
		rt.world.SetRecover(rt.ranks.critical(rt.cfg.Replicas)...)
	}
	if rt.cfg.Metrics != nil {
		rt.world.SetObserver(newMPIStats(rt.cfg.Metrics, rt.world.Size()))
	}
}

// close releases what newRuntime acquired.
func (rt *runtime) close() {
	if rt.ownScratch {
		os.RemoveAll(rt.scratch)
	}
}

// launch plays the given world ranks of this run in the calling process
// and blocks until they finish: one goroutine per worker interpreter,
// worker service loop and I/O server, with the master (when hosted) on
// the caller's goroutine.  Run hosts every rank, RunRank one, a pool job
// its master and workers, a pool itself its shared servers.
//
// One rule triages the ranks' errors: a rank's own failure wins; errors
// of evicted ranks are not failures of the run (the world deliberately
// completed degraded without them, and the eviction is already part of
// the master's diagnosis); the secondary "aborted after peer failure"
// errors an abort fans out to bystanders are only the fallback.  Every
// entry point then reports a degraded or failed run the same way: the
// evictions and the world's failure are counted and traced, and a master
// that saw the world fail writes a flight record.  Each rank folds its own
// counters as its part ends (foldMetrics), failed or not; launch merges
// the profiles into Result.Profile and takes the snapshot.
func (rt *runtime) launch(hosted []int) (*Result, error) {
	started := time.Now()
	var m *master
	var workers []*worker
	var servers []*ioServer
	errs := make([]error, len(hosted))
	var wg sync.WaitGroup
	for i, rank := range hosted {
		switch {
		case rank == 0:
			m = newMaster(rt)
		case rt.ranks.workerIndex(rank) >= 0:
			w := newWorker(rt, rank)
			workers = append(workers, w)
			w.ran.Add(1)
			wg.Add(2)
			go func() {
				defer wg.Done()
				errs[i] = w.run()
			}()
			go func() {
				defer wg.Done()
				w.serviceLoop()
			}()
		default:
			s := newIOServer(rt, rank)
			servers = append(servers, s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.run()
			}()
		}
	}
	res := &Result{}
	var masterErr error
	if m != nil {
		res, masterErr = m.run()
	}
	wg.Wait()

	var err, aborted error
	judge := func(rank int, e error) {
		switch {
		case err != nil, e == nil, rt.world.IsEvicted(rank):
		case errors.Is(e, mpi.ErrAborted):
			if aborted == nil {
				aborted = e
			}
		default:
			err = e
		}
	}
	for i, rank := range hosted {
		judge(rank, errs[i])
	}
	// The master is judged last: its error is at best a relay of a
	// worker's or server's own.
	judge(0, masterErr)
	if m == nil {
		// The master counts evictions as it folds them into its ledger; a
		// process hosting none counts them here, so every process's
		// metrics show the degraded membership.
		for rank, reason := range rt.world.Evicted() {
			observeFault(rt.metrics, rt.tracer, metricFaultRankEvicted, rank, reason)
		}
	}
	if err = cmp.Or(err, aborted); err != nil {
		if f := rt.world.Failure(); f != nil {
			observeFault(rt.metrics, rt.tracer, metricFaultRankFailure, f.Rank, f.Reason)
			if m != nil {
				rt.flightRecord("failed", f.Rank, f.Reason)
			}
		}
		return nil, err
	}

	if m == nil && len(workers) > 0 {
		// A worker-only host reports its local view of the scalars; the
		// authoritative ones are the master's.
		res.Scalars = map[string]float64{}
		for i, sc := range rt.prog.Scalars {
			res.Scalars[sc.Name] = workers[0].scalars[i]
		}
	}
	if len(workers)+len(servers) > 0 || rt.metrics != nil {
		res.Profile = mergeProfiles(workers, servers)
		if rt.metrics != nil {
			res.Profile.Metrics = rt.metrics.Snapshot()
		}
	}
	res.Elapsed = time.Since(started)
	return res, nil
}

// DefaultIntegrals is the built-in synthetic two-electron integral
// generator: a deterministic, smooth, symmetric function of the global
// element indices with 1/(1+distance) decay, standing in for the real
// integrals the paper computes on demand (§V-B).
func DefaultIntegrals(arr string, lo, hi []int) *block.Block {
	var dimBuf, idxBuf [8]int
	dims, idx := dimBuf[:len(lo)], idxBuf[:len(lo)]
	for d := range lo {
		dims[d] = hi[d] - lo[d] + 1
	}
	b := block.Get(dims...)
	data := b.Data()
	for off := range data {
		// Decode off into a multi-index (row-major).
		rem := off
		for d := len(dims) - 1; d >= 0; d-- {
			idx[d] = rem%dims[d] + lo[d]
			rem /= dims[d]
		}
		var spread, center float64
		for _, v := range idx {
			center += float64(v)
		}
		center /= float64(len(idx))
		for _, v := range idx {
			dv := float64(v) - center
			spread += dv * dv
		}
		data[off] = 1.0 / (1.0 + spread + 0.1*center)
	}
	return b
}

// HashPlacement is the static home of a distributed block, as a 0-based
// worker index: a multiplicative hash spreading blocks without regard to
// locality, which "works well in practice" because access patterns are
// irregular and communication is overlapped anyway (paper §V-B).
func HashPlacement(arr, ord, workers int) int {
	return (arr*2654435761 + ord) % workers
}

// Run compiles nothing: it executes an already compiled program under the
// given configuration, every rank hosted in-process on a fresh world, and
// returns the result.
func Run(prog *bytecode.Program, cfg Config) (*Result, error) {
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		return nil, err
	}
	defer rt.close()
	return rt.launch(contiguousRanks(0, rt.world.Size()))
}

// RunSource is a convenience wrapper: parse, check, compile, run.
func RunSource(src string, cfg Config) (*Result, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return Run(prog, cfg)
}
