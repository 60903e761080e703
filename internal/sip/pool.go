package sip

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Pool is the runtime substrate of `sial serve`: one persistent world of
// master-plane, worker, and I/O-server ranks that executes many compiled
// SIAL programs concurrently instead of being torn down after one run.
// A job is described by the same Config as a batch run; the pool fills
// in the fields that describe its world (see Config).
//
// Multiplexing works by namespace striding, not by partitioning ranks:
// every admitted job gets a dense id j >= 1, its message tags are offset
// by j*jobTagStride (so concurrent jobs share each rank's mailbox
// without ever matching each other's messages — rank 0 in particular
// runs one master goroutine per job, each receiving on its own tag
// window), and its block keys carry the job id end to end (worker
// partitions, server caches and disk files, effect-dedup ledgers,
// replica placement).  The I/O servers are shared: one server loop per
// server rank serves every job's served arrays, keyed by job, for the
// pool's whole lifetime.
//
// Every sync point of a job is a round mediated by the job's own master
// on the job's strided tags, so concurrent jobs — even ones with
// identical membership — never see each other's barriers.  Every job
// keeps the chunk ledger and effect seqs a replay needs, which gives a
// recovering pool (PoolConfig.Recover) its elasticity: worker kills are
// evictions the job replays around, and rank joins only require that
// later jobs' membership snapshots include the newcomer.
type Pool struct {
	cfg   PoolConfig
	world *mpi.World

	// base is the shared servers' runtime: it has no program of its own
	// (every block the servers touch carries a tenant's job id, whose
	// registration supplies the layout) and owns the scratch directory.
	base *runtime

	bg     sync.WaitGroup // the shared servers' launch and the supervisor
	srvErr error          // the shared servers' triaged error, set when bg is done

	mu      sync.Mutex
	nextJob int
	ranks   Ranks // live workers (Join adds one, Kill removes one), servers, latent spares
	closed  bool
}

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Workers is the number of initially live worker ranks (>= 1).
	Workers int
	// Servers is the number of shared I/O-server ranks.
	Servers int
	// Spares is the number of latent worker ranks provisioned above the
	// servers; Join activates them one at a time.
	Spares int
	// Replicas is the served-array replication factor applied to every
	// job (see Config.Replicas).
	Replicas int
	// Recover makes worker ranks (and, from two Replicas up, server
	// ranks) evictable, so Kill degrades jobs instead of failing them.
	Recover bool
	// ScratchDir holds every job's served blocks and checkpoints
	// (job-prefixed).  Empty means a temporary directory owned by the
	// pool and removed on Close.
	ScratchDir string
	// Gate, when non-nil, arbitrates chunk dispatch between concurrent
	// jobs (FIFO-with-fairness; see ChunkGate).
	Gate ChunkGate
	// Output receives job print statements and pool diagnostics
	// (default os.Stdout).
	Output io.Writer
	// Metrics, when non-nil, collects pool-lifetime counters (shared
	// server cache/disk statistics, MPI traffic).  A job's own Metrics
	// receives its worker and master counters, keeping tenants' telemetry
	// separate.
	Metrics *obs.Registry
	// Tracer, when non-nil, traces the pool and every job it runs.
	Tracer *obs.Tracer
}

// ErrJobCanceled is returned (wrapped) by a run whose Config.Cancel or
// Config.Stop channel gave it up before any failure did: the master
// abandoned the remaining work, the program fast-forwarded through its
// normal shutdown, and every pool resource the job held was released.
// Partial results are discarded.  A run a failure gave up returns that
// failure instead, through the same shutdown.
var ErrJobCanceled = errors.New("sip: job canceled")

// NewPool builds the world, starts the shared I/O servers and the
// rank-0 supervisor, and returns a pool ready to accept jobs.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Workers < 1 || cfg.Servers < 0 || cfg.Spares < 0 {
		return nil, fmt.Errorf("sip: pool needs Workers >= 1 and Servers, Spares >= 0, got %d/%d/%d",
			cfg.Workers, cfg.Servers, cfg.Spares)
	}
	if cfg.Output == nil {
		cfg.Output = os.Stdout
	}
	ranks := newRanks(cfg.Workers, cfg.Servers, cfg.Spares)
	base, err := newRuntime(nil, Config{
		Workers:    cfg.Workers,
		Servers:    cfg.Servers,
		Replicas:   cfg.Replicas,
		Recover:    cfg.Recover,
		ScratchDir: cfg.ScratchDir,
		Output:     cfg.Output,
		Tracer:     cfg.Tracer,
		Metrics:    cfg.Metrics,
	}, nil, placement{ranks: ranks})
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, world: base.world, base: base, nextJob: 1, ranks: ranks}
	if len(ranks.spares) > 0 {
		p.world.SetLatent(ranks.spares...)
	}
	p.bg.Add(2)
	go func() {
		defer p.bg.Done()
		_, p.srvErr = base.launch(ranks.servers)
	}()
	go p.supervise()
	return p, nil
}

// supervise owns rank 0's job-0 tag window for the pool's lifetime: the
// un-strided tags no tenant master listens on.  It logs the failure
// reports of dying shared servers, so a degraded pool is visible, and
// ignores the servers' answers to Close's shutdowns (Close waits for the
// server goroutines instead).  A pool ships no telemetry: only RunRank
// starts a shipper, and RunJob refuses ObsShip.
func (p *Pool) supervise() {
	defer p.bg.Done()
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	comm := p.world.Comm(0)
	for {
		m := comm.RecvRange(mpi.AnySource, 0, jobTagStride-1)
		switch msg := m.Data.(type) {
		case doneMsg:
			fmt.Fprintf(p.cfg.Output, "[pool] rank %d: %s\n", m.Source, msg.err)
		case shutdownMsg:
			return // Close
		}
	}
}

// Workers returns the live worker ranks (a copy).
func (p *Pool) Workers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ranks.liveWorkers(p.world, nil, nil)
}

// Ranks returns the pool's membership now: the workers it has not killed,
// in join order, its I/O servers and its still-latent spares.
func (p *Pool) Ranks() Ranks {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ranks
}

// Evicted returns evicted ranks with their eviction reasons (for
// health endpoints).
func (p *Pool) Evicted() map[int]string { return p.world.Evicted() }

// Kill evicts a live worker rank, as fault injection or administrative
// drain.  Jobs running over the rank recover (replaying its chunks);
// jobs admitted afterwards exclude it.
func (p *Pool) Kill(rank int, reason string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("sip: pool is closed")
	}
	idx := p.ranks.workerIndex(rank)
	if idx < 0 {
		return fmt.Errorf("sip: rank %d is not a live pool worker", rank)
	}
	if !p.world.Evictable(rank) {
		return fmt.Errorf("sip: rank %d is not evictable (pool not recovering?)", rank)
	}
	p.world.Evict(rank, reason)
	// A new list: running jobs and the base runtime share the old one.
	p.ranks.workers = slices.Delete(slices.Clone(p.ranks.workers), idx, idx+1)
	return nil
}

// Join activates one latent spare rank as a new worker and returns its
// rank.  Running jobs keep their membership snapshot; jobs admitted
// after the join schedule onto the newcomer too.
func (p *Pool) Join() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, fmt.Errorf("sip: pool is closed")
	}
	if len(p.ranks.spares) == 0 {
		return 0, fmt.Errorf("sip: no spare ranks left to join")
	}
	rank := p.ranks.spares[0]
	if !p.world.Join(rank) {
		return 0, fmt.Errorf("sip: rank %d failed to join", rank)
	}
	p.ranks.spares = p.ranks.spares[1:]
	p.ranks.workers = append(slices.Clip(p.ranks.workers), rank) // a new list, as in Kill
	return rank, nil
}

// RunJob admits and executes one job, blocking until it completes.  Safe
// for concurrent use: each call claims a fresh job id and tag window and
// runs its own master and worker goroutines over the shared world.  cfg
// describes the job as it would a Run, less the fields the pool owns (see
// Config).  CkptName must be stable across restarts of the same logical
// job, which pool job ids (assigned in admission order) are not.
func (p *Pool) RunJob(prog *bytecode.Program, cfg Config) (res *Result, err error) {
	if prog == nil {
		return nil, fmt.Errorf("sip: job has no program")
	}
	if f := poolOwned(&cfg); f != "" {
		return nil, fmt.Errorf("sip: job sets Config.%s, which the pool owns", f)
	}
	// A poisoned world (a critical rank died and aborted it) unwinds
	// communication on the caller's goroutine as an ErrAborted panic —
	// e.g. out of registerJob's readiness wait.  Surface it as an error:
	// one dead pool must not crash the process hosting it.
	defer func() {
		if r := recover(); r != nil {
			if r != mpi.ErrAborted {
				panic(r)
			}
			err = p.base.abortError("pool job")
		}
	}()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("sip: pool is closed")
	}
	job := p.nextJob
	p.nextJob++
	ranks := p.ranks.live(p.world)
	p.mu.Unlock()
	if len(ranks.workers) == 0 {
		return nil, fmt.Errorf("sip: pool has no live workers")
	}

	cfg.Workers, cfg.Servers = len(ranks.workers), len(ranks.servers)
	cfg.ScratchDir, cfg.Tracer = p.base.scratch, p.cfg.Tracer
	cfg.Recover, cfg.Replicas = p.cfg.Recover, p.cfg.Replicas
	if cfg.Output == nil {
		cfg.Output = p.cfg.Output
	}
	rt, err := newRuntime(prog, cfg, p.world, placement{job: job, ranks: ranks, gate: p.cfg.Gate})
	if err != nil {
		return nil, err
	}
	if err := p.registerJob(rt); err != nil {
		return nil, err
	}

	// A gate that tracks job lifecycles (e.g. serve.FairGate) learns the
	// pool-assigned job id here, bracketing the run.
	if lc, ok := p.cfg.Gate.(interface {
		Start(job int)
		Finish(job int)
	}); ok {
		lc.Start(job)
		defer lc.Finish(job)
	}
	return rt.launch(append([]int{0}, ranks.workers...))
}

// poolOwned names the first field of a job's Config that the pool owns
// and the job set, or "".
func poolOwned(c *Config) string {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Workers", c.Workers != 0},
		{"Servers", c.Servers != 0},
		{"ScratchDir", c.ScratchDir != ""},
		{"Tracer", c.Tracer != nil},
		{"Recover", c.Recover},
		{"Replicas", c.Replicas != 0},
		{"ServerCacheBlocks", c.ServerCacheBlocks != 0},
		{"RecvTimeout", c.RecvTimeout != 0},
		{"ObsShip", c.ObsShip},
		{"ObsAgg", c.ObsAgg != nil},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}

// registerJob announces the job's layout to every live shared server and
// collects their readiness acks, so the first prepare a worker sends can
// be sized and placed.  It waits as long as installing the presets takes:
// a tenant never rules on silence (see await), and an evicted server is
// written off.
func (p *Pool) registerJob(rt *runtime) error {
	comm := p.world.Comm(0)
	reg := &srvJob{
		job:      rt.job,
		prog:     rt.prog,
		layout:   rt.layout,
		preset:   rt.cfg.Preset,
		replicas: rt.cfg.Replicas,
		servers:  rt.ranks.servers,
	}
	for _, srv := range rt.ranks.servers {
		comm.Send(srv, tagServer, srvRegMsg{j: reg}) // dropped when srv is evicted
	}
	return rt.collect(comm, tagAck, "registration ack", oneEach(rt.ranks.servers), nil)
}

// Close shuts the shared servers down, waits for them and the supervisor
// to stop, and releases the scratch directory if the pool owns it.  Jobs
// must have completed (each had the servers retire its blocks, and heard
// them answer, as it ended); Close does not wait for them.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()

	comm := p.world.Comm(0)
	for _, srv := range p.ranks.servers {
		comm.Send(srv, tagServer, shutdownMsg{}) // dropped when srv is evicted
	}
	comm.Send(0, tagDone, shutdownMsg{}) // wakes the supervisor out of its receive
	p.bg.Wait()
	p.base.close()
	if errors.Is(p.srvErr, mpi.ErrAborted) {
		return nil // the pool died with its world; the jobs reported why
	}
	return p.srvErr
}
