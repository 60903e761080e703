package serve

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sip"
)

// Job states.  Terminal states end a job's life; StateRequeued is the
// one non-queued, non-running, non-terminal state: a drain handed the
// job back to the journal, and the next process will resubmit it.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateRejected = "rejected"
	StateTimeout  = "timeout"
	StateCanceled = "canceled"
	StateRequeued = "requeued"
)

const (
	// maxRetries is how often a job whose failure was a membership
	// casualty (a rank died mid-run and took the job's distributed blocks
	// with it) is re-run.  A retry snapshots the pool's reshaped live
	// membership, so a job caught in an eviction re-executes cleanly on
	// the survivors.
	maxRetries = 2
	// journalCompactBytes triggers compaction when the journal tail grows
	// past it.
	journalCompactBytes = 1 << 20
)

// Sentinel errors for the control-plane endpoints.
var (
	// ErrDraining rejects submissions while the service drains for
	// shutdown; the HTTP layer maps it to 503 with Retry-After.
	ErrDraining = errors.New("serve: draining, not accepting submissions")
	// ErrNoJob reports an unknown job id.
	ErrNoJob = errors.New("serve: no such job")
	// ErrJobTerminal reports a cancel aimed at a job that already
	// finished.
	ErrJobTerminal = errors.New("serve: job already terminal")
)

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s") and unmarshals from either that form or a bare number of
// seconds, so curl-written JSON can say "deadline": 30.
type Duration time.Duration

func (d Duration) String() string { return time.Duration(d).String() }

func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d).String())), nil
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		s := string(b[1 : len(b)-1])
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if _, err := fmt.Sscanf(string(b), "%g", &secs); err != nil {
		return fmt.Errorf("serve: bad duration %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Config parameterizes a Service.
type Config struct {
	// Pool is the shape of the underlying sip.Pool.  Pool.Gate is set by
	// the service (FairGate); Pool.Output defaults to io.Discard-like
	// buffering per job.
	Pool sip.PoolConfig
	// MaxConcurrent bounds simultaneously running jobs (default 4).
	MaxConcurrent int
	// MemBudget is the per-worker memory the whole pool may use, in
	// bytes.  Each job is charged its dry-run PerWorkerBytes estimate:
	// jobs whose estimate alone exceeds the budget are rejected at
	// submission, and admission waits until the running jobs' combined
	// charge leaves room.  0 means unlimited.
	MemBudget int64
	// QueueCap bounds the submission queue (default 256); submissions
	// beyond it are rejected.
	QueueCap int
	// DefaultSeg is the segment size used when a submission does not
	// name one (default 4).
	DefaultSeg int
	// Burst is the fairness gate's dispatch lead (see FairGate).
	Burst int64
	// JobMetrics, when true, gives every job a private obs.Registry
	// whose counters are reported in the job's status.
	JobMetrics bool
	// JournalDir enables the write-ahead job journal: every lifecycle
	// event is fsync'd there before it is acknowledged, and a restart
	// on the same directory replays history and resubmits every job
	// that had not reached a terminal state.  Empty disables
	// durability.
	JournalDir string
	// HistoryLimit caps terminal jobs kept in memory: beyond it the
	// oldest are evicted down to an id→state stub, with the full record
	// still in the journal.  Default 1000; negative means unlimited.
	HistoryLimit int
	// Warn receives non-fatal operational complaints (torn journal
	// tail, failed compaction).  Default log.Printf.
	Warn func(format string, args ...any)
	// MaxBody caps the HTTP submit body in bytes (default 1 MiB); an
	// oversized submission gets 413 instead of OOMing the master.
	MaxBody int64
	// CkptInterval enables automatic job snapshots (sip.Config
	// CkptInterval): every job checkpoints at its consistency points and
	// every CkptInterval completed pardo chunks, a drain takes one final
	// snapshot before requeueing, and a restarted service resumes
	// requeued jobs from their newest valid snapshot instead of from
	// scratch.  Requires Pool.ScratchDir (and JournalDir, for restart) to
	// point at durable directories.  0 disables checkpointing.
	CkptInterval int
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	// Name labels the job in status output (default "job-<id>").
	Name string `json:"name"`
	// Source is SIAL source text, compiled at submission.  Empty selects
	// the named Pack's canonical source, compiled once per pack.
	Source string `json:"source"`
	// Pack names a registered environment pack (presets, integrals,
	// super instructions) — see RegisterPack.  Empty runs with the
	// default synthetic environment.
	Pack string `json:"pack"`
	// Params supplies program parameter overrides.
	Params map[string]int `json:"params,omitempty"`
	// Seg overrides the service's default segment size.
	Seg int `json:"seg,omitempty"`
	// Gather collects array contents into the job result.
	Gather bool `json:"gather,omitempty"`
	// Deadline bounds the job's total life from submission (queue wait
	// included): past it the job is canceled cooperatively and lands in
	// state "timeout", releasing its tag window, namespaces, and memory
	// charge.  Zero means no deadline.  After a restart the deadline
	// re-arms in full — the clock measures service, not wall time
	// across crashes.
	Deadline Duration `json:"deadline,omitzero"`
	// IdempotencyKey deduplicates retries: a second submission with the
	// same non-empty key returns the original job instead of creating a
	// new one, and the mapping is journaled, so the dedup holds across
	// a service restart.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID             int       `json:"id"`
	Name           string    `json:"name"`
	Pack           string    `json:"pack,omitempty"`
	State          string    `json:"state"`
	PerWorkerBytes int64     `json:"per_worker_bytes"`
	Submitted      time.Time `json:"submitted"`
	Started        time.Time `json:"started,omitzero"`
	Finished       time.Time `json:"finished,omitzero"`
	Error          string    `json:"error,omitempty"`
	// Retries counts re-executions after membership-casualty failures
	// (a pool rank died mid-run; see maxRetries).
	Retries int                `json:"retries,omitempty"`
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Metrics holds the job's private counter snapshot (Config.JobMetrics).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Deadline echoes the submission's deadline, if any.
	Deadline Duration `json:"deadline,omitzero"`
	// IdempotencyKey echoes the submission's dedup key, if any.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Snapshot progress (Config.CkptInterval > 0): the newest checkpoint
	// epoch, when it was taken, and its size; Resumed marks a run that
	// restarted from a snapshot rather than from scratch.
	CkptEpoch int       `json:"ckpt_epoch,omitempty"`
	CkptTime  time.Time `json:"ckpt_time,omitzero"`
	CkptBytes int64     `json:"ckpt_bytes,omitempty"`
	Resumed   bool      `json:"resumed,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (s JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateRejected, StateTimeout, StateCanceled:
		return true
	}
	return false
}

// job is the service-internal record.
type job struct {
	status  JobStatus
	prog    *bytecode.Program
	cfg     sip.Config
	result  *sip.Result
	metrics *obs.Registry
	done    chan struct{}

	// cancel feeds sip cancellation (Config.Cancel); cancelState is the
	// terminal state a fired cancel is steering toward (timeout or
	// canceled), set under Service.mu before the channel closes.
	cancel      chan struct{}
	cancelOnce  sync.Once
	cancelState string
	// stop feeds the graceful drain-stop (Config.Stop): the master takes
	// one final snapshot at the next consistency point, then self-cancels.
	// Nil when checkpointing is off.
	stop     chan struct{}
	stopOnce sync.Once
	// deadlineTimer fires the job's deadline; stopped at terminal.
	deadlineTimer *time.Timer
	// requeued marks a job the drain handed back to the journal: its run
	// outcome is discarded and no terminal event is journaled, so the
	// next process resubmits it.
	requeued bool
}

func (j *job) closeCancel() { j.cancelOnce.Do(func() { close(j.cancel) }) }

func (j *job) closeStop() {
	if j.stop == nil {
		j.closeCancel()
		return
	}
	j.stopOnce.Do(func() { close(j.stop) })
}

func (j *job) cancelRequested() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// Service queues, admits, and executes jobs on a shared pool.
type Service struct {
	cfg   Config
	pool  *sip.Pool
	gate  *FairGate
	packs map[string]*packEntry

	journal *Journal

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[int]*job
	queue    []int // FIFO of queued job ids
	nextID   int
	running  int
	memUse   int64
	closed   bool
	draining bool
	drainNow bool // cut the drain window short (second shutdown signal)
	// byKey maps idempotency keys to job ids; entries outlive history
	// eviction so dedup keeps working for retired jobs.
	byKey map[string]int
	// history is terminal job ids in completion order (the eviction
	// queue); retired holds evicted ids' final state.
	history []int
	retired map[int]string
	// pendingReplay holds journal-replayed jobs awaiting Resume() —
	// resubmission needs the packs, which register after New.
	pendingReplay []*replayedJob

	admitWG sync.WaitGroup
	runWG   sync.WaitGroup
}

// New builds the pool, opens and replays the journal (Config.JournalDir),
// and starts the admission loop.  Replayed terminal jobs re-enter
// history immediately; replayed live jobs wait for Resume, which must be
// called after the packs they reference are registered.
func New(cfg Config) (*Service, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.DefaultSeg <= 0 {
		cfg.DefaultSeg = 4
	}
	if cfg.HistoryLimit == 0 {
		cfg.HistoryLimit = 1000
	}
	if cfg.Warn == nil {
		cfg.Warn = log.Printf
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	gate := NewFairGate(cfg.Burst)
	cfg.Pool.Gate = gate
	pool, err := sip.NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		pool:    pool,
		gate:    gate,
		packs:   map[string]*packEntry{},
		jobs:    map[int]*job{},
		nextID:  1,
		byKey:   map[string]int{},
		retired: map[int]string{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.JournalDir != "" {
		jn, events, err := OpenJournal(cfg.JournalDir, cfg.Warn)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.journal = jn
		s.loadReplay(events)
	}
	s.admitWG.Add(1)
	go s.admitLoop()
	return s, nil
}

// loadReplay folds the journaled events into the fresh service: terminal
// jobs re-enter history, live jobs are stashed for Resume.
func (s *Service) loadReplay(events []journalEvent) {
	replayed, maxID := foldReplay(events)
	if maxID >= s.nextID {
		s.nextID = maxID + 1
	}
	for _, r := range replayed {
		if r.pending {
			s.pendingReplay = append(s.pendingReplay, r)
			continue
		}
		j := &job{status: r.status, done: make(chan struct{})}
		close(j.done)
		s.jobs[r.id] = j
		s.history = append(s.history, r.id)
		if k := r.status.IdempotencyKey; k != "" {
			s.byKey[k] = r.id
		}
	}
	s.evictLocked() // apply the history cap to the replayed backlog
	sort.Slice(s.pendingReplay, func(a, b int) bool {
		return s.pendingReplay[a].id < s.pendingReplay[b].id
	})
	for _, r := range s.pendingReplay {
		if k := r.req.IdempotencyKey; k != "" {
			s.byKey[k] = r.id
		}
	}
}

// Resume resubmits every journal-replayed live job, in original submit
// order and under its original id, so a restart loses nothing.  Call it
// once, after every pack the journal references is registered; a job
// that no longer compiles (its pack disappeared) fails terminally
// instead of wedging the queue.  It returns the number of jobs
// resubmitted.
func (s *Service) Resume() (int, error) {
	s.mu.Lock()
	pending := s.pendingReplay
	s.pendingReplay = nil
	s.mu.Unlock()
	n := 0
	for _, r := range pending {
		if err := s.resubmit(r); err != nil {
			s.mu.Lock()
			j := &job{status: r.status, done: make(chan struct{})}
			j.status.State = StateFailed
			j.status.Error = fmt.Sprintf("replay resubmission: %v", err)
			j.status.Finished = time.Now()
			close(j.done)
			s.jobs[r.id] = j
			s.journalLocked(journalEvent{Kind: StateFailed, ID: r.id, Status: &j.status})
			s.historyLocked(r.id)
			s.mu.Unlock()
			s.cfg.Warn("serve: replayed job %d could not be resubmitted: %v", r.id, err)
			continue
		}
		n++
	}
	return n, nil
}

// Pool exposes the underlying pool (for admin kill/join).
func (s *Service) Pool() *sip.Pool { return s.pool }

// Gate exposes the fairness gate (for status and tests).
func (s *Service) Gate() *FairGate { return s.gate }

// buildJob compiles and sizes one submission; shared by Submit and the
// replay path.  A submission's own source is compiled per request; a
// pack's is compiled once and shared (packEntry.program).
func (s *Service) buildJob(req SubmitRequest) (*bytecode.Program, sip.Config, *sip.DryRunReport, error) {
	var pack *packEntry
	if req.Pack != "" {
		var ok bool
		pack, ok = s.pack(req.Pack)
		if !ok {
			return nil, sip.Config{}, nil, fmt.Errorf("serve: unknown pack %q", req.Pack)
		}
	}
	var prog *bytecode.Program
	var err error
	switch {
	case req.Source != "":
		prog, err = compileSource(req.Source)
	case pack != nil && pack.Source != "":
		prog, err = pack.program()
	default:
		return nil, sip.Config{}, nil, fmt.Errorf("serve: submission has no source and no pack")
	}
	if err != nil {
		return nil, sip.Config{}, nil, fmt.Errorf("serve: compile: %w", err)
	}
	seg := req.Seg
	if seg <= 0 {
		seg = s.cfg.DefaultSeg
	}
	cfg := sip.Config{
		Params:       req.Params,
		Seg:          bytecode.DefaultSegConfig(seg),
		GatherArrays: req.Gather,
	}
	if pack != nil && pack.Env != nil {
		env := pack.Env(req.Params)
		cfg.Preset, cfg.Super, cfg.Integrals = env.Preset, env.Super, env.Integrals
	}

	// Dry-run sizing against the pool's current live worker count: the
	// paper's pre-execution feasibility analysis, reused as the admission
	// charge.
	workers := len(s.pool.Workers())
	if workers == 0 {
		return nil, sip.Config{}, nil, fmt.Errorf("serve: pool has no live workers")
	}
	sized := cfg
	sized.Workers, sized.Servers = workers, s.cfg.Pool.Servers
	report, err := sip.DryRun(prog, sized, s.cfg.MemBudget)
	if err != nil {
		return nil, sip.Config{}, nil, fmt.Errorf("serve: dry run: %w", err)
	}
	return prog, cfg, report, nil
}

// Submit validates, sizes, and enqueues one job.  The returned status
// is a snapshot: StateQueued on success, StateRejected (with the
// returned error) when the job cannot ever be admitted.  A repeated
// IdempotencyKey returns the original job's status and a nil error.
func (s *Service) Submit(req SubmitRequest) (JobStatus, error) {
	st, _, err := s.submit(req)
	return st, err
}

// submit is Submit plus a dedup flag for the HTTP layer (200 vs 202).
func (s *Service) submit(req SubmitRequest) (JobStatus, bool, error) {
	if req.IdempotencyKey != "" {
		s.mu.Lock()
		if st, ok := s.byKeyLocked(req.IdempotencyKey); ok {
			s.mu.Unlock()
			return st, true, nil
		}
		s.mu.Unlock()
	}
	prog, cfg, report, err := s.buildJob(req)
	if err != nil {
		return JobStatus{}, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, false, fmt.Errorf("serve: service is closed")
	}
	if s.draining {
		return JobStatus{}, false, ErrDraining
	}
	// Re-check the key under the lock: two concurrent retries must not
	// both insert.
	if req.IdempotencyKey != "" {
		if st, ok := s.byKeyLocked(req.IdempotencyKey); ok {
			return st, true, nil
		}
	}
	id := s.nextID
	s.nextID++
	st, err := s.enqueueLocked(id, req, prog, cfg, report.PerWorkerBytes, report.MinWorkers, true)
	return st, false, err
}

// byKeyLocked resolves an idempotency key to its job's status.
func (s *Service) byKeyLocked(key string) (JobStatus, bool) {
	id, ok := s.byKey[key]
	if !ok {
		return JobStatus{}, false
	}
	if j, ok := s.jobs[id]; ok {
		return j.status, true
	}
	if state, ok := s.retired[id]; ok {
		return JobStatus{ID: id, State: state, IdempotencyKey: key}, true
	}
	// A journal-replayed job still awaiting Resume: the retry matches it
	// too — the restart must not turn a retry into a duplicate.
	for _, r := range s.pendingReplay {
		if r.id == id {
			return r.status, true
		}
	}
	return JobStatus{}, false
}

// enqueueLocked creates the job record under id, journals the
// submission when fresh is true (replay resubmissions are already
// journaled), applies the budget and queue-cap gates, and enqueues.
func (s *Service) enqueueLocked(id int, req SubmitRequest, prog *bytecode.Program, cfg sip.Config, perWorker int64, minWorkers int, fresh bool) (JobStatus, error) {
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("job-%d", id)
	}
	j := &job{
		status: JobStatus{
			ID:             id,
			Name:           name,
			Pack:           req.Pack,
			State:          StateQueued,
			PerWorkerBytes: perWorker,
			Submitted:      time.Now(),
			Deadline:       req.Deadline,
			IdempotencyKey: req.IdempotencyKey,
		},
		prog:   prog,
		cfg:    cfg,
		done:   make(chan struct{}),
		cancel: make(chan struct{}),
	}
	j.cfg.Cancel = j.cancel
	if s.cfg.CkptInterval > 0 {
		// Checkpoint identity comes from the durable serve id — pool job
		// ids restart from 1 with the process, serve ids do not — so a
		// requeued job finds its own snapshots after a restart.
		j.stop = make(chan struct{})
		j.cfg.Stop = j.stop
		j.cfg.CkptInterval = s.cfg.CkptInterval
		j.cfg.CkptName = fmt.Sprintf("job%d", id)
		j.cfg.Resume = true
		j.cfg.OnSnapshot = func(info sip.SnapshotInfo) {
			s.noteSnapshot(id, info)
		}
		j.cfg.OnResume = func(sip.ResumeInfo) {
			s.mu.Lock()
			if jb := s.jobs[id]; jb != nil {
				jb.status.Resumed = true
			}
			s.mu.Unlock()
		}
	}
	s.jobs[id] = j
	if req.IdempotencyKey != "" {
		s.byKey[req.IdempotencyKey] = id
	}
	if fresh {
		// Durable before acknowledged: a crash after the caller sees 202
		// must not lose the submission.
		s.journalLocked(journalEvent{Kind: evSubmitted, ID: id, Req: &req})
	}
	if s.cfg.MemBudget > 0 && perWorker > s.cfg.MemBudget {
		msg := fmt.Sprintf("per-worker memory %d B exceeds budget %d B (minimum workers: %d)",
			perWorker, s.cfg.MemBudget, minWorkers)
		s.finishLocked(j, StateRejected, msg)
		return j.status, fmt.Errorf("serve: rejected: %s", msg)
	}
	if len(s.queue) >= s.cfg.QueueCap {
		msg := fmt.Sprintf("queue full (%d jobs)", len(s.queue))
		s.finishLocked(j, StateRejected, msg)
		return j.status, fmt.Errorf("serve: rejected: %s", msg)
	}
	s.queue = append(s.queue, id)
	if d := time.Duration(req.Deadline); d > 0 {
		// Armed at submission: the deadline covers queue wait too.
		j.deadlineTimer = time.AfterFunc(d, func() { s.endEarly(id, StateTimeout) })
	}
	s.cond.Broadcast()
	return j.status, nil
}

// resubmit re-enters one journal-replayed live job under its original
// id.  The submitted event is already durable, so nothing is
// re-journaled here; the deadline re-arms in full.
func (s *Service) resubmit(r *replayedJob) error {
	prog, cfg, report, err := s.buildJob(r.req)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return fmt.Errorf("serve: service is closed")
	}
	_, err = s.enqueueLocked(r.id, r.req, prog, cfg, report.PerWorkerBytes, report.MinWorkers, false)
	if err != nil {
		// The budget or cap verdict is terminal and journaled by
		// enqueueLocked; replay is done with this job.
		return nil
	}
	// Preserve the original submission time for operators reading /jobs,
	// and the last recorded snapshot so progress survives the restart.
	if j := s.jobs[r.id]; j != nil {
		if !r.status.Submitted.IsZero() {
			j.status.Submitted = r.status.Submitted
		}
		j.status.CkptEpoch = r.status.CkptEpoch
		j.status.CkptTime = r.status.CkptTime
		j.status.CkptBytes = r.status.CkptBytes
	}
	return nil
}

// noteSnapshot records a completed checkpoint in the job status and
// journals it, so a restarted service knows the job has resumable state.
func (s *Service) noteSnapshot(id int, info sip.SnapshotInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	j.status.CkptEpoch = info.Epoch
	j.status.CkptTime = time.Now()
	j.status.CkptBytes = info.Bytes
	st := j.status
	s.journalLocked(journalEvent{Kind: evSnapshotted, ID: id, Status: &st})
}

// admitLoop admits queued jobs strictly in FIFO order: the head of the
// queue waits for a concurrency slot and for its memory charge to fit,
// and nothing behind it may overtake (a large job is not starved by a
// stream of small ones).  A drain pauses admission entirely.
func (s *Service) admitLoop() {
	defer s.admitWG.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && (s.draining || len(s.queue) == 0 || !s.fitsLocked(s.jobs[s.queue[0]])) {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		s.running++
		s.memUse += j.status.PerWorkerBytes
		j.status.State = StateRunning
		j.status.Started = time.Now()
		if s.cfg.JobMetrics {
			j.metrics = obs.NewRegistry()
			j.cfg.Metrics = j.metrics
		}
		st := j.status
		s.journalLocked(journalEvent{Kind: evStarted, ID: id, Status: &st})
		s.runWG.Add(1)
		go s.runJob(j)
	}
}

// fitsLocked reports whether the head job can start now.
func (s *Service) fitsLocked(j *job) bool {
	if s.running >= s.cfg.MaxConcurrent {
		return false
	}
	if s.cfg.MemBudget > 0 && s.memUse+j.status.PerWorkerBytes > s.cfg.MemBudget {
		// Admissible eventually: the submit path rejected anything that
		// exceeds the budget on its own.
		return false
	}
	return true
}

// rankCasualty reports whether err traces to a rank death (an eviction
// or diagnosed failure) rather than to the program itself.
func rankCasualty(err error) bool {
	var rf *mpi.RankFailure
	return errors.As(err, &rf) || errors.Is(err, mpi.ErrAborted)
}

// runJob executes one admitted job and retires its charges.
func (s *Service) runJob(j *job) {
	defer s.runWG.Done()
	res, err := s.pool.RunJob(j.prog, j.cfg)
	// A rank death mid-run is a pool event, not a program error: the
	// job's distributed blocks died with the rank.  Re-execute on the
	// pool's reshaped live membership (maxRetries); deterministic
	// program failures carry no rank diagnosis and never retry.  A job
	// whose cancel has fired is never retried — it is being abandoned.
	for attempt := 0; err != nil && rankCasualty(err) && !j.cancelRequested() && attempt < maxRetries; attempt++ {
		s.mu.Lock()
		j.status.Retries++
		s.mu.Unlock()
		res, err = s.pool.RunJob(j.prog, j.cfg)
	}

	s.mu.Lock()
	s.running--
	s.memUse -= j.status.PerWorkerBytes
	switch {
	case j.requeued:
		// The drain handed this job back: discard the outcome (whatever
		// it was — the pool may have been yanked out from under it), keep
		// the already-journaled requeued event as the last word, and let
		// the next process resubmit.
		j.status.State = StateRequeued
		j.status.Error = ""
		if j.deadlineTimer != nil {
			j.deadlineTimer.Stop()
		}
		close(j.done)
	case err != nil && errors.Is(err, sip.ErrJobCanceled):
		state := j.cancelState
		reason := "canceled by request"
		if state == "" {
			state = StateCanceled
		}
		if state == StateTimeout {
			reason = fmt.Sprintf("deadline %v exceeded", j.status.Deadline)
		}
		s.finishLocked(j, state, reason)
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error())
	default:
		j.status.Scalars = res.Scalars
		j.result = res
		s.finishLocked(j, StateDone, "")
	}
	if j.metrics != nil {
		j.status.Metrics = j.metrics.Snapshot().Counters
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// finishLocked retires a job into a terminal state: status, journal,
// history cap, waiter wakeup.  The caller holds s.mu and has already
// released any running charges.
func (s *Service) finishLocked(j *job, state, errMsg string) {
	j.status.State = state
	j.status.Error = errMsg
	j.status.Finished = time.Now()
	if j.deadlineTimer != nil {
		j.deadlineTimer.Stop()
	}
	st := j.status
	s.journalLocked(journalEvent{Kind: state, ID: j.status.ID, Status: &st})
	s.historyLocked(j.status.ID)
	close(j.done)
	if s.cfg.CkptInterval > 0 && s.cfg.Pool.ScratchDir != "" && j.status.CkptEpoch > 0 {
		// Terminal jobs never resume; reclaim their snapshots.  (The
		// runtime already removes them on clean completion — this covers
		// canceled, timed-out, and terminally failed jobs.)
		if err := os.RemoveAll(sip.SnapshotDir(s.cfg.Pool.ScratchDir, j.cfg.CkptName)); err != nil {
			s.cfg.Warn("serve: removing snapshots for job %d: %v", j.status.ID, err)
		}
	}
}

// historyLocked records a terminal job and applies the in-memory cap.
func (s *Service) historyLocked(id int) {
	s.history = append(s.history, id)
	s.evictLocked()
}

// evictLocked trims terminal history beyond Config.HistoryLimit: the
// oldest records shrink to an id→state stub; the journal keeps the full
// record.
func (s *Service) evictLocked() {
	if s.cfg.HistoryLimit < 0 {
		return
	}
	for len(s.history) > s.cfg.HistoryLimit {
		id := s.history[0]
		s.history = s.history[1:]
		if j, ok := s.jobs[id]; ok && j.status.Terminal() {
			s.retired[id] = j.status.State
			delete(s.jobs, id)
		}
	}
}

// journalLocked durably appends one event (no-op without a journal) and
// compacts when the tail outgrows its budget.  Journal failures are
// reported, not fatal: availability outranks durability once the disk
// is gone.
func (s *Service) journalLocked(ev journalEvent) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(ev); err != nil {
		s.cfg.Warn("serve: journal append failed: %v", err)
		return
	}
	if s.journal.Size() > journalCompactBytes {
		if err := s.journal.Compact(); err != nil {
			s.cfg.Warn("serve: journal compaction failed: %v", err)
		}
	}
}

// Cancel cancels a job: a queued job terminates immediately, a running
// one cooperatively (the master starves its pardo dispatch and the
// shutdown protocol releases its tag window, namespaces, and memory
// charge).  The returned status is a snapshot; a running job's terminal
// "canceled" state lands when the run unwinds.
func (s *Service) Cancel(id int) (JobStatus, error) {
	return s.endEarly(id, StateCanceled)
}

// endEarly steers a live job toward state (canceled or timeout).
func (s *Service) endEarly(id int, state string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if _, retired := s.retired[id]; retired {
			return JobStatus{ID: id, State: s.retired[id]}, ErrJobTerminal
		}
		return JobStatus{}, ErrNoJob
	}
	if j.status.Terminal() || j.status.State == StateRequeued {
		return j.status, ErrJobTerminal
	}
	if j.status.State == StateQueued {
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		reason := "canceled before admission"
		if state == StateTimeout {
			reason = fmt.Sprintf("deadline %v exceeded before admission", j.status.Deadline)
		}
		j.closeCancel()
		s.finishLocked(j, state, reason)
		s.cond.Broadcast()
		return j.status, nil
	}
	// Running: record the steering state, then fire the cancel channel.
	// runJob's finalize maps the resulting ErrJobCanceled to it.
	if j.cancelState == "" {
		j.cancelState = state
	}
	j.closeCancel()
	return j.status, nil
}

// Job returns a job's status snapshot.  History-evicted jobs come back
// as an id/state stub (the journal holds the full record).
func (s *Service) Job(id int) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.status, true
	}
	if state, ok := s.retired[id]; ok {
		return JobStatus{ID: id, State: state}, true
	}
	return JobStatus{}, false
}

// Result returns a finished job's full result (nil until done).
func (s *Service) Result(id int) *sip.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.result
	}
	return nil
}

// Jobs returns every job's status, oldest first.
func (s *Service) Jobs() []JobStatus {
	return s.JobsFiltered("", 0)
}

// JobsFiltered returns job statuses, optionally restricted to one state
// and/or capped at limit entries — newest first when limited, so a poll
// of a long-lived pool sees recent activity, not ancient history.
// History-evicted jobs appear as id/state stubs.
func (s *Service) JobsFiltered(state string, limit int) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs)+len(s.retired))
	for _, j := range s.jobs {
		if state == "" || j.status.State == state {
			out = append(out, j.status)
		}
	}
	for id, st := range s.retired {
		if state == "" || st == state {
			out = append(out, JobStatus{ID: id, State: st})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
		// Newest first when limited.
		for i, k := 0, len(out)-1; i < k; i, k = i+1, k-1 {
			out[i], out[k] = out[k], out[i]
		}
	}
	return out
}

// Wait blocks until the job reaches a terminal (or requeued) state and
// returns it.
func (s *Service) Wait(id int) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		if st, found := s.Job(id); found {
			return st, true
		}
		return JobStatus{}, false
	}
	<-j.done
	return s.Job(id)
}

// Drain performs the graceful half of shutdown: admission stops
// (Submit returns ErrDraining, mapped to 503 + Retry-After), running
// jobs get up to timeout to finish, and whatever is still queued or
// running afterwards is journaled as requeued — the next process on
// this journal directory resubmits it.  Drain returns the counts of
// jobs that finished during the window and jobs requeued; call Close
// afterwards to stop the pool.
func (s *Service) Drain(timeout time.Duration) (finished, requeued int) {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return 0, 0
	}
	s.draining = true
	before := s.running
	s.cond.Broadcast()

	// Wait out the window.  sync.Cond has no timed wait, so a timer
	// broadcast bounds it; DrainNow (a second shutdown signal) cuts it
	// short.
	deadline := time.Now().Add(timeout)
	t := time.AfterFunc(timeout, s.cond.Broadcast)
	for s.running > 0 && !s.drainNow && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	t.Stop()

	// Queued jobs: requeue on the spot.
	for _, id := range s.queue {
		j := s.jobs[id]
		j.status.State = StateRequeued
		if j.deadlineTimer != nil {
			j.deadlineTimer.Stop()
		}
		st := j.status
		s.journalLocked(journalEvent{Kind: evRequeued, ID: id, Status: &st})
		close(j.done)
		requeued++
	}
	s.queue = nil

	// Still-running jobs: journal the requeue, then stop so they
	// fast-forward instead of holding the pool hostage.  With
	// checkpointing on, closeStop lets the master take one final
	// snapshot at its next consistency point before self-canceling, so
	// the replayed job resumes instead of recomputing; without it,
	// closeStop degrades to a plain cancel.  runJob sees j.requeued and
	// discards the outcome without journaling a terminal event, so the
	// next process replays them.
	for _, j := range s.jobs {
		if j.status.State != StateRunning {
			continue
		}
		j.requeued = true
		st := j.status
		st.State = StateRequeued
		s.journalLocked(journalEvent{Kind: evRequeued, ID: j.status.ID, Status: &st})
		j.closeStop()
		requeued++
	}
	finished = before - s.running
	s.mu.Unlock()
	s.cond.Broadcast()
	return finished, requeued
}

// DrainNow cuts an in-progress Drain's window short: the wait ends and
// still-running jobs are requeued immediately.  No-op when no drain is
// in progress.
func (s *Service) DrainNow() {
	s.mu.Lock()
	s.drainNow = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close drains: no new submissions, running jobs finish, then the pool
// shuts down.  (After a Drain, the queue is already empty and canceled
// runners unwind quickly.)
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Queued-but-never-admitted jobs fail terminally so waiters unblock.
	for _, id := range s.queue {
		j := s.jobs[id]
		s.finishLocked(j, StateFailed, "service closed before admission")
	}
	s.queue = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	s.admitWG.Wait()
	s.runWG.Wait()
	err := s.pool.Close()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
