package serve

// The write-ahead job journal behind `sial serve -journal-dir`: an
// append-only, fsync'd log of job lifecycle events that makes the queue
// survive a master crash.  Every event is one JSON line; the tail file
// (journal.log) is the live log, and size-triggered compaction folds it
// into snapshot.log — written with the same atomic temp+fsync+rename
// discipline the checkpoint writer established — keeping the pair
// bounded no matter how long the service lives.  Replay reads the
// snapshot, then the tail; a torn final record (the crash interrupted
// the append) is truncated and logged, never fatal.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/atomicfile"
)

// Journal file names inside the journal directory.
const (
	journalLogName  = "journal.log"
	journalSnapName = "snapshot.log"
)

// Journal event kinds.  Terminal kinds reuse the job state names
// (StateDone, StateFailed, StateRejected, StateTimeout, StateCanceled),
// so a terminal event's kind IS the state the job finished in.
const (
	evSubmitted   = "submitted"   // carries the full SubmitRequest
	evStarted     = "started"     // the job was admitted and is running
	evRequeued    = "requeued"    // drain handed the job back for the next process
	evSnapshotted = "snapshotted" // a checkpoint epoch completed; Status carries it
)

// journalEvent is one journaled lifecycle record.
type journalEvent struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	ID   int       `json:"id"`
	// Req is the full submission, present on evSubmitted: replay
	// recompiles and resubmits from it, preserving the job id and
	// idempotency key.
	Req *SubmitRequest `json:"req,omitempty"`
	// Status is the job's status snapshot, present on evStarted,
	// evRequeued, and every terminal event (where it carries the error
	// or the final scalars into history).
	Status *JobStatus `json:"status,omitempty"`
}

// terminalKind reports whether a journal event kind is a terminal job
// state (and therefore ends the job's replay life).
func terminalKind(kind string) bool {
	return JobStatus{State: kind}.Terminal()
}

// Journal is the durable event log.  All methods are safe for
// concurrent use; Append fsyncs before returning, so an event that was
// acknowledged (e.g. a 202 on POST /submit) survives a crash.
type Journal struct {
	dir  string
	warn func(format string, args ...any)

	mu   sync.Mutex
	f    *os.File // the live tail, opened O_APPEND
	size int64    // current tail size in bytes
	seq  int64    // last sequence number handed out
}

// OpenJournal opens (creating if needed) the journal in dir and returns
// it together with the replayed event sequence: snapshot events first,
// then the tail, in append order.  A torn tail record — the previous
// process crashed mid-append — is truncated away and reported through
// warn, which must be non-nil-safe (nil disables the reporting).
func OpenJournal(dir string, warn func(format string, args ...any)) (*Journal, []journalEvent, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	snap, _, tornSnap, err := readEventFile(filepath.Join(dir, journalSnapName))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal snapshot: %w", err)
	}
	if tornSnap {
		// Snapshots are written atomically; a torn one means something
		// else wrote the file.  Tolerate it the same way: keep the good
		// prefix.
		warn("serve: journal snapshot has a torn tail record; ignoring it")
	}
	logPath := filepath.Join(dir, journalLogName)
	tail, goodLen, torn, err := readEventFile(logPath)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal log: %w", err)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal log: %w", err)
	}
	if torn {
		warn("serve: journal has a torn tail record (crash mid-append); truncating to %d bytes", goodLen)
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: truncate torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: sync truncated journal: %w", err)
		}
	}
	j := &Journal{dir: dir, warn: warn, f: f, size: goodLen}
	events := append(snap, tail...)
	for _, ev := range events {
		if ev.Seq > j.seq {
			j.seq = ev.Seq
		}
	}
	return j, events, nil
}

// readEventFile parses one JSONL event file.  It returns the events,
// the byte length of the good prefix, and whether a torn record was
// dropped.  A final line that parses but lacks its trailing newline is
// also treated as torn: keeping it would let the next append glue a new
// record onto it.  A missing file is an empty journal.
func readEventFile(path string) (events []journalEvent, goodLen int64, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			return events, goodLen, true, nil // no newline: torn final record
		}
		line := raw[:nl]
		var ev journalEvent
		if len(bytes.TrimSpace(line)) > 0 {
			if uerr := json.Unmarshal(line, &ev); uerr != nil {
				return events, goodLen, true, nil // unparsable record: torn
			}
			events = append(events, ev)
		}
		goodLen += int64(nl + 1)
		raw = raw[nl+1:]
	}
	return events, goodLen, false, nil
}

// Append durably appends one event: marshal, write, fsync.  The event's
// sequence number is assigned here.
func (j *Journal) Append(ev journalEvent) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(ev)
}

func (j *Journal) appendLocked(ev journalEvent) error {
	j.seq++
	ev.Seq = j.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	j.size += int64(len(b))
	return nil
}

// Size returns the live tail's size in bytes (the compaction trigger).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Compact folds the snapshot and the tail into a new snapshot holding
// each job's essential records — for a terminal job just its terminal
// event (the full final status, scalars and error included; the
// verbose SubmitRequest is dropped, it will never run again), for a
// live job its submitted event plus its latest status event — then
// truncates the tail.  The snapshot is written with the atomic
// temp+fsync+rename discipline: a crash at any point leaves either the
// old snapshot plus the old tail, or the new snapshot plus a tail whose
// re-applied events are harmless duplicates.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap, _, _, err := readEventFile(filepath.Join(j.dir, journalSnapName))
	if err != nil {
		return fmt.Errorf("serve: compact read snapshot: %w", err)
	}
	tail, _, _, err := readEventFile(filepath.Join(j.dir, journalLogName))
	if err != nil {
		return fmt.Errorf("serve: compact read tail: %w", err)
	}

	// Fold to per-job essentials, preserving first-submission order.
	type jobFold struct {
		submitted *journalEvent
		latest    *journalEvent // latest non-submitted event
	}
	folds := map[int]*jobFold{}
	var order []int
	for _, ev := range append(snap, tail...) {
		ev := ev
		f := folds[ev.ID]
		if f == nil {
			f = &jobFold{}
			folds[ev.ID] = f
			order = append(order, ev.ID)
		}
		if ev.Kind == evSubmitted {
			f.submitted = &ev
		} else {
			f.latest = &ev
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range order {
		f := folds[id]
		keep := make([]*journalEvent, 0, 2)
		if f.latest != nil && terminalKind(f.latest.Kind) {
			keep = append(keep, f.latest) // terminal: final status is the record
		} else {
			if f.submitted != nil {
				keep = append(keep, f.submitted)
			}
			if f.latest != nil {
				keep = append(keep, f.latest)
			}
		}
		for _, ev := range keep {
			if err := enc.Encode(ev); err != nil {
				return fmt.Errorf("serve: compact marshal: %w", err)
			}
		}
	}

	// Atomic snapshot write, then fsync the directory so the rename
	// survives a crash.
	if err := atomicfile.Write(filepath.Join(j.dir, journalSnapName), buf.Bytes()); err != nil {
		return fmt.Errorf("serve: compact snapshot: %w", err)
	}
	if err := atomicfile.SyncDir(j.dir); err != nil {
		return fmt.Errorf("serve: compact dir sync: %w", err)
	}
	// The snapshot now covers everything: empty the tail.  (A crash
	// before the truncate leaves the tail's events to be re-applied over
	// the snapshot on the next open — replay by job id makes them
	// harmless duplicates.)
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("serve: compact truncate: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: compact sync: %w", err)
	}
	j.size = 0
	return nil
}

// Close closes the tail file.  Pending events are already durable —
// every Append fsync'd.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// replayedJob is one job reconstructed from the journal.
type replayedJob struct {
	id     int
	req    SubmitRequest // valid when pending (zero Req was compacted away for terminal jobs)
	status JobStatus     // the latest journaled status
	// pending marks a job that had not reached a terminal state: replay
	// resubmits it (original id, original order).
	pending bool
}

// foldReplay reduces the replayed event sequence to per-job outcomes in
// first-submission order, plus the highest job id seen.  Duplicate
// events (a crash between a compaction's snapshot rename and its tail
// truncate) collapse naturally: later events for an id overwrite
// earlier state.
func foldReplay(events []journalEvent) (jobs []*replayedJob, maxID int) {
	byID := map[int]*replayedJob{}
	for _, ev := range events {
		if ev.ID > maxID {
			maxID = ev.ID
		}
		r := byID[ev.ID]
		if r == nil {
			r = &replayedJob{id: ev.ID, pending: true}
			byID[ev.ID] = r
			jobs = append(jobs, r)
		}
		switch {
		case ev.Kind == evSubmitted:
			if ev.Req != nil {
				r.req = *ev.Req
			}
			if r.status.ID == 0 {
				r.status = JobStatus{
					ID:             ev.ID,
					Name:           r.req.Name,
					Pack:           r.req.Pack,
					State:          StateQueued,
					Submitted:      ev.Time,
					IdempotencyKey: r.req.IdempotencyKey,
				}
			}
		case terminalKind(ev.Kind):
			r.pending = false
			if ev.Status != nil {
				r.status = *ev.Status
			}
			r.status.State = ev.Kind
		default: // started, requeued: the job is still owed a run
			r.pending = true
			if ev.Status != nil {
				r.status = *ev.Status
			}
		}
	}
	return jobs, maxID
}
