package serve

// Tests for the crash-safety layer: deadlines, cancellation, drain,
// journal replay, idempotency across restarts, and the in-memory
// history cap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/sip"
)

// slowSrc is a pardo whose every iteration runs the snooze super
// instruction: a deterministic "delay-faulted" workload for deadline and
// drain tests.  n scales the iteration count (seg 4: (n/4)^2 iterations).
const slowSrc = `
sial slow_drill
param n = 8
aoindex I = 1, n
aoindex J = 1, n
temp t(I,J)
scalar e
pardo I, J
  t(I,J) = 1.0
  execute snooze t(I,J), e
endpardo
collective e
print "e =", e
endsial
`

// slowPack wraps slowSrc with a snooze that sleeps d per iteration.
func slowPack(d time.Duration) Pack {
	return Pack{
		Source:      slowSrc,
		Description: "deadline-test workload",
		Env: func(map[string]int) Env {
			return Env{Super: map[string]sip.SuperFunc{
				"snooze": func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
					time.Sleep(d)
					*scalars[0]++
					return nil
				},
			}}
		},
	}
}

// waitState polls until the job reaches state or the deadline passes.
func waitState(t *testing.T, s *Service, id int, state string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %q after %v, want %q (%s)", id, st.State, within, state, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDeadlineTimeout: a job with a short deadline against a
// delay-faulted pool lands in state "timeout", the event is journaled,
// and its memory charge is released — a second job needing that quota
// is admitted and completes.
func TestServeDeadlineTimeout(t *testing.T) {
	// Learn the slow job's admission charge, then set a budget that fits
	// exactly one at a time.
	prog, err := compiler.CompileSource(slowSrc)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sip.DryRun(prog, sip.Config{
		Workers: 2, Servers: 1,
		Params: map[string]int{"n": 24},
		Seg:    bytecode.DefaultSegConfig(4),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	charge := report.PerWorkerBytes
	if charge <= 0 {
		t.Fatalf("slow job charge = %d", charge)
	}

	dir := t.TempDir()
	s := newTestService(t, Config{
		MemBudget:  charge + charge/2, // one slow job fits, two do not
		JournalDir: dir,
		Warn:       t.Logf,
	})
	s.RegisterPack("slow", slowPack(100*time.Millisecond))

	// Job A: 36 iterations x 100ms across 2 workers (~1.8s unchecked),
	// 1s deadline.
	a, err := s.Submit(SubmitRequest{
		Name: "deadline", Pack: "slow",
		Params:   map[string]int{"n": 24},
		Deadline: Duration(1 * time.Second),
	})
	if err != nil {
		t.Fatalf("submit slow job: %v", err)
	}
	waitState(t, s, a.ID, StateRunning, 10*time.Second)

	// Job B needs the same charge: it must park behind A's quota hold,
	// then be admitted once the timeout releases it.
	b, err := s.Submit(SubmitRequest{Name: "after", Pack: "slow", Params: map[string]int{"n": 8}})
	if err != nil {
		t.Fatalf("submit follow-up: %v", err)
	}
	if st, _ := s.Job(b.ID); st.State != StateQueued {
		t.Fatalf("follow-up job state %q before the timeout, want queued", st.State)
	}

	fin := waitState(t, s, a.ID, StateTimeout, 15*time.Second)
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("timeout error %q does not name the deadline", fin.Error)
	}
	if fin.Finished.Sub(fin.Submitted) < 900*time.Millisecond {
		t.Errorf("job timed out after only %v, before its 1s deadline", fin.Finished.Sub(fin.Submitted))
	}

	// Quota released: B runs to completion.
	if finB, _ := s.Wait(b.ID); finB.State != StateDone {
		t.Fatalf("follow-up job after quota release: state %q (%s)", finB.State, finB.Error)
	}

	// And the timeout is durable.
	raw, err := os.ReadFile(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"timeout"`) {
		t.Errorf("journal has no timeout event:\n%s", raw)
	}
}

// TestServeCancel: canceling a queued job terminates it immediately;
// canceling a running job releases the pool cooperatively; canceling a
// terminal job reports ErrJobTerminal.
func TestServeCancel(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrent: 1})
	s.RegisterPack("slow", slowPack(100*time.Millisecond))

	run, err := s.Submit(SubmitRequest{Name: "running", Pack: "slow", Params: map[string]int{"n": 24}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(SubmitRequest{Name: "queued", Pack: "slow", Params: map[string]int{"n": 24}})
	if err != nil {
		t.Fatal(err)
	}

	// The queued job dies on the spot — it holds no pool resources.
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st, _ := s.Job(queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state %q after cancel", st.State)
	}

	waitState(t, s, run.ID, StateRunning, 10*time.Second)
	if _, err := s.Cancel(run.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin := waitState(t, s, run.ID, StateCanceled, 15*time.Second)
	if !strings.Contains(fin.Error, "canceled") {
		t.Errorf("cancel error = %q", fin.Error)
	}

	// Terminal jobs cannot be re-canceled.
	if _, err := s.Cancel(run.ID); err != ErrJobTerminal {
		t.Errorf("cancel of terminal job: %v, want ErrJobTerminal", err)
	}
	if _, err := s.Cancel(9999); err != ErrNoJob {
		t.Errorf("cancel of unknown job: %v, want ErrNoJob", err)
	}

	// The pool still works: cancellation released the tag window and
	// namespaces.
	after, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
	if err != nil {
		t.Fatal(err)
	}
	if fin, _ := s.Wait(after.ID); fin.State != StateDone || !closeE(fin.Scalars["e"], serialE(t, 6)) {
		t.Fatalf("post-cancel job: %+v", fin)
	}
}

// TestServeDrainRestart is the in-process restart drill: drain requeues
// the queue and the running job to the journal, a second service on the
// same directory resumes both under their original ids, idempotent
// retries dedup across the restart, and the results match the serial
// reference.
func TestServeDrainRestart(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{MaxConcurrent: 1, JournalDir: dir, Warn: t.Logf})
	s.RegisterPack("slow", slowPack(100*time.Millisecond))

	running, err := s.Submit(SubmitRequest{
		Name: "interrupted", Pack: "slow",
		Params:         map[string]int{"n": 24},
		IdempotencyKey: "key-running",
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(SubmitRequest{
		Name: "patient", Source: drill,
		Params:         map[string]int{"n": 6},
		IdempotencyKey: "key-queued",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning, 10*time.Second)

	// While draining, the front door turns submissions away with a
	// retryable verdict.
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	drainDone := make(chan [2]int, 1)
	go func() {
		fin, req := s.Drain(60 * time.Second)
		drainDone <- [2]int{fin, req}
	}()
	// Wait for draining to take effect, then probe.
	probeBody, _ := json.Marshal(SubmitRequest{Source: drill})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(probeBody))
		if err != nil {
			t.Fatalf("probe submit: %v", err)
		}
		code, retry := resp.StatusCode, resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retry == "" {
				t.Error("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: status %d, want 503", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.DrainNow() // operator's second signal: stop waiting for the slow job
	counts := <-drainDone
	if counts[1] != 2 {
		t.Fatalf("drain requeued %d jobs, want 2 (running + queued)", counts[1])
	}
	for _, id := range []int{running.ID, queued.ID} {
		st, _ := s.Wait(id)
		if st.State != StateRequeued {
			t.Fatalf("job %d after drain: %q, want requeued", id, st.State)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close drained service: %v", err)
	}

	// "Restart": a fresh service on the same journal.
	s2 := newTestService(t, Config{JournalDir: dir, Warn: t.Logf})
	s2.RegisterPack("slow", slowPack(10*time.Millisecond)) // faster this life
	n, err := s2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if n != 2 {
		t.Fatalf("Resume resubmitted %d jobs, want 2", n)
	}

	// Idempotent retry across the restart: same key, original job back.
	retry, err := s2.Submit(SubmitRequest{
		Name: "patient", Source: drill,
		Params:         map[string]int{"n": 6},
		IdempotencyKey: "key-queued",
	})
	if err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	if retry.ID != queued.ID {
		t.Fatalf("retry created job %d, want original %d", retry.ID, queued.ID)
	}

	// Both replayed jobs complete under their original ids.
	if fin, _ := s2.Wait(running.ID); fin.State != StateDone {
		t.Fatalf("replayed job %d: %q (%s)", running.ID, fin.State, fin.Error)
	}
	fin, _ := s2.Wait(queued.ID)
	if fin.State != StateDone || !closeE(fin.Scalars["e"], serialE(t, 6)) {
		t.Fatalf("replayed job %d: %+v, want the serial reference energy", queued.ID, fin)
	}

	// Fresh ids start above everything the journal has seen.
	fresh, err := s2.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID <= queued.ID {
		t.Errorf("fresh job id %d collides with replayed ids", fresh.ID)
	}
}

// TestServeHistoryCap: beyond HistoryLimit, old terminal jobs shrink to
// id/state stubs but remain countable and filterable.
func TestServeHistoryCap(t *testing.T) {
	s := newTestService(t, Config{HistoryLimit: 2})
	ids := make([]int, 4)
	for i := range ids {
		st, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
		if fin, _ := s.Wait(st.ID); fin.State != StateDone {
			t.Fatalf("job %d: %q (%s)", st.ID, fin.State, fin.Error)
		}
	}
	// The two oldest are stubs now: state intact, payload gone.
	for _, id := range ids[:2] {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("evicted job %d fully forgotten, want a stub", id)
		}
		if st.State != StateDone || st.Scalars != nil || st.Name != "" {
			t.Errorf("evicted job %d = %+v, want a bare id/state stub", id, st)
		}
	}
	// The two newest keep their full records.
	for _, id := range ids[2:] {
		if st, _ := s.Job(id); st.Scalars["e"] == 0 {
			t.Errorf("recent job %d lost its scalars", id)
		}
	}
	if all := s.Jobs(); len(all) != 4 {
		t.Errorf("Jobs() lists %d jobs, want all 4 (stubs included)", len(all))
	}
	// limit keeps the newest, newest first.
	top := s.JobsFiltered(StateDone, 2)
	if len(top) != 2 || top[0].ID != ids[3] || top[1].ID != ids[2] {
		t.Errorf("JobsFiltered(done, 2) = %+v, want [%d %d]", top, ids[3], ids[2])
	}
}

// TestServeHTTPErrors exercises the front door's failure vocabulary:
// malformed JSON, oversized bodies, unknown packs, bad ids, cancels of
// terminal jobs, and idempotency-key dedup.
func TestServeHTTPErrors(t *testing.T) {
	s := newTestService(t, Config{MaxBody: 4096})
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(path, body string) (*http.Response, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		return resp, eb
	}

	// Malformed JSON.
	if resp, eb := post("/submit", `{"source": `); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submit: status %d (%s), want 400", resp.StatusCode, eb.Error)
	}
	// Oversized body: 413, not an OOM.
	big := fmt.Sprintf(`{"source": %q}`, strings.Repeat("x", 8192))
	if resp, eb := post("/submit", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d (%s), want 413", resp.StatusCode, eb.Error)
	} else if !strings.Contains(eb.Error, "4096") {
		t.Errorf("413 body %q does not name the limit", eb.Error)
	}
	// Unknown pack.
	if resp, eb := post("/submit", `{"pack": "nope"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(eb.Error, "unknown pack") {
		t.Errorf("unknown pack: status %d, error %q", resp.StatusCode, eb.Error)
	}
	// Bad and missing job ids.
	if resp, err := http.Get(ts.URL + "/jobs/banana"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /jobs/banana: %v status %d, want 400", err, resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/jobs/12345"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/12345: %v status %d, want 404", err, resp.StatusCode)
	}
	if resp, _ := post("/jobs/12345/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job: status %d, want 404", resp.StatusCode)
	}
	// Bad limit.
	if resp, err := http.Get(ts.URL + "/jobs?limit=minus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /jobs?limit=minus: %v status %d, want 400", err, resp.StatusCode)
	}

	// A real job, for the dedup and terminal-cancel cases.
	submit := `{"source": ` + fmt.Sprintf("%q", drill) + `, "params": {"n": 6}, "idempotency_key": "dup-1"}`
	resp, _ := post("/submit", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	// Re-submit with the same key: 200, same job.
	resp2, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	var dup JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("idempotent re-submit: status %d, want 200", resp2.StatusCode)
	}
	st, _ := s.Wait(dup.ID)
	if st.State != StateDone {
		t.Fatalf("deduped job: %q (%s)", st.State, st.Error)
	}
	// Cancel after completion: 409 names the state.
	if resp, eb := post(fmt.Sprintf("/jobs/%d/cancel", dup.ID), ""); resp.StatusCode != http.StatusConflict ||
		!strings.Contains(eb.Error, StateDone) {
		t.Errorf("cancel of done job: status %d, error %q, want 409 naming done", resp.StatusCode, eb.Error)
	}

	// ?state= filtering over the populated service.
	r, err := http.Get(ts.URL + "/jobs?state=done&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var done []JobStatus
	if err := json.NewDecoder(r.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(done) != 1 || done[0].ID != dup.ID {
		t.Errorf("/jobs?state=done = %+v, want just job %d", done, dup.ID)
	}
	r, err = http.Get(ts.URL + "/jobs?state=queued")
	if err != nil {
		t.Fatal(err)
	}
	var queued []JobStatus
	if err := json.NewDecoder(r.Body).Decode(&queued); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(queued) != 0 {
		t.Errorf("/jobs?state=queued = %+v, want empty", queued)
	}
}

// TestDurationJSON: the wire format accepts both duration strings and
// bare seconds, and emits strings.
func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1.5s"`), &d); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Errorf(`"1.5s" -> %v (%v)`, time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`30`), &d); err != nil || time.Duration(d) != 30*time.Second {
		t.Errorf(`30 -> %v (%v)`, time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"xyz"`), &d); err == nil {
		t.Error(`"xyz" accepted`)
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Errorf("marshal = %s (%v)", out, err)
	}
	// Zero deadlines stay off the wire.
	b, _ := json.Marshal(JobStatus{ID: 1, State: StateQueued})
	if strings.Contains(string(b), "deadline") {
		t.Errorf("zero deadline serialized: %s", b)
	}
}

// resumeSrc is drill with a nap in the (impure) produce pardo: slow
// enough to still be running when the drain lands, with a pure consume
// pardo the checkpoint subsystem can snapshot mid-flight.
const resumeSrc = `
sial resume_drill
param n = 12
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp v(I,J)
temp t(I,J)
scalar e
pardo I, J
  compute_integrals v(I,J)
  t(I,J) = 2.0 * v(I,J)
  execute nap t(I,J)
  prepare S(I,J) += t(I,J)
endpardo
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = S(I,J)
  e += dot(t(I,J), t(I,J))
endpardo
collective e
endsial
`

// resumePack wraps resumeSrc with a nap that sleeps d per iteration and
// leaves the data alone.
func resumePack(d time.Duration) Pack {
	return Pack{
		Source:      resumeSrc,
		Description: "resume-test workload",
		Env: func(map[string]int) Env {
			return Env{Super: map[string]sip.SuperFunc{
				"nap": func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
					time.Sleep(d)
					return nil
				},
			}}
		},
	}
}

// TestServeResumeFromSnapshot is the durable-resume drill: a drain stops
// a running checkpointed job (final snapshot, then requeue), and a fresh
// service on the same journal and scratch resumes it from the snapshot
// rather than recomputing — same energy as an uninterrupted run, with
// the resume visible in the job status and the journal.
func TestServeResumeFromSnapshot(t *testing.T) {
	journalDir, scratch := t.TempDir(), t.TempDir()
	mkCfg := func() Config {
		cfg := Config{
			MaxConcurrent: 1,
			JournalDir:    journalDir,
			CkptInterval:  1,
			Warn:          t.Logf,
		}
		cfg.Pool.ScratchDir = scratch
		return cfg
	}
	s := newTestService(t, mkCfg())
	s.RegisterPack("resume", resumePack(50*time.Millisecond))

	st, err := s.Submit(SubmitRequest{Name: "interruptible", Pack: "resume"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 10*time.Second)

	// Requeue immediately: the job is mid-pardo, so the stop makes the
	// master finish the open pardo, snapshot, and self-cancel.
	drainDone := make(chan int, 1)
	go func() {
		_, req := s.Drain(60 * time.Second)
		drainDone <- req
	}()
	s.DrainNow()
	if req := <-drainDone; req != 1 {
		t.Fatalf("drain requeued %d jobs, want 1", req)
	}
	if fin, _ := s.Wait(st.ID); fin.State != StateRequeued {
		t.Fatalf("job after drain: %q, want requeued", fin.State)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close drained service: %v", err)
	}

	// The stop-triggered final snapshot must be journaled and on disk.
	raw, err := os.ReadFile(filepath.Join(journalDir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"snapshotted"`) {
		t.Fatalf("journal has no snapshotted event:\n%s", raw)
	}
	ckptDir := filepath.Join(scratch, "ckpt", fmt.Sprintf("job%d", st.ID))
	if _, err := os.Stat(ckptDir); err != nil {
		t.Fatalf("drained job left no snapshot dir: %v", err)
	}

	// "Restart": a fresh service on the same journal and scratch.
	s2 := newTestService(t, mkCfg())
	s2.RegisterPack("resume", resumePack(50*time.Millisecond))
	n, err := s2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if n != 1 {
		t.Fatalf("Resume resubmitted %d jobs, want 1", n)
	}
	fin, _ := s2.Wait(st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job: %q (%s)", fin.State, fin.Error)
	}
	if !fin.Resumed {
		t.Error("resumed job status does not carry resumed=true")
	}
	if fin.CkptEpoch == 0 {
		t.Error("resumed job status lost its checkpoint epoch")
	}

	// The resumed energy matches an uninterrupted run of the same pack.
	ref, err := s2.Submit(SubmitRequest{Name: "uninterrupted", Pack: "resume"})
	if err != nil {
		t.Fatal(err)
	}
	refFin, _ := s2.Wait(ref.ID)
	if refFin.State != StateDone {
		t.Fatalf("reference job: %q (%s)", refFin.State, refFin.Error)
	}
	if !closeE(fin.Scalars["e"], refFin.Scalars["e"]) {
		t.Fatalf("resumed e = %g, uninterrupted e = %g", fin.Scalars["e"], refFin.Scalars["e"])
	}

	// Terminal jobs reclaim their snapshots.
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Errorf("done job still has a snapshot dir (%v)", err)
	}
}

// napSrc is one pure pardo with a nap per iteration: every completed
// chunk is snapshotted (CkptInterval 1) while the job is still running.
const napSrc = `
sial nap_drill
param n = 12
aoindex I = 1, n
aoindex J = 1, n
temp v(I,J)
scalar e
pardo I, J
  compute_integrals v(I,J)
  execute nap v(I,J)
  e += dot(v(I,J), v(I,J))
endpardo
collective e
endsial
`

// TestServeCanceledJobReclaimsSnapshots: a job canceled after its first
// snapshot never resumes, so the service removes its snapshot directory
// (the runtime removes it only when a run completes).
func TestServeCanceledJobReclaimsSnapshots(t *testing.T) {
	scratch := t.TempDir()
	cfg := Config{MaxConcurrent: 1, JournalDir: t.TempDir(), CkptInterval: 1, Warn: t.Logf}
	cfg.Pool.ScratchDir = scratch
	s := newTestService(t, cfg)
	s.RegisterPack("nap", Pack{Source: napSrc, Env: resumePack(20 * time.Millisecond).Env})

	st, err := s.Submit(SubmitRequest{Name: "canceled", Pack: "nap"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := s.Job(st.ID)
		if cur.CkptEpoch > 0 {
			break
		}
		if cur.State != StateRunning && cur.State != StateQueued || time.Now().After(deadline) {
			t.Fatalf("job %q with no snapshot (%s)", cur.State, cur.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	dir := sip.SnapshotDir(scratch, fmt.Sprintf("job%d", st.ID))
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("snapshotted job has no snapshot dir: %v", err)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if fin, _ := s.Wait(st.ID); fin.State != StateCanceled {
		t.Fatalf("job after cancel: %q (%s)", fin.State, fin.Error)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("canceled job still has a snapshot dir (%v)", err)
	}
}
