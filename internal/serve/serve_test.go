package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sip"
)

// drill is the served-array workout every serve test submits: all
// mutable state lives in served arrays and scalars, so recovery replay
// and multi-job namespace sharing are both exercised.  Two jobs running
// it concurrently write the *same* array and block names — only the
// job-strided tag windows and per-job server ledgers keep them apart.
const drill = `
sial serve_drill
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
  prepare S(I,J) += t(I,J)
endpardo
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = S(I,J)
  e += dot(t(I,J), t(I,J))
endpardo
collective e
print "e =", e
endsial
`

// serialE runs drill serially (its own 2-worker world, no pool) and
// returns the reference energy for size n.
func serialE(t *testing.T, n int) float64 {
	t.Helper()
	var out bytes.Buffer
	res, err := sip.RunSource(drill, sip.Config{
		Workers: 2,
		Servers: 1,
		Params:  map[string]int{"n": n},
		Output:  &out,
	})
	if err != nil {
		t.Fatalf("serial reference (n=%d): %v", n, err)
	}
	e := res.Scalars["e"]
	if e == 0 {
		t.Fatalf("serial reference (n=%d) produced e = 0", n)
	}
	return e
}

// closeE compares energies with the tolerance used by the chaos tests:
// fold order across workers and recovery replays perturbs low bits.
func closeE(got, want float64) bool { return math.Abs(got-want) <= 1e-10 }

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Pool.Workers == 0 {
		cfg.Pool.Workers = 2
	}
	if cfg.Pool.Servers == 0 {
		cfg.Pool.Servers = 1
	}
	if cfg.Pool.Output == nil {
		cfg.Pool.Output = io.Discard
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestServeFIFOOrdering: with one concurrency slot, jobs must start in
// submission order — the queue is strict FIFO, no bypass.
func TestServeFIFOOrdering(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrent: 1})
	const jobs = 5
	ids := make([]int, jobs)
	for i := range ids {
		st, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.State != StateQueued {
			t.Fatalf("submit %d: state %q, want queued", i, st.State)
		}
		ids[i] = st.ID
	}
	want := serialE(t, 6)
	var prev time.Time
	for i, id := range ids {
		st, ok := s.Wait(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if st.State != StateDone {
			t.Fatalf("job %d: state %q (%s)", id, st.State, st.Error)
		}
		if !closeE(st.Scalars["e"], want) {
			t.Errorf("job %d: e = %v, want %v", id, st.Scalars["e"], want)
		}
		if i > 0 && st.Started.Before(prev) {
			t.Errorf("job %d started %v, before its predecessor's %v: FIFO violated", id, st.Started, prev)
		}
		prev = st.Started
	}
}

// TestServeFairGate: a job more than Burst dispatches ahead of an
// active peer parks, an idle peer cannot park it forever (MaxPark
// escape), and Finish removes the job from the measurement set.
func TestServeFairGate(t *testing.T) {
	g := NewFairGate(2)
	g.MaxPark = 50 * time.Millisecond
	g.Start(1)
	g.Start(2)

	// Job 1 alone may run exactly Burst ahead of job 2 without parking.
	for i := 0; i < 3; i++ {
		start := time.Now()
		g.Acquire(1)
		if d := time.Since(start); d > g.MaxPark/2 {
			t.Fatalf("acquire %d parked %v with headroom left", i, d)
		}
	}
	// The next acquire is over the lead; a concurrent peer acquire must
	// release it well before MaxPark.
	released := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		g.Acquire(1)
		released <- time.Since(start)
	}()
	time.Sleep(5 * time.Millisecond)
	g.Acquire(2) // peer catches up: min rises, job 1 is released
	select {
	case d := <-released:
		if d >= g.MaxPark {
			t.Errorf("peer progress released after %v, not before MaxPark %v", d, g.MaxPark)
		}
	case <-time.After(2 * g.MaxPark):
		t.Fatal("acquire never released despite peer progress")
	}

	// With the peer now idle, the lead is again exhausted — the timed
	// escape must bound the park near MaxPark.
	start := time.Now()
	g.Acquire(1)
	if d := time.Since(start); d < g.MaxPark/2 {
		t.Errorf("over-lead acquire with idle peer returned in %v, want ~MaxPark park", d)
	}

	// After Finish(2) the slow peer stops being measured: job 1 runs free.
	g.Finish(2)
	start = time.Now()
	g.Acquire(1)
	if d := time.Since(start); d > g.MaxPark/2 {
		t.Errorf("acquire parked %v after sole peer finished", d)
	}
	g.Finish(1)
	if n := len(g.Counts()); n != 0 {
		t.Errorf("%d jobs still active after Finish", n)
	}
}

// TestFairGateAcquireAllocs: an Acquire that does not park allocates
// nothing — the MaxPark timer is armed only on the parking path.
func TestFairGateAcquireAllocs(t *testing.T) {
	g := NewFairGate(2)
	g.Start(1)
	g.Start(2)
	if n := testing.AllocsPerRun(200, func() { g.Acquire(1); g.Acquire(2) }); n != 0 {
		t.Errorf("two unparked acquires allocate %v times, want 0", n)
	}
}

// TestServeQuotaRejection: a job whose dry-run per-worker footprint
// exceeds the memory budget is rejected at submission, and a job that
// fits is admitted — quota-based admission control over the same
// analysis `sial dryrun -json` prints.
func TestServeQuotaRejection(t *testing.T) {
	s := newTestService(t, Config{MemBudget: 1 << 10}) // 1 KiB: nothing real fits
	st, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 12}})
	if err == nil {
		t.Fatal("oversized submission accepted")
	}
	if st.State != StateRejected {
		t.Fatalf("state %q, want rejected", st.State)
	}
	if !strings.Contains(st.Error, "exceeds budget") {
		t.Errorf("rejection reason %q does not name the budget", st.Error)
	}
	// The rejection is terminal and visible in status.
	got, ok := s.Job(st.ID)
	if !ok || got.State != StateRejected {
		t.Fatalf("rejected job not recorded: %+v ok=%v", got, ok)
	}

	// A generous budget admits the same job.
	s2 := newTestService(t, Config{MemBudget: 1 << 30})
	st2, err := s2.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
	if err != nil {
		t.Fatalf("in-budget submit rejected: %v", err)
	}
	if fin, _ := s2.Wait(st2.ID); fin.State != StateDone {
		t.Fatalf("in-budget job: state %q (%s)", fin.State, fin.Error)
	}
}

// TestServeNamespaceIsolation: concurrent jobs running the same program
// — identical array names, overlapping block coordinates, shared I/O
// servers — must each produce their own size's reference energy.  Any
// cross-job block collision on the shared servers shows up as a wrong
// energy.
func TestServeNamespaceIsolation(t *testing.T) {
	s := newTestService(t, Config{
		Pool:          sip.PoolConfig{Workers: 3, Servers: 2},
		MaxConcurrent: 4,
	})
	sizes := []int{6, 9, 12, 6, 9, 12}
	want := map[int]float64{6: serialE(t, 6), 9: serialE(t, 9), 12: serialE(t, 12)}
	var wg sync.WaitGroup
	errs := make([]error, len(sizes))
	for i, n := range sizes {
		st, err := s.Submit(SubmitRequest{
			Name:   fmt.Sprintf("drill-n%d-%d", n, i),
			Source: drill,
			Params: map[string]int{"n": n},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(i, n, id int) {
			defer wg.Done()
			fin, ok := s.Wait(id)
			if !ok {
				errs[i] = fmt.Errorf("job %d vanished", id)
				return
			}
			if fin.State != StateDone {
				errs[i] = fmt.Errorf("job %d: state %q (%s)", id, fin.State, fin.Error)
				return
			}
			if !closeE(fin.Scalars["e"], want[n]) {
				errs[i] = fmt.Errorf("job %d (n=%d): e = %v, want %v — cross-job contamination",
					id, n, fin.Scalars["e"], want[n])
			}
		}(i, n, st.ID)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServeHTTPAPI drives the front door end to end over an in-process
// HTTP server: submit via POST, poll /jobs/{id} to completion, list
// /jobs, and exercise the admin kill/join endpoints.
func TestServeHTTPAPI(t *testing.T) {
	s := newTestService(t, Config{
		Pool: sip.PoolConfig{
			Workers:  3,
			Servers:  2,
			Spares:   1,
			Replicas: 2,
			Recover:  true,
		},
	})
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	body, _ := json.Marshal(SubmitRequest{Name: "http-drill", Source: drill, Params: map[string]int{"n": 9}})
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /submit: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == 0 {
		t.Fatalf("submit: status %d, job %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !st.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %q at deadline", st.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, st.ID))
		if err != nil {
			t.Fatalf("GET /jobs/%d: %v", st.ID, err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
		r.Body.Close()
	}
	if st.State != StateDone {
		t.Fatalf("job %d: state %q (%s)", st.ID, st.State, st.Error)
	}
	if !closeE(st.Scalars["e"], serialE(t, 9)) {
		t.Errorf("job %d: e = %v, want %v", st.ID, st.Scalars["e"], serialE(t, 9))
	}

	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var all []JobStatus
	if err := json.NewDecoder(r.Body).Decode(&all); err != nil {
		t.Fatalf("decode job list: %v", err)
	}
	r.Body.Close()
	if len(all) != 1 || all[0].Name != "http-drill" {
		t.Errorf("job list = %+v, want the one submitted job", all)
	}

	// Admin: kill a worker, then promote the spare; the pool keeps
	// serving through both.
	resp, err = http.Post(ts.URL+"/admin/kill?rank=2", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/kill: %v (status %v)", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/admin/join", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/join: %v (status %v)", err, resp.StatusCode)
	}
	resp.Body.Close()
	if n := len(s.Pool().Workers()); n != 3 {
		t.Fatalf("%d live workers after kill+join, want 3", n)
	}

	// And the pool still computes correctly on the reshaped worker set.
	st2, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 6}})
	if err != nil {
		t.Fatalf("post-reshape submit: %v", err)
	}
	fin, _ := s.Wait(st2.ID)
	if fin.State != StateDone || !closeE(fin.Scalars["e"], serialE(t, 6)) {
		t.Fatalf("post-reshape job: %+v", fin)
	}
}

// TestServeQueueCap: submissions beyond QueueCap are rejected, not
// silently dropped.
func TestServeQueueCap(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrent: 1, QueueCap: 2})
	// Fill the single slot and the queue with slow-ish jobs.
	ids := []int{}
	for i := 0; i < 4; i++ {
		st, err := s.Submit(SubmitRequest{Source: drill, Params: map[string]int{"n": 12}})
		if err != nil {
			if st.State != StateRejected || !strings.Contains(st.Error, "queue full") {
				t.Fatalf("submit %d: unexpected rejection %+v (%v)", i, st, err)
			}
			continue
		}
		ids = append(ids, st.ID)
	}
	if len(ids) == 4 {
		t.Fatal("queue cap of 2 admitted all 4 submissions")
	}
	for _, id := range ids {
		if fin, _ := s.Wait(id); fin.State != StateDone {
			t.Fatalf("job %d: state %q (%s)", id, fin.State, fin.Error)
		}
	}
}

// TestServePack: a submission naming a registered pack runs the pack's
// canonical source and environment.
func TestServePack(t *testing.T) {
	s := newTestService(t, Config{})
	s.RegisterPack("drill", Pack{Source: drill, Description: "served-array workout"})
	if _, err := s.Submit(SubmitRequest{Pack: "nope"}); err == nil {
		t.Fatal("unknown pack accepted")
	}
	st, err := s.Submit(SubmitRequest{Pack: "drill", Params: map[string]int{"n": 6}})
	if err != nil {
		t.Fatalf("pack submit: %v", err)
	}
	fin, _ := s.Wait(st.ID)
	if fin.State != StateDone || !closeE(fin.Scalars["e"], serialE(t, 6)) {
		t.Fatalf("pack job: %+v", fin)
	}
	if packs := s.Packs(); packs["drill"] == "" {
		t.Errorf("pack listing missing drill: %v", packs)
	}
}
