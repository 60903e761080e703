package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/sip"
)

// countCompiles routes compileSource through a counter for the rest of
// the test.
func countCompiles(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := compileSource
	compileSource = func(src string) (*bytecode.Program, error) {
		n.Add(1)
		return orig(src)
	}
	t.Cleanup(func() { compileSource = orig })
	return &n
}

// drill3 is drill with t = 3v instead of 2v: the same shape, an energy
// 9/4 of drill's.
var drill3 = strings.Replace(drill, "2.0 * v(I,J)", "3.0 * v(I,J)", 1)

// runPack submits one job of pack and returns its finished status.
func runPack(t *testing.T, s *Service, pack string, n int) JobStatus {
	t.Helper()
	st, err := s.Submit(SubmitRequest{Pack: pack, Params: map[string]int{"n": n}})
	if err != nil {
		t.Fatalf("submit %s: %v", pack, err)
	}
	fin, _ := s.Wait(st.ID)
	if fin.State != StateDone {
		t.Fatalf("job %d (%s): state %q (%s)", st.ID, pack, fin.State, fin.Error)
	}
	return fin
}

// TestServePackCompiledOnce: a thousand submissions alternating between
// two packs compile each pack's source once, and every job still
// computes its own pack's energy.
func TestServePackCompiledOnce(t *testing.T) {
	compiles := countCompiles(t)
	s := newTestService(t, Config{MaxConcurrent: 4})
	s.RegisterPack("two", Pack{Source: drill})
	s.RegisterPack("three", Pack{Source: drill3})
	if n := compiles.Load(); n != 0 {
		t.Fatalf("RegisterPack compiled %d times, want 0 (compile is lazy)", n)
	}
	want := map[string]float64{"two": serialE(t, 4)}
	want["three"] = want["two"] * 9 / 4

	const submissions, clients = 1000, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < submissions; i += clients {
				pack := [2]string{"two", "three"}[i%2]
				st, err := s.Submit(SubmitRequest{Pack: pack, Params: map[string]int{"n": 4}})
				if err != nil {
					errs <- fmt.Errorf("submission %d: %v", i, err)
					return
				}
				fin, _ := s.Wait(st.ID)
				if fin.State != StateDone || !closeE(fin.Scalars["e"], want[pack]) {
					errs <- fmt.Errorf("submission %d (%s): %q e = %v, want %v (%s)",
						i, pack, fin.State, fin.Scalars["e"], want[pack], fin.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("%d submissions of two packs compiled %d times, want 2", submissions, n)
	}
}

// TestServePackReregister: re-registering a name replaces its program,
// so the next job runs the new source.
func TestServePackReregister(t *testing.T) {
	compiles := countCompiles(t)
	s := newTestService(t, Config{})
	s.RegisterPack("p", Pack{Source: drill})
	before := runPack(t, s, "p", 6).Scalars["e"]
	runPack(t, s, "p", 6)
	s.RegisterPack("p", Pack{Source: drill3})
	after := runPack(t, s, "p", 6).Scalars["e"]
	if closeE(after, before) {
		t.Fatalf("e = %v after re-registering with new source: still the old program", after)
	}
	if !closeE(after, before*9/4) {
		t.Errorf("e = %v after re-registering, want %v", after, before*9/4)
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("two registrations compiled %d times, want 2", n)
	}
}

// TestServePackCompileError: a pack whose source does not compile
// rejects every submission with the same error (400 over HTTP),
// compiles once, and leaves the other packs serving.
func TestServePackCompileError(t *testing.T) {
	compiles := countCompiles(t)
	s := newTestService(t, Config{})
	s.RegisterPack("bad", Pack{Source: "sial bad\nscalar e\ne += nosuch(\nendsial\n"})
	s.RegisterPack("good", Pack{Source: drill})
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var first string
	for i := 0; i < 3; i++ {
		_, err := s.Submit(SubmitRequest{Pack: "bad"})
		if err == nil || !strings.HasPrefix(err.Error(), "serve: compile: ") {
			t.Fatalf("submission %d of a broken pack: err = %v, want a serve: compile: error", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("submission %d: error %q, want the first one's %q", i, err, first)
		}
	}
	resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(`{"pack": "bad"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error != first {
		t.Errorf("POST /submit of a broken pack: status %d, error %q, want 400 and %q", resp.StatusCode, eb.Error, first)
	}
	if e := runPack(t, s, "good", 6).Scalars["e"]; !closeE(e, serialE(t, 6)) {
		t.Errorf("good pack beside a broken one: e = %v, want %v", e, serialE(t, 6))
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("compiled %d times, want 2 (once per pack)", n)
	}
}

// TestServeSourceCompiledPerRequest: a submission carrying its own
// source is compiled per request, with or without a pack beside it.
func TestServeSourceCompiledPerRequest(t *testing.T) {
	compiles := countCompiles(t)
	s := newTestService(t, Config{})
	s.RegisterPack("p", Pack{Source: drill3})
	want := serialE(t, 6)
	for i := 0; i < 4; i++ {
		req := SubmitRequest{Source: drill, Params: map[string]int{"n": 6}}
		if i%2 == 1 {
			req.Pack = "p" // its environment, not its source
		}
		st, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if fin, _ := s.Wait(st.ID); fin.State != StateDone || !closeE(fin.Scalars["e"], want) {
			t.Fatalf("job %d: %q e = %v, want %v (%s)", st.ID, fin.State, fin.Scalars["e"], want, fin.Error)
		}
		if n := compiles.Load(); n != int64(i+1) {
			t.Fatalf("after %d source submissions: %d compiles, want %d", i+1, n, i+1)
		}
	}
}

// TestServePackSharedConcurrently: concurrent jobs of one pack share one
// program (run under -race, a write to it is a reported race), and each
// computes the serial energy for its own size.
func TestServePackSharedConcurrently(t *testing.T) {
	compiles := countCompiles(t)
	s := newTestService(t, Config{
		Pool:          sip.PoolConfig{Workers: 3, Servers: 2},
		MaxConcurrent: 4,
	})
	s.RegisterPack("drill", Pack{Source: drill})
	sizes := []int{6, 9, 12, 6, 9, 12, 6, 9}
	want := map[int]float64{6: serialE(t, 6), 9: serialE(t, 9), 12: serialE(t, 12)}
	var wg sync.WaitGroup
	errs := make([]error, len(sizes))
	for i, n := range sizes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			st, err := s.Submit(SubmitRequest{Pack: "drill", Params: map[string]int{"n": n}})
			if err != nil {
				errs[i] = err
				return
			}
			fin, _ := s.Wait(st.ID)
			if fin.State != StateDone || !closeE(fin.Scalars["e"], want[n]) {
				errs[i] = fmt.Errorf("job %d (n=%d): %q e = %v, want %v (%s)",
					st.ID, n, fin.State, fin.Scalars["e"], want[n], fin.Error)
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := compiles.Load(); n != 1 {
		t.Errorf("%d concurrent submissions of one pack compiled %d times, want 1", len(sizes), n)
	}
}

// stopEarly runs 8 + 64 = 72 pardo iterations at seg 1; its execute fails
// on worker 0 in the first one and takes a millisecond elsewhere.
const stopEarly = `
sial stop_early
param n = 8
aoindex I = 1, n
aoindex J = 1, n
temp a(I)
temp b(I,J)
pardo I
  execute fail_first a(I)
endpardo
pardo I, J
  b(I,J) = 1.0
endpardo
endsial
`

// TestServeFailedJobStopsEarly: a job whose super instruction fails on
// one worker is given up at once — it ends failed with that error and
// fewer iterations dispatched than the program holds — and releases its
// slot and memory charge, so the next job of another pack is correct.
func TestServeFailedJobStopsEarly(t *testing.T) {
	s := newTestService(t, Config{JobMetrics: true, Pool: sip.PoolConfig{Workers: 3}})
	failFirst := func(ctx *sip.ExecCtx, _ []*block.Block, _ []*float64) error {
		if ctx.Worker == 0 {
			return errors.New("worker 0 fails on purpose")
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	s.RegisterPack("fail", Pack{Source: stopEarly, Env: func(map[string]int) Env {
		return Env{Super: map[string]sip.SuperFunc{"fail_first": failFirst}}
	}})
	s.RegisterPack("two", Pack{Source: drill})
	st, err := s.Submit(SubmitRequest{Pack: "fail", Seg: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin, _ := s.Wait(st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "worker 0 fails on purpose") {
		t.Errorf("job %d: state %q (%s), want failed with worker 0's error", st.ID, fin.State, fin.Error)
	}
	if n := fin.Metrics["sip.master.iters"]; n >= 72 {
		t.Errorf("sip.master.iters = %d, want below the program's 72", n)
	}
	s.mu.Lock()
	running, memUse := s.running, s.memUse
	s.mu.Unlock()
	if running != 0 || memUse != 0 {
		t.Errorf("after the failed job: %d running, %d bytes charged, want 0 and 0", running, memUse)
	}
	if e := runPack(t, s, "two", 4).Scalars["e"]; !closeE(e, serialE(t, 4)) {
		t.Errorf("job after the failed one: e = %v, want %v", e, serialE(t, 4))
	}
}

// TestServeUnknownPresetRejected: a pack whose environment presets an
// array its program lacks is refused at submission, naming the array, as
// a run of it would refuse it at start-up; no job is queued.
func TestServeUnknownPresetRejected(t *testing.T) {
	s := newTestService(t, Config{})
	s.RegisterPack("typo", Pack{Source: drill, Env: func(map[string]int) Env {
		return Env{Preset: map[string]sip.PresetFunc{"Q": nil}}
	}})
	st, err := s.Submit(SubmitRequest{Pack: "typo"})
	if err == nil || !strings.Contains(err.Error(), `unknown array "Q"`) {
		t.Fatalf("Submit = job %d (%s), %v; want a rejection naming array \"Q\"", st.ID, st.State, err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("%d job(s) listed after the rejection, want none", len(jobs))
	}
}
