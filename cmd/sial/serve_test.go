package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/serve"
)

// submitProgram is the workload CLI serve tests submit: pure synthetic
// integrals, no super instructions, so it runs without a pack.
const submitProgram = `
sial submit_drill
param n = 6
aoindex I = 1, n
aoindex J = 1, n
temp v(I,J)
scalar e
pardo I, J
  compute_integrals v(I,J)
  e += dot(v(I,J), v(I,J))
endpardo
collective e
endsial
`

// startServeChild spawns `sial serve` as a child process (the test
// binary rerouted through realMain) and returns its base address.
func startServeChild(t *testing.T, args ...string) (*exec.Cmd, string, *bufio.Scanner) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "SIAL_CHILD_MAIN=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	re := regexp.MustCompile(`serving on http://(\S+)`)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			return cmd, m[1], sc
		}
		if time.Now().After(deadline) {
			break
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("serve child never announced its address")
	return nil, "", nil
}

// TestCLIServeSubmit drives the full service loop from the CLI: start
// `sial serve`, submit source and pack jobs with `sial submit`, verify
// the MP2 energy against the serial reference, then shut the server
// down gracefully with SIGTERM.
func TestCLIServeSubmit(t *testing.T) {
	cmd, addr, sc := startServeChild(t, "-workers", "2", "-servers", "1")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// Keep draining the child's stdout so it never blocks on the pipe.
	drained := make(chan string, 1)
	go func() {
		var all strings.Builder
		for sc.Scan() {
			all.WriteString(sc.Text())
			all.WriteString("\n")
		}
		drained <- all.String()
	}()

	// A source submission.
	path := writeProgram(t, submitProgram)
	code, out, errOut := runCLI(t, "submit", path, "-addr", addr, "-param", "n=6")
	if code != 0 {
		t.Fatalf("submit exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "done") || !strings.Contains(out, "e = ") {
		t.Fatalf("submit output:\n%s", out)
	}

	// A pack submission: MP2 with the program's stock size, checked
	// against the serial reference energy.
	code, out, errOut = runCLI(t, "submit", "-addr", addr, "-pack", "mp2", "-name", "mp2-ref")
	if code != 0 {
		t.Fatalf("pack submit exit %d: %s", code, errOut)
	}
	m := regexp.MustCompile(`emp2 = (\S+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no emp2 scalar in submit output:\n%s", out)
	}
	emp2, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := chem.MP2Reference(2, 4); math.Abs(emp2-want) > 1e-9 {
		t.Fatalf("emp2 = %v, want %v", emp2, want)
	}

	// Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	select {
	case err := <-waitc:
		if err != nil {
			t.Fatalf("serve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	if tail := <-drained; !strings.Contains(tail, "shutting down") {
		t.Errorf("no shutdown announcement in serve output:\n%s", tail)
	}
}

// TestCLIServeRestartJournal is the crash drill behind docs/SERVE.md's
// durability story: load a journaled serve with a dozen MP2 jobs,
// SIGKILL it mid-stream, restart on the same -journal-dir, and require
// that every job reaches exactly one terminal state with the reference
// energy — and that an idempotent client retry across the restart gets
// the original job back instead of a duplicate.
func TestCLIServeRestartJournal(t *testing.T) {
	journalDir := t.TempDir()
	const jobs = 12

	// One job at a time in the first life, so most of the dozen are
	// still queued or in flight when the kill lands.
	cmd, addr, sc := startServeChild(t, "-workers", "2", "-servers", "1",
		"-journal-dir", journalDir, "-max-concurrent", "1")
	defer func() {
		cmd.Process.Kill() // a no-op after the drill's own kill
		cmd.Wait()
	}()
	go func() {
		for sc.Scan() {
		} // keep the child's stdout drained
	}()

	submit := func(addr string, i int) (serve.JobStatus, int) {
		t.Helper()
		// no=16/nv=96 sizes each job to tens of milliseconds: long
		// enough for the /jobs poll below to see the queue mid-stream,
		// light enough for a CI drill.
		body, _ := json.Marshal(serve.SubmitRequest{
			Name:           fmt.Sprintf("mp2-%d", i),
			Pack:           "mp2",
			Params:         map[string]int{"no": 16, "nv": 96},
			IdempotencyKey: fmt.Sprintf("restart-drill-%d", i),
		})
		resp, err := http.Post("http://"+addr+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		defer resp.Body.Close()
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("submit %d: bad reply: %v", i, err)
		}
		return st, resp.StatusCode
	}

	ids := map[int]int{} // drill index -> job id
	for i := 0; i < jobs; i++ {
		st, code := submit(addr, i)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids[i] = st.ID
	}
	// Pull the plug — no drain, no fsync courtesy, exactly the crash the
	// journal exists for — as soon as the first life is seen with a job
	// done and fewer than half terminal, so the kill lands mid-stream
	// however fast the host runs the jobs.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(15 * time.Millisecond) {
		done, terminal := 0, 0
		for _, st := range listJobs(t, addr) {
			if st.State == serve.StateDone {
				done++
			}
			if st.Terminal() {
				terminal++
			}
		}
		if terminal >= jobs/2 {
			t.Fatalf("%d of %d jobs terminal before the kill: never saw a job done with most of the queue outstanding", terminal, jobs)
		}
		if done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job done at deadline: the first life never got into the queue")
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same journal; the second life announces how many
	// jobs it picked back up, which must be most of the dozen — a drill
	// that kills after everything finished would prove nothing.
	cmd2, addr2, sc2 := startServeChild(t, "-workers", "2", "-servers", "1", "-journal-dir", journalDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	resumed := make(chan int, 1)
	go func() {
		re := regexp.MustCompile(`resubmitted (\d+) interrupted`)
		n := -1
		for sc2.Scan() {
			if m := re.FindStringSubmatch(sc2.Text()); m != nil {
				n, _ = strconv.Atoi(m[1])
				resumed <- n
			}
		}
		if n < 0 {
			resumed <- 0
		}
	}()

	// An idempotent retry of drill job 3 across the restart must return
	// the original job, not create a thirteenth.
	if st, code := submit(addr2, 3); code != http.StatusOK || st.ID != ids[3] {
		t.Fatalf("idempotent retry: status %d, job %d, want 200 with original id %d", code, st.ID, ids[3])
	}

	// Every job reaches a terminal state exactly once.
	want := chem.MP2Reference(16, 96)
	deadline := time.Now().Add(120 * time.Second)
	for {
		byID := map[int]serve.JobStatus{}
		for _, st := range listJobs(t, addr2) {
			if _, dup := byID[st.ID]; dup {
				t.Fatalf("job id %d appears twice in /jobs — restart duplicated it", st.ID)
			}
			byID[st.ID] = st
		}
		if len(byID) != jobs {
			t.Fatalf("/jobs lists %d jobs, want exactly the %d submitted", len(byID), jobs)
		}
		terminal := 0
		for i := 0; i < jobs; i++ {
			st, ok := byID[ids[i]]
			if !ok {
				t.Fatalf("job %d (drill %d) lost across the restart", ids[i], i)
			}
			if !st.Terminal() {
				continue
			}
			terminal++
			if st.State != serve.StateDone {
				t.Fatalf("job %d: state %q (%s)", st.ID, st.State, st.Error)
			}
			if got := st.Scalars["emp2"]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("job %d: emp2 = %v, want %v — replay corrupted the result", st.ID, got, want)
			}
		}
		if terminal == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal at deadline", terminal, jobs)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Graceful exit still works on the recovered service.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd2.Wait() }()
	select {
	case err := <-waitc:
		if err != nil {
			t.Fatalf("recovered serve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("recovered serve did not exit after SIGTERM")
	}
	if n := <-resumed; n < jobs/2 {
		t.Errorf("restart resubmitted only %d of %d jobs — the kill landed after the work was done, drill proved nothing", n, jobs)
	}
}

// listJobs returns every job's status from a serve's GET /jobs.
func listJobs(t *testing.T, addr string) []serve.JobStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer resp.Body.Close()
	var all []serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode /jobs: %v", err)
	}
	return all
}

// TestCLISubmitErrors: client-side validation fails fast, without a
// server.
func TestCLISubmitErrors(t *testing.T) {
	if code, _, errOut := runCLI(t, "submit", "-addr", "127.0.0.1:1"); code != 1 ||
		!strings.Contains(errOut, "prog.sial argument or -pack") {
		t.Fatalf("no-source submit: %d %s", code, errOut)
	}
	siox := writeProgram(t, testProgram)
	siox = strings.TrimSuffix(siox, ".sial") + ".siox"
	if err := os.WriteFile(siox, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "submit", siox, "-addr", "127.0.0.1:1"); code != 1 ||
		!strings.Contains(errOut, "SIAL source") {
		t.Fatalf(".siox submit: %d %s", code, errOut)
	}
}

// TestCLILaunchSignal: SIGINT to a -launch supervisor is forwarded to
// the child ranks, their output is drained, and the exit is attributed
// to the signal rather than to a child's death.
func TestCLILaunchSignal(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Heavy enough (seconds of chunk work) that the run is still in
	// flight when the signal lands.
	path := writeProgram(t, `
sial slow_drill
param n = 256
aoindex I = 1, n
aoindex J = 1, n
aoindex K = 1, n
temp v(I,K)
scalar e
pardo I, J
  do K
    compute_integrals v(I,K)
    e += dot(v(I,K), v(I,K))
  enddo K
endpardo
collective e
endsial
`)
	cmd := exec.Command(exe, "run", path, "-launch", "-workers", "2", "-seg", "2")
	cmd.Env = append(os.Environ(), "SIAL_CHILD_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	select {
	case <-waitc:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("launcher did not exit after SIGINT; output:\n%s", out.String())
	}
	// Either the signal interrupted the run (attributed non-zero exit)
	// or the run won the race and drained cleanly — both must say so.
	text := out.String()
	if !strings.Contains(text, "terminated by interrupt") && !strings.Contains(text, "drained cleanly") {
		t.Fatalf("exit not attributed to the signal:\n%s", text)
	}
	if strings.Contains(text, "second signal") {
		t.Fatalf("graceful path escalated to kill:\n%s", text)
	}
}

var _ = fmt.Sprintf
var _ = io.Discard
