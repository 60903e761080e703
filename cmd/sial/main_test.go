package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/sip"
)

// TestMain doubles as the launch-child entry point: doLaunch spawns
// os.Executable(), which under `go test` is this test binary, with
// SIAL_CHILD_MAIN=1 in the environment.  Such children run the real CLI
// instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("SIAL_CHILD_MAIN") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const testProgram = `
sial cli_test
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar s
do I
  a(I,I) = 2.0
  execute trace a(I,I), s
enddo I
print "trace =", s
endsial
`

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.sial")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIRun(t *testing.T) {
	path := writeProgram(t, testProgram)
	code, out, errOut := runCLI(t, "run", path, "-workers", "2", "-seg", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "trace =") || !strings.Contains(out, "s = 8") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCLIRunWithParamAndProfile(t *testing.T) {
	path := writeProgram(t, testProgram)
	code, out, errOut := runCLI(t, "run", path, "-workers", "1", "-seg", "2", "-param", "n=8", "-profile")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// n=8, seg 2: 4 blocks of 2x2 -> trace 16.
	if !strings.Contains(out, "s = 16") {
		t.Fatalf("param override ignored:\n%s", out)
	}
	if !strings.Contains(out, "SIP profile (kernel "+linalg.Kernel()+")") {
		t.Fatalf("profile missing or not naming kernel %q:\n%s", linalg.Kernel(), out)
	}
}

func TestCLICompileAndDisasmRoundTrip(t *testing.T) {
	path := writeProgram(t, testProgram)
	siox := filepath.Join(filepath.Dir(path), "prog.siox")
	code, out, errOut := runCLI(t, "compile", path, "-o", siox)
	if code != 0 {
		t.Fatalf("compile failed: %s", errOut)
	}
	if !strings.Contains(out, "compiled") {
		t.Fatalf("compile output: %s", out)
	}
	// Disassemble the compiled byte code.
	code, out, errOut = runCLI(t, "disasm", siox)
	if code != 0 {
		t.Fatalf("disasm failed: %s", errOut)
	}
	if !strings.Contains(out, "program cli_test") || !strings.Contains(out, "execute") {
		t.Fatalf("disasm output:\n%s", out)
	}
	// And run it.
	code, out, _ = runCLI(t, "run", siox, "-workers", "2", "-seg", "2")
	if code != 0 || !strings.Contains(out, "s = 8") {
		t.Fatalf("run of .siox failed (%d):\n%s", code, out)
	}
}

func TestCLIDryRun(t *testing.T) {
	path := writeProgram(t, testProgram)
	code, out, _ := runCLI(t, "dryrun", path, "-workers", "2", "-seg", "2")
	if code != 0 {
		t.Fatalf("dryrun exit %d", code)
	}
	if !strings.Contains(out, "dry run") {
		t.Fatalf("dryrun output:\n%s", out)
	}
	// An impossible memory budget exits nonzero and reports.
	code, out, errOut := runCLI(t, "dryrun", path, "-workers", "2", "-seg", "2", "-mem", "1")
	if code != 1 {
		t.Fatalf("infeasible dryrun exit %d", code)
	}
	if !strings.Contains(out, "INFEASIBLE") && !strings.Contains(errOut, "infeasible") {
		t.Fatalf("missing infeasibility report:\n%s\n%s", out, errOut)
	}
}

// TestCLIDryRunJSON: `sial dryrun -json` emits the report `sial serve`
// charges jobs against at admission, with the same defaults and exit
// codes as the human report.
func TestCLIDryRunJSON(t *testing.T) {
	path := writeProgram(t, testProgram)
	code, out, errOut := runCLI(t, "dryrun", path, "-json", "-workers", "2", "-seg", "2")
	if code != 0 {
		t.Fatalf("dryrun exit %d: %s", code, errOut)
	}
	var report sip.DryRunReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("dryrun -json emitted invalid JSON: %v\n%s", err, out)
	}
	if report.Workers != 2 || report.PerWorkerBytes <= 0 || !report.Feasible {
		t.Fatalf("implausible report: %+v", report)
	}
	// The raw JSON uses the stable snake_case keys clients script against.
	for _, key := range []string{`"per_worker_bytes"`, `"feasible"`, `"min_workers"`} {
		if !strings.Contains(out, key) {
			t.Errorf("JSON missing %s:\n%s", key, out)
		}
	}

	// An infeasible budget still emits the JSON report, then exits 1.
	code, out, _ = runCLI(t, "dryrun", path, "-json", "-workers", "2", "-seg", "2", "-mem", "1")
	if code != 1 {
		t.Fatalf("infeasible dryrun exit %d, want 1", code)
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil || report.Feasible {
		t.Fatalf("infeasible report bad (err=%v): %+v", err, report)
	}

	// Without -json the human report is unchanged.
	code, out, _ = runCLI(t, "dryrun", path, "-workers", "2", "-seg", "2")
	if code != 0 || !strings.Contains(out, "dry run") {
		t.Fatalf("plain dryrun (%d):\n%s", code, out)
	}
}

func TestCLIErrors(t *testing.T) {
	// Unknown command and missing args produce usage (exit 2).
	if code, _, errOut := runCLI(t, "bogus", "x"); code != 2 || !strings.Contains(errOut, "usage") {
		t.Fatalf("unknown command: %d %s", code, errOut)
	}
	if code, _, _ := runCLI(t, "run"); code != 2 {
		t.Fatalf("missing file should exit 2, got %d", code)
	}
	// Compile error renders source context with a caret.
	bad := writeProgram(t, "sial bad\naoindex I = 1 4\nendsial\n")
	code, _, errOut := runCLI(t, "disasm", bad)
	if code != 1 {
		t.Fatalf("bad program exit %d", code)
	}
	if !strings.Contains(errOut, "^") || !strings.Contains(errOut, "aoindex I = 1 4") {
		t.Fatalf("missing error context:\n%s", errOut)
	}
	// Missing file.
	if code, _, _ := runCLI(t, "run", "/nonexistent.sial"); code != 1 {
		t.Fatalf("missing file exit %d", code)
	}
}

// obsProgram uses a pardo so multiple workers participate and the
// master dispatches chunks — the trace then spans several ranks.
const obsProgram = `
sial cli_obs
param n = 8
aoindex I = 1, n
distributed D(I,I)
temp one(I,I)
pardo I
  one(I,I) = 1.0
  put D(I,I) = one(I,I)
endpardo I
sip_barrier
endsial
`

func TestCLITraceJSONAndMetrics(t *testing.T) {
	path := writeProgram(t, obsProgram)
	traceFile := filepath.Join(filepath.Dir(path), "trace.json")
	code, out, errOut := runCLI(t, "run", path, "-workers", "4", "-seg", "2",
		"-trace-json", traceFile, "-metrics")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "metrics:") || !strings.Contains(out, "mpi.msgs.chunk_req") {
		t.Fatalf("metrics snapshot missing:\n%s", out)
	}
	if !strings.Contains(out, "trace written to") {
		t.Fatalf("trace confirmation missing:\n%s", out)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			pids[ev.Pid] = true
		}
	}
	workers := 0
	for pid := 1; pid <= 4; pid++ {
		if pids[pid] {
			workers++
		}
	}
	if !pids[0] || workers < 2 {
		t.Fatalf("trace pids = %v, want master plus >= 2 workers", pids)
	}
}

func TestCLITraceRanksFilter(t *testing.T) {
	path := writeProgram(t, obsProgram)
	traceFile := filepath.Join(filepath.Dir(path), "trace.json")
	code, _, errOut := runCLI(t, "run", path, "-workers", "4", "-seg", "2",
		"-trace-json", traceFile, "-trace-ranks", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 {
			t.Fatalf("event from pid %d with -trace-ranks 1", ev.Pid)
		}
	}
	// Malformed rank lists are rejected.
	if _, err := parseRanks("1,x"); err == nil {
		t.Error("parseRanks accepted garbage")
	}
	if ranks, err := parseRanks("all"); err != nil || ranks != nil {
		t.Errorf("parseRanks(all) = %v, %v", ranks, err)
	}
	if ranks, err := parseRanks("2, 3"); err != nil || len(ranks) != 2 || ranks[0] != 2 || ranks[1] != 3 {
		t.Errorf("parseRanks(2, 3) = %v, %v", ranks, err)
	}
}

// textTraceProgram gives each pardo iteration real work (four 128³
// contractions): with cheap iterations one worker and the master can
// ping-pong through the whole pardo before the other worker is first
// scheduled, and worker 1 would trace no iteration at all.
const textTraceProgram = `
sial cli_text_trace
param n = 512
aoindex I = 1, n
aoindex J = 1, n
aoindex K = 1, n
temp a(I,K)
temp b(K,J)
temp p(I,J)
temp c(I,J)
pardo I, J
  c(I,J) = 0.0
  do K
    a(I,K) = 1.0
    b(K,J) = 1.0
    p(I,J) = a(I,K) * b(K,J)
    c(I,J) += p(I,J)
  enddo K
endpardo I, J
endsial
`

// TestCLITextTrace: -trace writes its lines to the process's stderr, and
// -trace-ranks narrows them exactly as it narrows -trace-json: one filter
// serves both outputs.
func TestCLITextTrace(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := writeProgram(t, textTraceProgram)
	traceFile := filepath.Join(filepath.Dir(path), "trace.json")
	for _, extra := range [][]string{nil, {"-trace-json", traceFile}} {
		args := append([]string{"run", path, "-workers", "2", "-seg", "128",
			"-trace", "-trace-ranks", "1"}, extra...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "SIAL_CHILD_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", args[2:], err, stderr.String())
		}
		pardo := false
		for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
			if !strings.HasPrefix(line, "w1 ") || !strings.Contains(line, " line=") {
				t.Fatalf("%v: stderr line %q is not a worker-1 trace line", extra, line)
			}
			pardo = pardo || strings.Contains(line, " [I=")
		}
		if !pardo {
			t.Errorf("%v: no trace line carries a pardo iteration:\n%s", extra, stderr.String())
		}
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 {
			t.Fatalf("-trace-json event from pid %d with -trace-ranks 1", ev.Pid)
		}
		if ev.Ph != "M" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("-trace-json recorded no events; the filter check is vacuous")
	}
}

// --- multi-process transport (docs/TRANSPORT.md) ---

func TestCLITransportFlagValidation(t *testing.T) {
	path := writeProgram(t, testProgram)
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown transport", []string{"-transport", "carrier-pigeon"}, "bad -transport"},
		{"tcp without rank", []string{"-transport", "tcp"}, "-rank and -peers"},
		{"rank without tcp", []string{"-rank", "1"}, "require -transport tcp"},
		{"peers without tcp", []string{"-peers", "localhost:1"}, "require -transport tcp"},
		{"launch with rank", []string{"-launch", "-rank", "0"}, "drop -rank"},
		{"launch with obs-ship", []string{"-launch", "-obs-ship"}, "manages -obs-ship itself"},
		{"obs-ship without tcp", []string{"-obs-ship"}, "requires -transport tcp"},
		{"peers count mismatch", []string{"-workers", "1", "-servers", "1",
			"-transport", "tcp", "-rank", "0", "-peers", "a:1,b:2"}, "lists 2 addresses"},
		{"rank out of range", []string{"-workers", "1", "-servers", "1",
			"-transport", "tcp", "-rank", "7", "-peers", "a:1,b:2,c:3"}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, append([]string{"run", path}, tc.args...)...)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Fatalf("stderr %q lacks %q", errOut, tc.want)
			}
		})
	}
}

func TestStripFlag(t *testing.T) {
	args := []string{"-workers", "2", "-launch", "-transport", "tcp", "-param", "n=4", "-transport=tcp"}
	got := stripFlag(stripFlag(args, "launch", false), "transport", true)
	want := []string{"-workers", "2", "-param", "n=4"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("stripFlag = %q, want %q", got, want)
	}
	// Values that merely look like flag names are preserved.
	kept := stripFlag([]string{"-param", "launch=1"}, "launch", false)
	if strings.Join(kept, " ") != "-param launch=1" {
		t.Fatalf("stripFlag ate a value: %q", kept)
	}
}

// TestCLILaunchExitCodePropagation: a failing child must fail the
// launcher with the child's status surfaced.
func TestCLILaunchExitCodePropagation(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skipf("/bin/false unavailable: %v", err)
	}
	path := writeProgram(t, testProgram)
	t.Setenv("SIAL_LAUNCH_EXE", "/bin/false")
	code, _, errOut := runCLI(t, "run", path, "-launch", "-workers", "1", "-servers", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "exited with status 1") {
		t.Fatalf("stderr %q lacks the child's status", errOut)
	}
}

// TestCLILaunchMissingExe: a bad launcher target fails fast instead of
// leaving half a world running.
func TestCLILaunchMissingExe(t *testing.T) {
	path := writeProgram(t, testProgram)
	t.Setenv("SIAL_LAUNCH_EXE", filepath.Join(t.TempDir(), "no-such-binary"))
	code, _, errOut := runCLI(t, "run", path, "-launch", "-workers", "1")
	if code != 1 || !strings.Contains(errOut, "launch") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

var scalarRe = regexp.MustCompile(`emp2 = (-?[0-9.eE+-]+)`)

func extractEMP2(t *testing.T, out string) float64 {
	t.Helper()
	m := scalarRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no emp2 scalar in output:\n%s", out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCLILaunchLoopbackSmoke runs the MP2 example as 1 master + 2
// workers + 1 I/O server, four real OS processes over TCP loopback, and
// requires the energy to match the in-process reference to 1e-10.
func TestCLILaunchLoopbackSmoke(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sial", "mp2_energy.sial")
	if _, err := os.Stat(example); err != nil {
		t.Fatalf("example missing: %v", err)
	}
	common := []string{"-workers", "2", "-servers", "1", "-seg", "2",
		"-param", "no=2", "-param", "nv=2"}

	code, serialOut, errOut := runCLI(t, append([]string{"run", example}, common...)...)
	if code != 0 {
		t.Fatalf("serial reference exit %d: %s", code, errOut)
	}
	want := extractEMP2(t, serialOut)

	args := append([]string{"run", example}, common...)
	args = append(args, "-launch", "-metrics")
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("launch exit %d: %s\n%s", code, errOut, out)
	}
	got := extractEMP2(t, out)
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("distributed emp2 = %.15g, serial = %.15g", got, want)
	}
	// The program's print executes on a worker process.
	if !strings.Contains(out, "E_MP2 =") {
		t.Errorf("worker print missing from merged output:\n%s", out)
	}
	// Output is tagged per role, and -metrics surfaces network traffic.
	for _, wantLine := range []string{"[master] ", "[worker1] ", "net."} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("merged output lacks %q:\n%s", wantLine, out)
		}
	}
}

// TestCLILaunchMergedTrace: a -launch run with -trace-json streams
// every child's telemetry to the master and writes ONE merged Chrome
// trace with all ranks on a shared timeline, plus flow events pairing
// send and recv spans across processes.
func TestCLILaunchMergedTrace(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sial", "mp2_energy.sial")
	if _, err := os.Stat(example); err != nil {
		t.Fatalf("example missing: %v", err)
	}
	traceFile := filepath.Join(t.TempDir(), "merged.json")
	code, out, errOut := runCLI(t, "run", example,
		"-workers", "2", "-servers", "1", "-seg", "2",
		"-param", "no=2", "-param", "nv=2",
		"-launch", "-metrics", "-trace-json", traceFile)
	if code != 0 {
		t.Fatalf("launch exit %d: %s\n%s", code, errOut, out)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("merged trace missing: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	flows := map[string]int{}
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "s" || ev.Ph == "f" {
			flows[ev.Ph]++
		}
	}
	for rank := 0; rank < 4; rank++ {
		if !pids[rank] {
			t.Errorf("merged trace has no events for rank %d (pids %v)", rank, pids)
		}
	}
	if flows["s"] == 0 || flows["f"] == 0 {
		t.Errorf("merged trace has no flow pair: %v", flows)
	}
	// -metrics on an aggregated run also prints the cluster wait report.
	if !strings.Contains(out, "% wait") {
		t.Errorf("output lacks the wait report:\n%s", out)
	}
}

// TestCLIFaultFlagValidation: fault-injection and detection flags are
// rejected where they cannot work.
func TestCLIFaultFlagValidation(t *testing.T) {
	path := writeProgram(t, testProgram)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"fault-spec without tcp", []string{"-fault-spec", "drop=0.5"}, "requires -transport tcp"},
		{"garbage fault-spec", []string{"-launch", "-fault-spec", "explode=yes"}, "unknown fault spec key"},
		{"bad probability", []string{"-launch", "-fault-spec", "drop=1.5"}, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, append([]string{"run", path}, tc.args...)...)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Fatalf("stderr %q lacks %q", errOut, tc.want)
			}
		})
	}
}

// TestCLILaunchChaosServerKill is the acceptance drill from
// docs/FAULTS.md: a real four-process MP2 run over TCP loopback whose
// lone I/O server (world rank 3) is wedged by fault injection from its
// very first frame (kill=3@0 — a later trigger would race this tiny
// problem size).  The run must terminate within the detection bound,
// exit non-zero, and name the dead rank in the merged output.
func TestCLILaunchChaosServerKill(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "sial", "mp2_served.sial")
	if _, err := os.Stat(example); err != nil {
		t.Fatalf("example missing: %v", err)
	}
	start := time.Now()
	code, out, errOut := runCLI(t, "run", example,
		"-workers", "2", "-servers", "1", "-seg", "2",
		"-param", "no=2", "-param", "nv=2",
		"-launch", "-fault-spec", "seed=7;kill=3",
		"-hb-interval", "50ms", "-hb-timeout", "500ms", "-recv-timeout", "2s")
	elapsed := time.Since(start)
	if code == 0 {
		t.Fatalf("run with a killed server succeeded:\n%s", out)
	}
	if elapsed > 60*time.Second {
		t.Errorf("detection took %v, want well under a minute", elapsed)
	}
	merged := out + errOut
	if !strings.Contains(merged, "rank 3") {
		t.Errorf("diagnosis does not name the dead server rank:\n%s", merged)
	}
	if !strings.Contains(merged, "injecting faults") {
		t.Errorf("fault injection banner missing:\n%s", merged)
	}
}

// TestCLIManualRankMode drives -transport tcp -rank/-peers directly (no
// -launch) with every rank hosted by this test process.
func TestCLIManualRankMode(t *testing.T) {
	path := writeProgram(t, testProgram)
	addrs, err := reservePorts(3) // 1 master + 1 worker + 1 server
	if err != nil {
		t.Fatal(err)
	}
	peers := strings.Join(addrs, ",")
	type res struct {
		code int
		out  string
		err  string
	}
	results := make([]res, 3)
	done := make(chan int, 3)
	for rank := 0; rank < 3; rank++ {
		go func(rank int) {
			code, out, errOut := runCLI(t, "run", path, "-workers", "1", "-servers", "1",
				"-seg", "2", "-transport", "tcp", "-rank", strconv.Itoa(rank), "-peers", peers)
			results[rank] = res{code, out, errOut}
			done <- rank
		}(rank)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	for rank, r := range results {
		if r.code != 0 {
			t.Fatalf("rank %d exit %d: %s", rank, r.code, r.err)
		}
	}
	// The master reports the scalar; the worker ran the prints.
	if !strings.Contains(results[0].out, "s = 8") {
		t.Errorf("master output:\n%s", results[0].out)
	}
	if !strings.Contains(results[1].out, "trace =") {
		t.Errorf("worker output:\n%s", results[1].out)
	}
}
