package sip

// Checkpoint/restart tests: a run stopped mid-flight (Config.Stop) must
// leave a snapshot a second run (Config.Resume) completes from, with
// the same answer a plain run produces and strictly less re-executed
// work — across different worker and server counts, and past a
// corrupted newest epoch.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/obs"
)

// snapProgram is distProgram over a larger index range, so a stop fired
// after the first mid-pardo snapshot still leaves work to skip.
const snapProgram = `
sial snap_all
param n = 12
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
served S(I,J)
temp t(I,J)
scalar e
pardo I, J
  get D(I,J)
  t(I,J) = 2.0 * D(I,J)
  prepare S(I,J) = t(I,J)
endpardo
sip_barrier
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = S(I,J)
  e += dot(t(I,J), t(I,J))
endpardo
collective e
endsial
`

func snapConfig(scratch string, workers, servers int) Config {
	return Config{
		Workers:    workers,
		Servers:    servers,
		Seg:        bytecode.DefaultSegConfig(3),
		Preset:     map[string]PresetFunc{"D": presetFrom(tElem)},
		Output:     &bytes.Buffer{},
		ScratchDir: scratch,
		Recover:    true,
	}
}

// runSnapRef computes the reference energy with no checkpointing and
// returns it with the full run's dispatched-iteration count.
func runSnapRef(t *testing.T) (float64, int64) {
	t.Helper()
	cfg := snapConfig(t.TempDir(), 2, 1)
	cfg.Metrics = obs.NewRegistry()
	res, err := RunSource(snapProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Scalars["e"], cfg.Metrics.Snapshot().Counters[metricMasterIters]
}

// runStopped runs snapProgram with checkpointing on and stops it after
// stopEpoch snapshots, returning the scratch directory holding them.
func runStopped(t *testing.T, stopEpoch int) string {
	t.Helper()
	scratch := t.TempDir()
	cfg := snapConfig(scratch, 2, 1)
	cfg.CkptInterval = 1
	stop := make(chan struct{})
	var once sync.Once
	cfg.Stop = stop
	cfg.OnSnapshot = func(info SnapshotInfo) {
		if info.Epoch >= stopEpoch {
			once.Do(func() { close(stop) })
		}
	}
	_, err := RunSource(snapProgram, cfg)
	// The run may complete before the stop lands; any error must be the
	// cooperative cancellation.
	if err != nil && !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("stopped run: %v", err)
	}
	if _, serr := os.Stat(filepath.Join(scratch, "ckpt", "job")); serr != nil {
		t.Fatalf("stopped run left no snapshot dir: %v", serr)
	}
	return scratch
}

// resumeRun completes a stopped run from its snapshots and returns the
// energy plus the dispatched-iteration count and the resume metrics.
func resumeRun(t *testing.T, scratch string, workers, servers int) (float64, int64, map[string]int64) {
	t.Helper()
	cfg := snapConfig(scratch, workers, servers)
	cfg.CkptInterval = 1
	cfg.Resume = true
	cfg.Metrics = obs.NewRegistry()
	var info ResumeInfo
	cfg.OnResume = func(ri ResumeInfo) { info = ri }
	res, err := RunSource(snapProgram, cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if info.Epoch == 0 {
		t.Fatal("OnResume never fired: the run started cold")
	}
	snap := cfg.Metrics.Snapshot()
	return res.Scalars["e"], snap.Counters[metricMasterIters], snap.Counters
}

// TestResumeAfterStop: stop after the first mid-pardo snapshot, resume
// with the same topology, and require the reference energy with
// strictly fewer dispatched iterations.
func TestResumeAfterStop(t *testing.T) {
	ref, itersFull := runSnapRef(t)
	// Epoch 3 is the first mid-pardo snapshot: 1 = sip_barrier,
	// 2 = server_barrier, 3+ = every completed chunk of the pure pardo.
	scratch := runStopped(t, 3)
	got, iters, counters := resumeRun(t, scratch, 2, 1)
	if math.Abs(got-ref) > 1e-11 {
		t.Errorf("resumed energy = %g, want %g", got, ref)
	}
	if iters >= itersFull {
		t.Errorf("resumed run dispatched %d iterations, want < %d", iters, itersFull)
	}
	if counters[metricResumeResumed] != 1 {
		t.Errorf("%s = %d, want 1", metricResumeResumed, counters[metricResumeResumed])
	}
	if counters[metricResumeBlocks] == 0 {
		t.Errorf("%s = 0, want > 0 rehydrated blocks", metricResumeBlocks)
	}
}

// TestResumeDifferentTopology: the snapshot is placement-independent —
// a run stopped at (2 workers, 1 server) resumes at (3 workers,
// 2 servers) with the same answer.
func TestResumeDifferentTopology(t *testing.T) {
	ref, itersFull := runSnapRef(t)
	scratch := runStopped(t, 3)
	got, iters, _ := resumeRun(t, scratch, 3, 2)
	if math.Abs(got-ref) > 1e-11 {
		t.Errorf("resumed energy = %g, want %g", got, ref)
	}
	if iters >= itersFull {
		t.Errorf("resumed run dispatched %d iterations, want < %d", iters, itersFull)
	}
}

// TestResumeCorruptManifestFallsBack: flipping a byte of the newest
// manifest must send the resume one epoch back, not corrupt the answer.
func TestResumeCorruptManifestFallsBack(t *testing.T) {
	ref, _ := runSnapRef(t)
	scratch := runStopped(t, 3)
	dir := filepath.Join(scratch, "ckpt", "job")
	newest := ""
	epochs, err := filepath.Glob(filepath.Join(dir, "manifest_*.ckpt"))
	if err != nil || len(epochs) == 0 {
		t.Fatalf("no manifests in %s (%v)", dir, err)
	}
	for _, p := range epochs {
		if newest == "" || len(p) > len(newest) || (len(p) == len(newest) && p > newest) {
			newest = p
		}
	}
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, counters := resumeRun(t, scratch, 2, 1)
	if math.Abs(got-ref) > 1e-11 {
		t.Errorf("resumed energy = %g, want %g", got, ref)
	}
	if counters[metricResumeFallbacks] == 0 {
		t.Errorf("%s = 0, want >= 1 (newest epoch was corrupt)", metricResumeFallbacks)
	}
}

// TestResumeRefusesOldManifest: a manifest of the SMF1 format, whose
// overlays were iteration tuples, is refused by its magic and skipped
// like a corrupt epoch, never decoded as spans — even with a valid
// checksum and a payload the current codec would accept.
func TestResumeRefusesOldManifest(t *testing.T) {
	ref, _ := runSnapRef(t)
	scratch := runStopped(t, 3)
	dir := filepath.Join(scratch, "ckpt", "job")
	epochs, err := filepath.Glob(filepath.Join(dir, "manifest_*.ckpt"))
	if err != nil || len(epochs) == 0 {
		t.Fatalf("no manifests in %s (%v)", dir, err)
	}
	for _, path := range epochs {
		payload, err := readIntegrityFile(path, manifestMagic)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeIntegrityFile(path, "SMF1", payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readIntegrityFile(epochs[0], manifestMagic); err == nil || !strings.Contains(err.Error(), `"SMF1"`) {
		t.Errorf("reading an SMF1 manifest: %v, want a refusal naming SMF1", err)
	}
	cfg := snapConfig(scratch, 2, 1)
	cfg.CkptInterval = 1
	cfg.Resume = true
	cfg.Metrics = obs.NewRegistry()
	cfg.OnResume = func(ri ResumeInfo) { t.Errorf("resumed from epoch %d of an SMF1 manifest", ri.Epoch) }
	res, err := RunSource(snapProgram, cfg)
	if err != nil {
		t.Fatalf("run over SMF1 manifests: %v", err)
	}
	if got := res.Scalars["e"]; math.Abs(got-ref) > 1e-11 {
		t.Errorf("energy = %g, want %g", got, ref)
	}
	counters := cfg.Metrics.Snapshot().Counters
	if counters[metricResumeFallbacks] == 0 || counters[metricResumeCold] != 1 {
		t.Errorf("%s = %d, %s = %d, want >= 1 and 1: every epoch is refused",
			metricResumeFallbacks, counters[metricResumeFallbacks], metricResumeCold, counters[metricResumeCold])
	}
}

// TestSnapshotGCRetention: only ckptKeep epochs survive on disk.
func TestSnapshotGCRetention(t *testing.T) {
	scratch := runStopped(t, 4)
	dir := filepath.Join(scratch, "ckpt", "job")
	manifests, _ := filepath.Glob(filepath.Join(dir, "manifest_*.ckpt"))
	if len(manifests) == 0 || len(manifests) > 2 {
		t.Errorf("found %d manifests, want 1..2 (ckptKeep)", len(manifests))
	}
	epochDirs, _ := filepath.Glob(filepath.Join(dir, "epoch*"))
	if len(epochDirs) == 0 || len(epochDirs) > 2 {
		t.Errorf("found %d epoch dirs, want 1..2", len(epochDirs))
	}
}

// TestIntegrityFileRoundTrip: the magic+payload+CRC framing detects
// corruption anywhere in the file.
func TestIntegrityFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.ckpt")
	payload := []byte("hello snapshot payload")
	if err := writeIntegrityFile(path, "SMF1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := readIntegrityFile(path, "SMF1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if _, err := readIntegrityFile(path, "SCK1"); err == nil {
		t.Error("wrong magic accepted")
	}
	buf, _ := os.ReadFile(path)
	for _, i := range []int{0, len(buf) / 2, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readIntegrityFile(path, "SMF1"); err == nil {
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
}

// TestCkptIntervalValidation: the config cross-checks.  Checkpointing
// does not depend on Recover — the chunk ledger snapshots read is always
// kept.
func TestCkptIntervalValidation(t *testing.T) {
	cfg := Config{Workers: 1, Resume: true}
	if err := cfg.fill(); err == nil {
		t.Error("Resume without CkptInterval accepted")
	}
	cfg = Config{Workers: 1, CkptInterval: 4}
	if err := cfg.fill(); err != nil {
		t.Fatalf("CkptInterval without Recover: %v", err)
	}
	if ckptKeep != 2 || cfg.CkptName != "job" {
		t.Errorf("defaults: keep=%d name=%q, want 2/job", ckptKeep, cfg.CkptName)
	}
}
