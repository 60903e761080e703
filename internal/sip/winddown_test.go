package sip_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/obs"
	"repro/internal/sip"
)

// windDownEntries names the entry points a failure must wind down the same
// way.
var windDownEntries = []string{"Run", "RunRank", "Pool.RunJob"}

// runEntry runs prog under cfg through the named entry point and returns
// the run's error: the master's, for RunRank over TCP.  A pool job runs on
// p and leaves the fields the pool owns to it.
func runEntry(t *testing.T, entry string, p *sip.Pool, prog *bytecode.Program, cfg sip.Config) error {
	t.Helper()
	switch entry {
	case "Run":
		_, err := sip.Run(prog, cfg)
		return err
	case "RunRank":
		worlds := tcpWorlds(t, 1+cfg.Workers+cfg.Servers)
		errs := make([]error, len(worlds))
		var wg sync.WaitGroup
		for rank := range worlds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer worlds[rank].Close()
				_, errs[rank] = sip.RunRank(prog, cfg, worlds[rank], rank)
			}()
		}
		wg.Wait()
		return errs[0]
	}
	job := cfg
	job.Workers, job.Servers, job.ScratchDir = 0, 0, ""
	_, err := p.RunJob(prog, job)
	return err
}

// within returns run's error, failing the test if run has not returned
// after d.
func within(t *testing.T, d time.Duration, run func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("failed run still unwinding after %v", d)
		return nil
	}
}

// TestMasterFailureWindsDown: a master that fails on its own before the
// program starts — here it cannot make its snapshot directory, because a
// regular file sits where the directory goes — releases the workers
// parked in the start-up round into a job it has given up, so every entry
// point returns the master's error instead of hanging.  The pool then
// still runs a correct job.
func TestMasterFailureWindsDown(t *testing.T) {
	const no, nv = 3, 5
	prog := mustCompile(t, chem.MP2EnergyProgram())
	mp2 := sip.Config{Params: map[string]int{"no": no, "nv": nv}, Seg: bytecode.DefaultSegConfig(2),
		Integrals: chem.MOIntegrals(no), Super: chem.MP2Super(), Output: &bytes.Buffer{}}
	for _, entry := range windDownEntries {
		t.Run(entry, func(t *testing.T) {
			scratch := t.TempDir()
			if err := os.WriteFile(filepath.Join(scratch, "ckpt"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := mp2
			cfg.Workers, cfg.ScratchDir, cfg.CkptInterval = 3, scratch, 1
			var p *sip.Pool
			if entry == "Pool.RunJob" {
				var err error
				p, err = sip.NewPool(sip.PoolConfig{Workers: cfg.Workers, ScratchDir: scratch, Output: cfg.Output})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
			}
			err := within(t, 20*time.Second, func() error { return runEntry(t, entry, p, prog, cfg) })
			if !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("error = %v, want the master's failure to make its snapshot directory", err)
			}
			if p == nil {
				return
			}
			res, err := p.RunJob(prog, mp2)
			if err != nil {
				t.Fatalf("MP2 job after the failed one: %v", err)
			}
			if got, want := res.Scalars["emp2"], chem.MP2Reference(no, nv); math.Abs(got-want) > 1e-10 {
				t.Errorf("MP2 after the failed job: emp2 = %.15g, serial reference %.15g", got, want)
			}
		})
	}
}

// stopEarly runs 8 + 64 = 72 pardo iterations at seg 1.  Worker 0 fails
// in its first one, while the others take a millisecond over each of
// theirs, so the master hears of the failure long before the second pardo
// starts.
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

// stopEarlyIters is how many iterations stopEarly's pardos hold.
const stopEarlyIters = 72

// failFirst fails on worker 0 and sleeps a millisecond elsewhere.
func failFirst(ctx *sip.ExecCtx, _ []*block.Block, _ []*float64) error {
	if ctx.Worker == 0 {
		return errors.New("worker 0 fails on purpose")
	}
	time.Sleep(time.Millisecond)
	return nil
}

// TestFailedJobStopsDispatching: a worker's failure gives the job up on
// every entry point — the master dispatches no further iterations, and
// the run returns that worker's error.
func TestFailedJobStopsDispatching(t *testing.T) {
	prog := mustCompile(t, stopEarly)
	for _, entry := range windDownEntries {
		t.Run(entry, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := sip.Config{Workers: 3, Seg: bytecode.DefaultSegConfig(1), Metrics: reg,
				Super: map[string]sip.SuperFunc{"fail_first": failFirst}, Output: &bytes.Buffer{}}
			var p *sip.Pool
			if entry == "Pool.RunJob" {
				var err error
				p, err = sip.NewPool(sip.PoolConfig{Workers: cfg.Workers, Output: cfg.Output})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
			}
			err := within(t, 20*time.Second, func() error { return runEntry(t, entry, p, prog, cfg) })
			if err == nil || !strings.Contains(err.Error(), "worker 0 fails on purpose") {
				t.Errorf("error = %v, want worker 0's", err)
			}
			if n := reg.Snapshot().Counters["sip.master.iters"]; n >= stopEarlyIters {
				t.Errorf("sip.master.iters = %d, want below the program's %d", n, stopEarlyIters)
			}
		})
	}
}
