package sip

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/segment"
)

// serialE runs recoverDrill serially (fresh world, no pool) and returns
// the reference energy for the given problem size.
func serialE(t *testing.T, n int) float64 {
	t.Helper()
	var out bytes.Buffer
	res, err := RunSource(recoverDrill, Config{
		Workers: 2,
		Servers: 1,
		Params:  map[string]int{"n": n},
		Seg:     bytecode.DefaultSegConfig(3),
		Output:  &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Scalars["e"]
	if e == 0 {
		t.Fatalf("serial reference for n=%d computed e = 0; drill is vacuous", n)
	}
	return e
}

func poolProg(t *testing.T) *bytecode.Program {
	t.Helper()
	prog, err := compiler.CompileSource(recoverDrill)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPoolSingleJob: one job through the pool matches the serial batch
// answer — the strided tag plane and job-keyed block namespace are
// invisible to a lone tenant.
func TestPoolSingleJob(t *testing.T) {
	want := serialE(t, 12)
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var out bytes.Buffer
	res, err := p.RunJob(poolProg(t), Config{
		Params: map[string]int{"n": 12},
		Seg:    bytecode.DefaultSegConfig(3),
		Output: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalars["e"]; !closeE(got, want) {
		t.Errorf("pool e = %.15g, want %.15g", got, want)
	}
}

// TestPoolSlowRegistration: a job's registration waits as long as the
// shared servers take to install its presets, with no deadline of its own.
// A served preset that takes 2 s registers, and the job matches its serial
// energy.
func TestPoolSlowRegistration(t *testing.T) {
	const install = 2 * time.Second
	want := serialE(t, 12)
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var once sync.Once
	slow := func(segment.Coord, []int, []int) *block.Block {
		once.Do(func() { time.Sleep(install) })
		return nil // S starts at zero, as in the serial run
	}
	start := time.Now()
	res, err := p.RunJob(poolProg(t), Config{
		Params: map[string]int{"n": 12},
		Seg:    bytecode.DefaultSegConfig(3),
		Preset: map[string]PresetFunc{"S": slow},
		Output: &bytes.Buffer{},
	})
	if err != nil {
		t.Fatalf("after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if got := res.Scalars["e"]; !closeE(got, want) {
		t.Errorf("pool e = %.15g, want %.15g", got, want)
	}
	if d := time.Since(start); d < install {
		t.Errorf("the job ran in %v, before its %v preset installed", d, install)
	}
}

// TestPoolConcurrentJobsIsolated: jobs of three different problem sizes
// run overlapped on the same pool; every job's answer must match its own
// serial reference.  Wrong-namespace traffic (one tenant reading
// another's blocks, acks, or dedup ledger) shows up as a wrong energy.
func TestPoolConcurrentJobsIsolated(t *testing.T) {
	sizes := []int{6, 9, 12}
	want := map[int]float64{}
	for _, n := range sizes {
		want[n] = serialE(t, n)
	}
	p, err := NewPool(PoolConfig{Workers: 3, Servers: 2, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := poolProg(t)

	const jobs = 9
	errs := make([]error, jobs)
	got := make([]float64, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := sizes[i%len(sizes)]
			var out bytes.Buffer
			res, err := p.RunJob(prog, Config{
				Params: map[string]int{"n": n},
				Seg:    bytecode.DefaultSegConfig(3),
				Output: &out,
			})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Scalars["e"]
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Errorf("job %d failed: %v", i, errs[i])
			continue
		}
		n := sizes[i%len(sizes)]
		if !closeE(got[i], want[n]) {
			t.Errorf("job %d (n=%d): e = %.15g, want %.15g", i, n, got[i], want[n])
		}
	}
}

// TestPoolKillAndJoin: a recovering, replicated pool survives a worker
// kill while jobs are in flight, and a joined spare carries jobs
// admitted afterwards.  Every job still matches its serial reference.
func TestPoolKillAndJoin(t *testing.T) {
	want := serialE(t, 12)
	p, err := NewPool(PoolConfig{
		Workers:  3,
		Servers:  2,
		Spares:   1,
		Replicas: 2,
		Recover:  true,
		Output:   &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := poolProg(t)
	run := func() (float64, error) {
		var out bytes.Buffer
		res, err := p.RunJob(prog, Config{
			Params: map[string]int{"n": 12},
			Seg:    bytecode.DefaultSegConfig(3),
			Output: &out,
		})
		if err != nil {
			return 0, err
		}
		return res.Scalars["e"], nil
	}

	const jobs = 4
	errs := make([]error, jobs)
	got := make([]float64, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run()
		}(i)
	}
	// Kill a worker while the first wave is in flight.
	time.Sleep(20 * time.Millisecond)
	if err := p.Kill(2, "test kill"); err != nil {
		t.Errorf("kill: %v", err)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Errorf("job %d failed across kill: %v", i, errs[i])
		} else if !closeE(got[i], want) {
			t.Errorf("job %d across kill: e = %.15g, want %.15g", i, got[i], want)
		}
	}
	if live := p.Workers(); len(live) != 2 {
		t.Fatalf("live workers after kill = %v, want 2", live)
	}

	// Join the spare; jobs admitted now schedule onto it.
	rank, err := p.Join()
	if err != nil {
		t.Fatal(err)
	}
	if live := p.Workers(); len(live) != 3 {
		t.Fatalf("live workers after join = %v, want 3", live)
	}
	e, err := run()
	if err != nil {
		t.Fatalf("job after join (rank %d): %v", rank, err)
	}
	if !closeE(e, want) {
		t.Errorf("job after join: e = %.15g, want %.15g", e, want)
	}
}

// TestRunJobRejectsPoolOwnedFields: a job that sets a Config field the
// pool owns is refused with an error naming the field; a job that sets
// every other field runs, and each of them reaches the run.  The walk
// over Config keeps the table whole: a new field must be classified here.
func TestRunJobRejectsPoolOwnedFields(t *testing.T) {
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := poolProg(t)
	job := func() Config {
		return Config{Params: map[string]int{"n": 6}, Seg: bytecode.DefaultSegConfig(3)}
	}
	owned := []struct {
		name string
		set  func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = 2 }},
		{"Servers", func(c *Config) { c.Servers = 1 }},
		{"ScratchDir", func(c *Config) { c.ScratchDir = t.TempDir() }},
		{"Tracer", func(c *Config) { c.Tracer = obs.NewTracer(obs.TracerConfig{}) }},
		{"Recover", func(c *Config) { c.Recover = true }},
		{"Replicas", func(c *Config) { c.Replicas = 1 }},
		{"ServerCacheBlocks", func(c *Config) { c.ServerCacheBlocks = 8 }},
		{"RecvTimeout", func(c *Config) { c.RecvTimeout = time.Second }},
		{"ObsShip", func(c *Config) { c.ObsShip = true }},
		{"ObsAgg", func(c *Config) { c.ObsAgg = obs.NewAggregator(0, "master", nil, nil) }},
	}
	isOwned := map[string]bool{}
	for _, o := range owned {
		isOwned[o.name] = true
		t.Run(o.name, func(t *testing.T) {
			cfg := job()
			o.set(&cfg)
			if _, err := p.RunJob(prog, cfg); err == nil || !strings.Contains(err.Error(), "Config."+o.name+",") {
				t.Errorf("RunJob with %s set: err = %v, want one naming it", o.name, err)
			}
		})
	}
	t.Run("tenant", func(t *testing.T) {
		var out bytes.Buffer
		reg := obs.NewRegistry()
		snaps := 0
		cfg := job()
		cfg.PrefetchWindow, cfg.CacheBlocks = 4, 64
		cfg.Preset = map[string]PresetFunc{"S": func(segment.Coord, []int, []int) *block.Block { return nil }}
		cfg.Super = map[string]SuperFunc{"unused": func(*ExecCtx, []*block.Block, []*float64) error { return nil }}
		cfg.Integrals, cfg.Output, cfg.Metrics, cfg.GatherArrays = DefaultIntegrals, &out, reg, true
		cfg.Cancel, cfg.Stop = make(chan struct{}), make(chan struct{})
		cfg.CkptInterval, cfg.CkptName, cfg.Resume = 1, "tenant", true
		cfg.OnSnapshot = func(SnapshotInfo) { snaps++ }
		cfg.OnResume = func(ResumeInfo) {}
		v := reflect.ValueOf(cfg)
		for i := range v.NumField() {
			if name := v.Type().Field(i).Name; v.Field(i).IsZero() != isOwned[name] {
				t.Errorf("Config.%s is neither owned by the pool nor set by this tenant", name)
			}
		}
		res, err := p.RunJob(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Scalars["e"], serialE(t, 6); !closeE(got, want) {
			t.Errorf("e = %.15g, want %.15g", got, want)
		}
		if !strings.Contains(out.String(), "e =") || len(res.Served["S"]) == 0 ||
			reg.Snapshot().Counters[metricMasterChunks] == 0 || snaps == 0 {
			t.Errorf("a tenant field did not reach the run: output %q, %d served blocks gathered, %d chunks counted, %d snapshots",
				out.String(), len(res.Served["S"]), reg.Snapshot().Counters[metricMasterChunks], snaps)
		}
	})
}

// TestPoolRejectsAfterClose: RunJob, Kill, and Join all fail cleanly on
// a closed pool.
func TestPoolRejectsAfterClose(t *testing.T) {
	p, err := NewPool(PoolConfig{Workers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := p.RunJob(poolProg(t), Config{}); err == nil {
		t.Error("RunJob on closed pool succeeded")
	}
	if err := p.Kill(1, "x"); err == nil {
		t.Error("Kill on closed pool succeeded")
	}
	if _, err := p.Join(); err == nil {
		t.Error("Join on closed pool succeeded")
	}
}

// TestPoolCloseIdleIsPrompt: closing an idle pool wakes the rank-0
// supervisor out of its receive instead of waiting for a poll period to
// lapse (Close used to stall up to 200ms).
func TestPoolCloseIdleIsPrompt(t *testing.T) {
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the supervisor and servers block
	start := time.Now()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("closing an idle pool took %v, want < 50ms", d)
	}
}

// TestPoolTracerBounded: a pool-wide tracer holds one ring per
// rank-goroutine however many jobs run, not a fresh set per job.
func TestPoolTracerBounded(t *testing.T) {
	prog, err := compiler.CompileSource("sial tick\nscalar x\nx = 1.0\ncollective x\nendsial\n")
	if err != nil {
		t.Fatal(err)
	}
	const workers, servers = 2, 1
	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 64})
	p, err := NewPool(PoolConfig{Workers: workers, Servers: servers, Tracer: tracer, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 1000; i++ {
		res, err := p.RunJob(prog, Config{})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Scalars["x"] != workers {
			t.Fatalf("job %d: x = %g, want %d", i, res.Scalars["x"], workers)
		}
	}
	// master dispatch + worker interp and service + server cache.
	if got, want := len(tracer.Segments(false)), 1+2*workers+servers; got != want {
		t.Errorf("tracer holds %d tracks after 1000 jobs, want %d", got, want)
	}
}

// closeE compares energies to the tolerance the chaos tests use: fold
// order across workers (and recovery replays) legitimately perturbs the
// low bits.
func closeE(got, want float64) bool {
	d := got - want
	return d > -1e-10 && d < 1e-10
}

var _ = fmt.Sprintf // keep fmt for debug edits

// retireDirty leaves every block of its served array dirty on the shared
// server when it ends: the prepares after its server_barrier are flushed
// by nothing but a retirement.
const retireDirty = `
sial retire_dirty
param n = 6
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp v(I,J)
pardo I, J
  compute_integrals v(I,J)
  prepare S(I,J) = v(I,J)
endpardo
server_barrier
pardo I, J
  compute_integrals v(I,J)
  prepare S(I,J) += v(I,J)
endpardo
endsial
`

// TestPoolRetiredTenantWritesNothing: a tenant's retirement drops its
// dirty served blocks unwritten (the files would be deleted with it), so
// the shared server writes only what the job's server_barrier flushed.
func TestPoolRetiredTenantWritesNothing(t *testing.T) {
	prog, err := compiler.CompileSource(retireDirty)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: map[string]int{"n": 6}, Seg: bytecode.DefaultSegConfig(3), Output: &bytes.Buffer{}}
	layout, err := prog.Resolve(cfg.Params, cfg.Seg)
	if err != nil {
		t.Fatal(err)
	}
	flushed := int64(layout.Shapes[prog.ArrayID("S")].NumBlocks()) // by the barrier
	reg := obs.NewRegistry()
	p, err := NewPool(PoolConfig{Workers: 2, Servers: 1, Metrics: reg, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunJob(prog, cfg); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[metricServerDiskWrites]; got != flushed {
		t.Errorf("shared server wrote %d blocks, want the %d its barrier flushed (the retirement writes none)", got, flushed)
	}
}
