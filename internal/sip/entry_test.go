// The entry-point tables live in an external test package so they can
// drive the chemistry programs (internal/chem imports sip).
package sip_test

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/sip"
)

// entry is one way into the runtime: it runs prog under cfg with the
// given fault policy and returns the master's result, the profiles of
// every worker-hosting call, and the registry that observed the world's
// messages.
type entry struct {
	name string
	run  func(t *testing.T, prog *bytecode.Program, cfg sip.Config) (*sip.Result, []*sip.Profile, *obs.Registry, error)
}

var entries = []entry{
	{"Run", func(t *testing.T, prog *bytecode.Program, cfg sip.Config) (*sip.Result, []*sip.Profile, *obs.Registry, error) {
		cfg.Metrics = obs.NewRegistry()
		res, err := sip.Run(prog, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return res, []*sip.Profile{res.Profile}, cfg.Metrics, nil
	}},
	{"RunRank", func(t *testing.T, prog *bytecode.Program, cfg sip.Config) (*sip.Result, []*sip.Profile, *obs.Registry, error) {
		cfg.Metrics = obs.NewRegistry() // shared by every rank's observer
		n := 1 + cfg.Workers + cfg.Servers
		worlds := tcpWorlds(t, n)
		results := make([]*sip.Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for rank := range worlds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer worlds[rank].Close()
				results[rank], errs[rank] = sip.RunRank(prog, cfg, worlds[rank], rank)
			}()
		}
		wg.Wait()
		if errs[0] != nil {
			return nil, nil, nil, errs[0]
		}
		var profiles []*sip.Profile
		for rank := 1; rank <= cfg.Workers; rank++ {
			if errs[rank] != nil {
				return nil, nil, nil, errs[rank]
			}
			profiles = append(profiles, results[rank].Profile)
		}
		return results[0], profiles, cfg.Metrics, nil
	}},
	{"Pool.RunJob", func(t *testing.T, prog *bytecode.Program, cfg sip.Config) (*sip.Result, []*sip.Profile, *obs.Registry, error) {
		reg := obs.NewRegistry()
		p, err := sip.NewPool(sip.PoolConfig{Workers: cfg.Workers, Servers: cfg.Servers,
			Recover: cfg.Recover, Replicas: cfg.Replicas, Metrics: reg, Output: cfg.Output})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// The job is the case's own Config less what the pool owns.
		job := cfg
		job.Workers, job.Servers, job.Recover, job.Replicas = 0, 0, false, 0
		res, err := p.RunJob(prog, job)
		if err != nil {
			return nil, nil, nil, err
		}
		return res, []*sip.Profile{res.Profile}, reg, nil
	}},
}

// tcpWorlds builds one single-rank world per rank over TCP loopback, as
// the processes of a `sial run -launch` would.
func tcpWorlds(t *testing.T, n int) []*mpi.World {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	worlds := make([]*mpi.World, n)
	for rank := range worlds {
		tr, err := transport.NewTCP(transport.TCPConfig{Rank: rank, Addrs: addrs, Listener: lns[rank]})
		if err != nil {
			t.Fatal(err)
		}
		if worlds[rank], err = mpi.NewDistributedWorld(n, []int{rank}, tr); err != nil {
			t.Fatal(err)
		}
	}
	return worlds
}

func tInit(idx []int) float64 {
	s := 0
	for d, v := range idx {
		s += (2*d + 1) * v
	}
	return float64(s%7)*0.5 - 1.5
}

func mustCompile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestEntryPointsAgree is the one-protocol, one-launcher table: every
// chemistry program through every entry point, with the fault policy off
// and on, must reproduce its serial reference at 1e-10 — and must reach
// its sync points the same way, as master-mediated rounds: one report
// per worker per round, whatever Config.Recover says.  The served
// programs run again with every block on two servers (one placement for
// every Replicas), and the in-process entries once more checkpointing
// with the fault policy off (the chunk ledger snapshots read does not
// wait for Recover).
func TestEntryPointsAgree(t *testing.T) {
	const workers = 3
	const no, nv = 3, 5
	const norb, nocc, iters = 6, 2, 2
	scalar := func(name string, want float64) func(*testing.T, *bytecode.Program, sip.Config, *sip.Result) {
		return func(t *testing.T, _ *bytecode.Program, _ sip.Config, res *sip.Result) {
			if got := res.Scalars[name]; math.Abs(got-want) > 1e-10 {
				t.Errorf("%s = %.15g, serial reference %.15g", name, got, want)
			}
		}
	}
	mp2 := sip.Config{Params: map[string]int{"no": no, "nv": nv},
		Integrals: chem.MOIntegrals(no), Super: chem.MP2Super()}
	mp2Served := mp2
	mp2Served.Servers = 2
	ccsdTerm := sip.Config{Params: map[string]int{"norb": norb, "nocc": nocc}, GatherArrays: true,
		Integrals: chem.AOIntegrals(), Preset: map[string]sip.PresetFunc{"T": chem.PresetFromElem(tInit)}}
	ccsdEnergy := ccsdTerm
	ccsdEnergy.Params = map[string]int{"norb": norb, "nocc": nocc, "iters": iters}
	ccsdEnergy.GatherArrays, ccsdEnergy.Servers = false, 2

	programs := []struct {
		name  string
		src   string
		cfg   sip.Config
		check func(*testing.T, *bytecode.Program, sip.Config, *sip.Result)
	}{
		{"CCSDTerm", chem.CCSDTermProgram(), ccsdTerm, checkCCSDTerm(chem.CCSDTermReference(norb, nocc, tInit))},
		{"MP2Energy", chem.MP2EnergyProgram(), mp2, scalar("emp2", chem.MP2Reference(no, nv))},
		{"MP2Served", chem.MP2ServedProgram(), mp2Served, scalar("emp2", chem.MP2Reference(no, nv))},
		{"CCSDEnergy", chem.CCSDEnergyProgram(), ccsdEnergy, scalar("e", chem.CCSDEnergyReference(norb, nocc, iters, tInit))},
	}
	type variant struct {
		name    string
		recover bool
		served  bool // only programs that bring I/O servers
		inproc  bool // not RunRank: its per-rank worlds share no scratch
		set     func(*sip.Config)
	}
	variants := []variant{
		{name: "recover=off"},
		{name: "recover=on", recover: true},
		{name: "recover=off/replicas=2", served: true, set: func(c *sip.Config) { c.Replicas = 2 }},
		{name: "recover=on/replicas=2", recover: true, served: true, set: func(c *sip.Config) { c.Replicas = 2 }},
		{name: "recover=off/ckpt", inproc: true, set: func(c *sip.Config) { c.CkptInterval = 2 }},
	}
	for _, pc := range programs {
		prog := mustCompile(t, pc.src)
		for _, e := range entries {
			for _, v := range variants {
				if v.served && pc.cfg.Servers == 0 || v.inproc && e.name == "RunRank" {
					continue
				}
				t.Run(pc.name+"/"+e.name+"/"+v.name, func(t *testing.T) {
					cfg := pc.cfg
					cfg.Workers = workers
					cfg.Seg = bytecode.DefaultSegConfig(2)
					cfg.Recover = v.recover
					if v.set != nil {
						v.set(&cfg)
					}
					cfg.Output = &bytes.Buffer{}
					res, profiles, reg, err := e.run(t, prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					pc.check(t, prog, cfg, res)

					// Every worker passes the start-up and shutdown rounds plus
					// one round per barrier and collective it executed; none of
					// these programs runs blocks_to_list, and snapshots ride on the
					// rounds that are there.
					want := int64(2 * workers)
					for _, p := range profiles {
						for _, op := range []bytecode.Op{bytecode.OpBarrier, bytecode.OpCollective} {
							if st := p.Ops[op]; st != nil {
								want += st.Count
							}
						}
					}
					if want == 2*workers {
						t.Fatalf("no barrier or collective was profiled; the count below is vacuous")
					}
					if got := reg.Snapshot().Counters["mpi.msgs.sync"]; got != want {
						t.Errorf("mpi.msgs.sync = %d, want %d (workers x sync points)", got, want)
					}
				})
			}
		}
	}
}

// checkCCSDTerm compares the gathered R blocks element by element with
// the dense serial evaluation of the paper's equation (2).
func checkCCSDTerm(want []float64) func(*testing.T, *bytecode.Program, sip.Config, *sip.Result) {
	return func(t *testing.T, prog *bytecode.Program, cfg sip.Config, res *sip.Result) {
		layout, err := prog.Resolve(cfg.Params, cfg.Seg)
		if err != nil {
			t.Fatal(err)
		}
		shape := layout.Shapes[prog.ArrayID("R")]
		norb, nocc := cfg.Params["norb"], cfg.Params["nocc"]
		strides := []int{norb * nocc * nocc, nocc * nocc, nocc, 1}
		seen := 0
		for _, ab := range res.Arrays["R"] {
			coord := shape.CoordOf(ab.Ord)
			lo, _ := shape.BlockBounds(coord)
			dims := shape.BlockDims(coord)
			for off, v := range ab.Data {
				pos, rem := 0, off
				for d := 3; d >= 0; d-- {
					pos += (lo[d] - 1 + rem%dims[d]) * strides[d]
					rem /= dims[d]
				}
				if math.Abs(v-want[pos]) > 1e-10 {
					t.Fatalf("R[%d] = %g, serial reference %g", pos, v, want[pos])
				}
				seen++
			}
		}
		if seen != len(want) {
			t.Errorf("gathered %d elements of R, want %d", seen, len(want))
		}
	}
}

// TestRestartAdoptsOwnJobFiles: a batch run is job 0 and names its
// served blocks' spill files accordingly.  A second incarnation of each
// server over the same scratch directory adopts exactly those files —
// not another job's, and not the un-prefixed names earlier builds wrote.
func TestRestartAdoptsOwnJobFiles(t *testing.T) {
	const no, nv = 3, 5
	prog := mustCompile(t, chem.MP2ServedProgram())
	cfg := sip.Config{Workers: 2, Servers: 2, Seg: bytecode.DefaultSegConfig(2),
		Params: map[string]int{"no": no, "nv": nv}, Integrals: chem.MOIntegrals(no),
		Super: chem.MP2Super(), ScratchDir: t.TempDir(), Output: &bytes.Buffer{}}
	res, err := sip.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Scalars["emp2"], chem.MP2Reference(no, nv); math.Abs(got-want) > 1e-10 {
		t.Fatalf("emp2 = %.15g, serial reference %.15g", got, want)
	}
	total := 0
	for rank := 1 + cfg.Workers; rank <= cfg.Workers+cfg.Servers; rank++ {
		dir := filepath.Join(cfg.ScratchDir, fmt.Sprintf("srv%d", rank))
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var own []string
		for _, de := range des {
			if !strings.HasPrefix(de.Name(), "j0_a") || !strings.HasSuffix(de.Name(), ".blk") {
				t.Errorf("rank %d spilled %q, want only j0_a*_b*.blk files", rank, de.Name())
			}
			own = append(own, de.Name()) // ReadDir sorts by name
		}
		total += len(own)
		for _, decoy := range []string{"j3_a0_b0.blk", "a0_b0.blk", "j0_a99_b0.blk"} {
			if err := os.WriteFile(filepath.Join(dir, decoy), make([]byte, 8), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		adopted, err := sip.RestartedServerIndex(prog, cfg, rank)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(adopted, " ") != strings.Join(own, " ") {
			t.Errorf("rank %d restarted: adopted %v, want exactly the first incarnation's %v", rank, adopted, own)
		}
	}
	if total == 0 {
		t.Fatal("no server spilled a block; the adoption check is vacuous")
	}
}

// distBad reads a distributed block it never fetched: the two workers
// that draw its two iterations fail at runtime, while the third — handed
// an empty chunk — is already parked in the shutdown sync round.
const distBad = `
sial dist_bad
param n = 4
aoindex I = 1, n
distributed D(I,I)
temp t(I,I)
pardo I
  t(I,I) = D(I,I)
endpardo
endsial
`

// TestWorkerFailureUnwinds: whichever way the run was entered, a
// worker's runtime error comes back as *that* error, promptly, although
// a peer is parked in a sync round the failed worker will never reach —
// and a pool outlives the failed job.
func TestWorkerFailureUnwinds(t *testing.T) {
	prog := mustCompile(t, distBad)
	cfg := sip.Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), Output: &bytes.Buffer{}}
	bounded := func(t *testing.T, run func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "without get") {
				t.Errorf("error = %v, want the worker's \"without get\" failure", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("failed run still unwinding after 20s")
		}
	}
	t.Run("Run", func(t *testing.T) {
		bounded(t, func() error { _, err := sip.Run(prog, cfg); return err })
	})
	t.Run("RunRank", func(t *testing.T) {
		worlds := tcpWorlds(t, 4)
		errs := make([]error, len(worlds))
		bounded(t, func() error {
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
			return errs[0] // the master's verdict is the run's
		})
		// The failed workers report their own error first-hand.  (The
		// parked one may be released by the master before the abort lands
		// and finish cleanly: it did nothing wrong.)
		own := 0
		for _, err := range errs[1:] {
			if err != nil && strings.Contains(err.Error(), "without get") {
				own++
			}
		}
		if own == 0 {
			t.Errorf("no worker rank reported the failure itself: %v", errs[1:])
		}
	})
	t.Run("Pool.RunJob", func(t *testing.T) {
		p, err := sip.NewPool(sip.PoolConfig{Workers: cfg.Workers, Output: cfg.Output})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		bounded(t, func() error {
			_, err := p.RunJob(prog, sip.Config{Seg: cfg.Seg})
			return err
		})
		// The failed tenant must not have cost the pool anything.
		const no, nv = 3, 5
		res, err := p.RunJob(mustCompile(t, chem.MP2EnergyProgram()), sip.Config{
			Params: map[string]int{"no": no, "nv": nv}, Seg: cfg.Seg,
			Integrals: chem.MOIntegrals(no), Super: chem.MP2Super()})
		if err != nil {
			t.Fatalf("MP2 job after the failed one: %v", err)
		}
		if got, want := res.Scalars["emp2"], chem.MP2Reference(no, nv); math.Abs(got-want) > 1e-10 {
			t.Errorf("MP2 after the failed job: emp2 = %.15g, serial reference %.15g", got, want)
		}
	})
}
