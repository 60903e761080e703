package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chem"
	"repro/internal/core"
)

// A workload is one named set of inputs the benchmark runs.  prepare
// builds the seeded inputs and the serial reference (outside setup_s);
// open is one complete set-up — compile, resolve, scratch, listeners,
// worlds or service, and one untimed warm-up unit — and returns an
// instance whose unit method runs and verifies one solve or one job.
type workload interface {
	info() info
	prepare(seed int64) error
	open(o options) (instance, error)
}

// info is what BENCHMARK.json and the README record about a workload.
type info struct {
	name string
	why  string // one line: the layer it was built to stress
	size string // final sizes, probed on the 2-core reference host
	// gated workloads are the ones BENCHMARK.json lists, whose end-to-end
	// metrics later changes are held to.  A workload that fsyncs — every
	// I/O-server run writes its served blocks durably — stays runnable by
	// name but is not gated: on the reference host fsync latency moved
	// between 0.25 ms and 9 ms within an hour, so its wall time agrees
	// with itself within no bound (README.md, "Demoted").
	gated bool
	// clients is the number of closed-loop load generators: each starts
	// its next unit only when the previous one returned.
	clients int
	// sides are the traced pass's side runs: the workload reopened under
	// a variant, whose median unit time is reported as (or divides into)
	// the named per-layer metric.
	sides []side
}

type side struct {
	variant string
	metric  string
	// ratio reports the variant's median solve over the plain one's (the
	// price of the policy, printed with its base) instead of seconds.
	ratio bool
}

// options select how an instance is opened.
type options struct {
	// rec, when set, makes the instance traced: units run with
	// Config.Tracer and Config.Metrics set and record their spans here.
	rec     *recorder
	variant string // "" or one of the workload's side-run variants
}

type instance interface {
	// unit runs one solve or one job and checks it against the oracle.
	// i counts units from 0 across all clients.
	unit(i int) error
	// layers returns what the units so far recorded.
	layers() *layerAcc
	Close() error
}

// workloads returns the six workloads at benchmark size, or at the size
// bench_test.go smoke-runs them.
func workloads(tiny bool) []workload {
	pick := func(full, small map[string]int) map[string]int {
		if tiny {
			return small
		}
		return full
	}
	contractSeg := 14
	if tiny {
		contractSeg = 4
	}
	return []workload{
		&solver{
			meta: info{
				name:  "contract_inproc",
				why:   "kernel-bound: CCSD term at seg=14, contract+integrals do the work, mpi/wire/transport/disk almost none",
				gated: true, clients: 1,
			},
			source: chem.CCSDTermProgram(),
			params: pick(map[string]int{"norb": 56, "nocc": 14}, map[string]int{"norb": 8, "nocc": 4}),
			cfg:    core.Config{Workers: 2, Seg: core.DefaultSegConfig(contractSeg)},
			kind:   kindCCSDTerm,
		},
		&solver{
			meta: info{
				name:  "dispatch_inproc",
				why:   "dispatch-bound: MP2 at seg=2, interpreter, chunk hand-out and block pool dominate, zero contraction flops",
				gated: true, clients: 1,
			},
			source: chem.MP2EnergyProgram(),
			params: pick(map[string]int{"no": 24, "nv": 72}, map[string]int{"no": 4, "nv": 8}),
			cfg:    core.Config{Workers: 2, Seg: core.DefaultSegConfig(2)},
			kind:   kindMP2,
		},
		&solver{
			meta: info{
				name:  "comm_tcp",
				why:   "message-bound: CCSD term at seg=4, one RunRank per rank over TCP loopback, wire codec, framing and mailboxes carry it",
				gated: true, clients: 1,
				sides: []side{{variant: "inproc", metric: "transport.inproc_solve_s"}},
			},
			source: chem.CCSDTermProgram(),
			params: pick(map[string]int{"norb": 40, "nocc": 8}, map[string]int{"norb": 8, "nocc": 4}),
			cfg:    core.Config{Workers: 2, Seg: core.DefaultSegConfig(4), CacheBlocks: 16},
			kind:   kindCCSDTerm,
			tcp:    true,
		},
		&serveJobs{
			meta: info{
				name:  "serve_jobs",
				why:   "service-bound: closed loop of 2 clients against the job service, tiny jobs, so compile, dry-run admission, fairness gate and tag-window set-up carry it",
				gated: true, clients: 2,
				sides: []side{{variant: "journal", metric: "serve.journal_x", ratio: true}},
			},
		},
		&solver{
			meta: info{
				name:    "served_read",
				why:     "I/O-server read side: CCSD iterations request served blocks through 8-block caches, so block wait and disk reads dominate",
				clients: 1,
				sides: []side{
					{variant: "replicas2", metric: "policy.replicas2_x", ratio: true},
					{variant: "recover", metric: "policy.recover_x", ratio: true},
					{variant: "ckpt", metric: "policy.ckpt_x", ratio: true},
				},
			},
			source: chem.CCSDEnergyProgram(),
			params: pick(map[string]int{"norb": 32, "nocc": 8, "iters": 2}, map[string]int{"norb": 8, "nocc": 4, "iters": 1}),
			cfg:    core.Config{Workers: 2, Servers: 1, Seg: core.DefaultSegConfig(4), CacheBlocks: 8, ServerCacheBlocks: 8},
			kind:   kindCCSDEnergy,
		},
		&solver{
			meta: info{
				name:    "served_write",
				why:     "I/O-server write side: MP2 staged through served arrays, every prepare is a temp+fsync+rename block file drained at the server barrier",
				clients: 1,
			},
			source: chem.MP2ServedProgram(),
			params: pick(map[string]int{"no": 12, "nv": 36}, map[string]int{"no": 4, "nv": 8}),
			cfg:    core.Config{Workers: 2, Servers: 1, Seg: core.DefaultSegConfig(4), ServerCacheBlocks: 8},
			kind:   kindMP2,
		},
	}
}

// sizeString renders a solver workload's final sizes for the README
// and the host line.
func sizeString(params map[string]int, cfg core.Config, tcp bool) string {
	s := ""
	for _, k := range []string{"norb", "nocc", "no", "nv", "iters"} {
		if v, ok := params[k]; ok {
			s += fmt.Sprintf("%s=%d ", k, v)
		}
	}
	s += fmt.Sprintf("seg=%d workers=%d", cfg.Seg.Default, cfg.Workers)
	if cfg.Servers > 0 {
		s += fmt.Sprintf(" servers=%d server_cache=%d", cfg.Servers, cfg.ServerCacheBlocks)
	}
	if cfg.CacheBlocks > 0 {
		s += fmt.Sprintf(" cache=%d", cfg.CacheBlocks)
	}
	if tcp {
		s += " tcp-loopback"
	}
	return s
}

// amplitudes is the seeded input of the CCSD workloads: the initial T
// amplitudes.  The seed moves a phase, so every seed gives different
// data of the same size and the work per solve does not depend on it.
// Values are never zero (the GEMM kernel skips zero multipliers).
func amplitudes(seed int64) func(idx []int) float64 {
	phase := 2 * math.Pi * rand.New(rand.NewSource(seed)).Float64()
	return func(idx []int) float64 {
		l, s, i, j := idx[0], idx[1], idx[2], idx[3]
		wave := 1 + 0.25*math.Sin(phase+0.37*float64(l)+0.11*float64(s))
		return wave / (1 + math.Abs(float64(l-s)) + 0.5*float64(i+j))
	}
}
