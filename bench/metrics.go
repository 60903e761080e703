package main

import (
	"encoding/json"
)

// An endToEnd metric is something a user of the system sees.  Every
// gated workload reports every one of them from the untraced pass; bound
// is the share of the parent's median by which it may worsen.
type endToEnd struct {
	name, unit, better string
	bound              float64
}

// A "solve" is one unit of a workload's work: one complete program run
// for the solver workloads, one Submit->Wait job for serve_jobs.
//
// The two time bounds are three times the widest run-to-run spread seen
// on the reference host, a shared 2-core VM (comm_tcp, 0.09 and 0.12 over
// ten seeds): a tenth was asked for and does not hold there.  The two
// allocation counts repeat within half a percent.
var endToEndMetrics = []endToEnd{
	// Median wall time of one solve, the gather of an answer array
	// included; serve_jobs: client-observed Submit->Wait.
	{"solve_s", "s", "lower", 0.25},
	// Verified solves per second of the timed loop at the stated size;
	// serve_jobs: jobs/s of the two-client closed loop.
	{"solves_per_s", "1/s", "higher", 0.25},
	// runtime.MemStats.Mallocs and TotalAlloc over the timed loop / solves.
	{"allocs_per_solve", "count", "lower", 0.03},
	{"alloc_mb_per_solve", "MB", "lower", 0.03},
	// Median of the run's complete set-ups: compile, resolve, listeners and
	// worlds or service start, one untimed warm-up solve.  The serial
	// reference is computed outside it.
	{"setup_s", "s", "lower", 0.25},
}

// A perLayer metric is measured in the traced pass.  moves names the
// end-to-end metric and workload it is predicted to move — written down
// before anything is optimised — and still is where no change is
// predicted.  A metric that does not apply to a workload reads 0 there.
type perLayer struct {
	name, unit, better string
	moves              []move
	still              []string // workloads predicted not to move
}

type move struct{ metric, workload string }

var (
	solverWorkloads = []string{"contract_inproc", "dispatch_inproc", "comm_tcp", "served_read", "served_write"}
	serverless      = []string{"contract_inproc", "dispatch_inproc", "comm_tcp"}
	inproc          = []string{"contract_inproc", "dispatch_inproc", "served_read", "served_write"}
)

func on(metric string, workloads ...string) []move {
	out := make([]move, len(workloads))
	for i, w := range workloads {
		out[i] = move{metric, w}
	}
	return out
}

func cat(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

var perLayerMetrics = []perLayer{
	// linalg, block, chem: kernel rungs at the shapes the workloads use.
	{"linalg.gemm_gflops_n196", "GFLOP/s", "higher", cat(on("solve_s", "contract_inproc"), on("solves_per_s", "contract_inproc")), []string{"dispatch_inproc", "serve_jobs"}},
	{"linalg.gemm_gflops_n16", "GFLOP/s", "higher", on("solve_s", "comm_tcp", "served_read"), []string{"dispatch_inproc", "serve_jobs"}},
	{"block.contract_gflops_seg14", "GFLOP/s", "higher", on("solve_s", "contract_inproc"), []string{"serve_jobs"}},
	{"block.contract_allocs_seg14", "count", "lower", on("allocs_per_solve", "contract_inproc"), []string{"serve_jobs"}},
	{"block.contract_gflops_seg4", "GFLOP/s", "higher", on("solve_s", "comm_tcp", "served_read"), []string{"serve_jobs"}},
	{"block.contract_allocs_seg4", "count", "lower", on("allocs_per_solve", "comm_tcp", "served_read"), []string{"serve_jobs"}},
	{"block.contract_ops_per_byte_seg14", "flop/B", "higher", on("solve_s", "contract_inproc"), []string{"serve_jobs"}},
	{"block.permute_ns_seg4", "ns", "lower", on("solve_s", "served_write", "dispatch_inproc"), []string{"serve_jobs"}},
	{"chem.integrals_ns_per_elem", "ns", "lower", on("solve_s", "contract_inproc"), []string{"served_write"}},

	// sip: the interpreter's own Profile — time busy and count per opcode,
	// summed over workers, per solve.
	{"sip.op.contract_s", "s", "lower", on("solve_s", "contract_inproc"), nil},
	{"sip.op.compute_integrals_s", "s", "lower", on("solve_s", "contract_inproc"), nil},
	{"sip.op.block_copy_s", "s", "lower", on("solve_s", "dispatch_inproc", "served_write"), nil},
	{"sip.op.block_scale_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.op.execute_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.op.dot_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.op.get_s", "s", "lower", on("solve_s", "comm_tcp"), nil},
	{"sip.op.put_s", "s", "lower", on("solve_s", "comm_tcp"), nil},
	{"sip.op.request_s", "s", "lower", on("solve_s", "served_read"), nil},
	{"sip.op.prepare_s", "s", "lower", on("solve_s", "served_write"), nil},
	{"sip.op.barrier_s", "s", "lower", on("solve_s", "served_write"), nil},
	{"sip.op.collective_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.op.pardo_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.op.other_s", "s", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.instr_count", "count", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.instr_ns_mean", "ns", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"sip.gflops", "GFLOP/s", "higher", on("solve_s", "contract_inproc"), []string{"dispatch_inproc"}},

	// The paper's %wait and what feeds it.
	{"sip.wait_pct", "%", "lower", on("solve_s", "served_read", "comm_tcp"), []string{"contract_inproc", "dispatch_inproc"}},
	{"sip.worker.wait_p50_ns", "ns", "lower", on("solve_s", "served_read", "comm_tcp"), []string{"contract_inproc", "dispatch_inproc"}},
	{"sip.worker.wait_p99_ns", "ns", "lower", on("solve_s", "served_read", "comm_tcp"), []string{"contract_inproc", "dispatch_inproc"}},
	{"sip.worker.cache_hit_ratio", "ratio", "higher", on("solve_s", "comm_tcp", "served_read"), nil},
	{"sip.worker.fetches", "count", "lower", on("solve_s", "comm_tcp", "served_read"), nil},
	{"sip.worker.prefetches", "count", "higher", on("solve_s", "comm_tcp", "served_read"), nil},
	{"sip.worker.cache_evictions", "count", "lower", on("solve_s", "comm_tcp", "served_read"), nil},
	{"sip.worker.pool_reuse_ratio", "ratio", "higher", on("allocs_per_solve", solverWorkloads...), nil},
	{"sip.master.chunks", "count", "lower", on("solve_s", "dispatch_inproc"), []string{"contract_inproc"}},
	{"sip.master.iters", "count", "lower", on("solve_s", "dispatch_inproc"), []string{"contract_inproc"}},
	{"sip.master.chunk_wait_s", "s", "lower", on("solve_s", "dispatch_inproc"), []string{"contract_inproc"}},

	// The I/O-server layer.
	{"sip.server.cache_hit_ratio", "ratio", "higher", on("solve_s", "served_read"), serverless},
	{"sip.server.disk_reads", "count", "lower", on("solve_s", "served_read"), serverless},
	{"sip.server.disk_writes", "count", "lower", on("solve_s", "served_write"), serverless},
	{"sip.server.disk_read_us_mean", "us", "lower", on("solve_s", "served_read"), serverless},
	{"sip.server.disk_write_us_mean", "us", "lower", on("solve_s", "served_write"), serverless},
	{"sip.server.disk_s", "s", "lower", on("solve_s", "served_read", "served_write"), serverless},
	{"sip.server.cache_s", "s", "lower", on("solve_s", "served_read", "served_write"), serverless},

	// mpi, wire, transport.
	{"mpi.roundtrip_ns", "ns", "lower", on("solve_s", "comm_tcp", "dispatch_inproc"), []string{"contract_inproc"}},
	{"mpi.msgs_total", "count", "lower", on("solve_s", "comm_tcp", "dispatch_inproc"), []string{"contract_inproc"}},
	{"mpi.bytes_total", "B", "lower", on("solve_s", "comm_tcp"), []string{"contract_inproc"}},
	{"mpi.msgs_service", "count", "lower", on("solve_s", "comm_tcp"), []string{"contract_inproc"}},
	{"mpi.msgs_block_reply", "count", "lower", on("solve_s", "comm_tcp"), []string{"contract_inproc"}},
	{"mpi.msgs_chunk", "count", "lower", on("solve_s", "dispatch_inproc"), []string{"contract_inproc"}},
	{"mpi.qdepth_max", "count", "lower", on("solve_s", "comm_tcp", "dispatch_inproc"), []string{"contract_inproc"}},
	{"wire.encode_ns_block2k", "ns", "lower", on("solve_s", "comm_tcp"), inproc},
	{"wire.decode_ns_block2k", "ns", "lower", on("solve_s", "comm_tcp"), inproc},
	{"wire.codec_allocs_block2k", "count", "lower", on("allocs_per_solve", "comm_tcp"), inproc},
	{"transport.router_echo_ns_block2k", "ns", "lower", on("solve_s", "comm_tcp"), inproc},
	{"transport.tcp_echo_ns_block2k", "ns", "lower", on("solve_s", "comm_tcp"), inproc},
	{"transport.tcp_echo_allocs_block2k", "count", "lower", on("allocs_per_solve", "comm_tcp"), inproc},
	{"transport.frames_out", "count", "lower", on("solve_s", "comm_tcp"), inproc},
	{"transport.bytes_out", "B", "lower", on("solve_s", "comm_tcp"), inproc},
	{"transport.bytes_per_frame", "B", "higher", on("solve_s", "comm_tcp"), inproc},
	{"transport.inproc_solve_s", "s", "lower", on("solve_s", "comm_tcp"), inproc},

	// compiler, bytecode, dry run, serve: what a job pays around its run.
	{"compiler.compile_us", "us", "lower", cat(on("solve_s", "serve_jobs"), on("solves_per_s", "serve_jobs"), on("setup_s", solverWorkloads...)), nil},
	{"bytecode.resolve_us", "us", "lower", cat(on("solve_s", "serve_jobs"), on("setup_s", solverWorkloads...)), nil},
	{"sip.dryrun_us", "us", "lower", on("solve_s", "serve_jobs"), solverWorkloads},
	{"serve.queue_wait_p50_s", "s", "lower", on("solve_s", "serve_jobs"), solverWorkloads},
	{"serve.run_p50_s", "s", "lower", on("solve_s", "serve_jobs"), solverWorkloads},
	{"serve.submit_p50_s", "s", "lower", on("solve_s", "serve_jobs"), solverWorkloads},
	{"serve.job_p95_s", "s", "lower", on("solve_s", "serve_jobs"), solverWorkloads},
	{"serve.job_p95_samples", "count", "higher", on("solves_per_s", "serve_jobs"), solverWorkloads},
	{"serve.journal_x", "x", "lower", cat(on("solve_s", "serve_jobs"), on("solves_per_s", "serve_jobs")), solverWorkloads},
	{"serve.retries", "count", "lower", on("solve_s", "serve_jobs"), solverWorkloads},

	// The price of each shipped policy, as a ratio to the plain run.
	{"sip.ckpt.snapshots", "count", "lower", on("solve_s", "served_read"), nil},
	{"sip.ckpt.bytes", "B", "lower", on("solve_s", "served_read"), nil},
	{"sip.ckpt.duration_s", "s", "lower", on("solve_s", "served_read"), nil},
	{"policy.ckpt_x", "x", "lower", on("solve_s", "served_read"), nil},
	{"policy.recover_x", "x", "lower", on("solve_s", "served_read"), nil},
	{"policy.replicas2_x", "x", "lower", on("solve_s", "served_read"), nil},

	// Host calibration, the Go runtime, and the tracing overhead.
	{"fs.fsync_us_2k", "us", "lower", on("solve_s", "served_write", "serve_jobs"), serverless},
	{"machine.copy_gbps", "GB/s", "higher", on("solve_s", "contract_inproc"), nil},
	{"machine.nproc", "count", "higher", on("solve_s", solverWorkloads...), nil},
	{"go.peak_rss_mb", "MB", "lower", on("alloc_mb_per_solve", "contract_inproc", "dispatch_inproc"), nil},
	{"go.gc_cycles", "count", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"go.gc_pause_ms", "ms", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"obs.trace_overhead_x", "x", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"obs.trace_dropped", "count", "lower", on("solve_s", "dispatch_inproc"), nil},

	// The time budget: shares of ranks x solve_s, summing to 100.
	{"budget.compute_pct", "%", "higher", on("solve_s", "contract_inproc"), nil},
	{"budget.block_wait_pct", "%", "lower", on("solve_s", "served_read", "comm_tcp"), nil},
	{"budget.sync_wait_pct", "%", "lower", on("solve_s", "served_write"), nil},
	{"budget.sched_pct", "%", "lower", on("solve_s", "dispatch_inproc"), nil},
	{"budget.disk_pct", "%", "lower", on("solve_s", "served_read", "served_write"), nil},
	{"budget.other_pct", "%", "lower", on("solve_s", "dispatch_inproc", "serve_jobs"), nil},
}

// runSeconds is how long one run of one workload measures.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the tables above, in the
// shape the builder's contract prescribes.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads(false) {
		if meta := w.info(); meta.gated {
			doc.Workloads = append(doc.Workloads, wl{meta.name, meta.why})
		}
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
