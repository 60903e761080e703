// Command sial is the SIAL toolchain driver: it compiles SIAL source to
// SIA byte code, disassembles compiled programs, performs the SIP's
// dry-run memory analysis, and executes programs on an in-process SIP.
//
// Usage:
//
//	sial compile  prog.sial [-o prog.siox]
//	sial disasm   prog.sial|prog.siox
//	sial dryrun   prog.sial [-json] [-workers N] [-servers N] [-seg S] [-mem BYTES] [-param k=v ...]
//	sial run      prog.sial [-workers N] [-servers N] [-seg S] [-prefetch W] [-param k=v ...]
//	              [-profile] [-metrics] [-trace] [-trace-json out.json] [-trace-ranks all|N,M]
//	              [-transport inproc|tcp] [-rank N -peers host:port,...] [-launch]
//	              [-recv-timeout D] [-hb-interval D] [-hb-timeout D] [-fault-spec SPEC]
//	              [-recover] [-replicas K]
//	              [-scratch DIR] [-ckpt-interval N] [-ckpt-name S] [-resume]
//	              [-obs-addr host:port] [-flight-dir DIR]
//
// Compiled byte code uses the .siox suffix (serialized with the SIABC2
// container format).  -trace-json writes a Chrome trace-event file
// loadable in Perfetto (see docs/OBSERVABILITY.md).  Under -launch the
// file is the merged cluster trace: every rank ships its spans to the
// master, which aligns the per-rank clocks and correlates send/receive
// pairs with flow arrows.
// -obs-addr serves the live cluster view over HTTP (/metrics in
// Prometheus text format, /healthz membership, /trace merged trace) and
// -flight-dir dumps a post-mortem flight-recorder bundle when a rank
// dies or is evicted.
//
// By default `run` executes every SIP rank inside this process.  With
// `-transport tcp` each rank is a separate OS process: either start one
// process per rank by hand (`-rank N -peers ...`, see docs/TRANSPORT.md)
// or pass `-launch` to have this process spawn the whole rank set on
// localhost and merge their output.
//
// Multi-process runs detect failed peers by heartbeat (-hb-interval,
// -hb-timeout) and may bound every blocking protocol receive with
// -recv-timeout; -fault-spec injects transport faults for chaos testing
// (see docs/FAULTS.md for the failure semantics and the spec syntax).
// With -recover a detected worker failure evicts the rank and the run
// continues degraded on the survivors; without it any failure ends the
// run fail-fast.  Master death is always fatal, and so is I/O-server
// death unless -replicas K (K >= 2) keeps every served-array block on
// K servers: then a dead server is evicted too, reads fail over to the
// surviving replicas, and the next server barrier re-replicates
// under-replicated blocks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/sial"
	"repro/internal/sip"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: it dispatches the subcommand and
// returns the process exit code.
func realMain(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		usage(stderr)
		return 2
	}
	cmd := argv[0]
	var err error
	switch cmd {
	case "serve":
		// serve and submit take no program file: serve is a daemon,
		// submit may name a pack instead of a file.
		err = doServe(argv[1:], stdout)
	case "submit":
		err = doSubmit(argv[1:], stdout)
	case "compile", "disasm", "dryrun", "run":
		if len(argv) < 2 {
			usage(stderr)
			return 2
		}
		file := argv[1]
		args := argv[2:]
		switch cmd {
		case "compile":
			err = doCompile(file, args, stdout)
		case "disasm":
			err = doDisasm(file, stdout)
		case "dryrun":
			err = doDryRun(file, args, stdout)
		case "run":
			err = doRun(file, args, stdout)
		}
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "sial:") {
			msg = "sial: " + msg
		}
		fmt.Fprintln(stderr, msg)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  sial compile prog.sial [-o out.siox]
  sial disasm  prog.sial|prog.siox
  sial dryrun  prog.sial [-json] [flags]
  sial run     prog.sial [flags]
  sial serve   [-addr host:port] [-workers N -servers N -spares N] [-recover -replicas K]
               [-max-concurrent N -mem BYTES -queue-cap N -burst N]
               [-journal-dir DIR -scratch DIR -ckpt-interval N] (see docs/SERVE.md)
  sial submit  [prog.sial] [-addr host:port] [-pack name] [-param k=v] [-name s] [-wait]
run/dryrun flags: -workers N -servers N -seg S -prefetch W -mem BYTES -param k=v -profile
run flags:        -metrics -trace -trace-json out.json -trace-ranks all|N,M
run transports:   -transport inproc|tcp -rank N -peers host:port,... -launch
run faults:       -recv-timeout D -hb-interval D -hb-timeout D -fault-spec SPEC -recover -replicas K
run checkpoints:  -scratch DIR -ckpt-interval N -ckpt-name S -resume (see docs/FAULTS.md)
run obs plane:    -obs-addr host:port -flight-dir DIR (see docs/OBSERVABILITY.md)`)
}

// load reads a program from SIAL source or compiled byte code.
func load(file string) (*core.Program, error) {
	if strings.HasSuffix(file, ".siox") {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bytecode.Read(f)
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	prog, err := core.Compile(string(src))
	if err != nil {
		// Render front-end errors with the offending source line.
		return nil, fmt.Errorf("%s", sial.ErrorWithContext(string(src), err))
	}
	return prog, nil
}

func doCompile(file string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("o", "", "output file (default: input with .siox suffix)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(file)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(file, ".sial") + ".siox"
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := prog.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "compiled %s -> %s (%d instructions)\n", file, dst, len(prog.Code))
	return nil
}

func doDisasm(file string, stdout io.Writer) error {
	prog, err := load(file)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, prog.Disassemble())
	return nil
}

// runFlags parses the shared run/dryrun flag set.
type runFlags struct {
	cfg       core.Config
	mem       int64
	asJSON    bool // dryrun: emit the report as JSON
	prof      bool
	metrics   bool
	reg       *obs.Registry
	tracer    *obs.Tracer
	traceJSON string

	// run-only observability plane (see docs/OBSERVABILITY.md).
	obsShip   bool            // ship telemetry to the master's aggregator
	obsAddr   string          // rank-0 live HTTP endpoint (/metrics /healthz /trace)
	flightDir string          // flight-recorder bundle directory
	agg       *obs.Aggregator // rank-0 (or single-process) merge sink

	// run-only transport selection (see docs/TRANSPORT.md).
	transport string   // "inproc" or "tcp"
	rank      int      // this process's world rank under tcp, -1 unset
	peers     []string // host:port per world rank under tcp
	launch    bool     // spawn one process per rank on localhost

	// run-only failure detection and fault injection (see docs/FAULTS.md).
	hbInterval time.Duration       // heartbeat interval under tcp (0 disables liveness)
	hbTimeout  time.Duration       // silence bound before a rank is declared dead
	faultSpec  transport.FaultSpec // injected transport faults (chaos testing)
	recover    bool                // survive worker failures (Config.Recover)
}

func parseRunFlags(name string, args []string) (*runFlags, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	workers := fs.Int("workers", 4, "number of SIP workers")
	servers := fs.Int("servers", 1, "number of I/O servers")
	seg := fs.Int("seg", 4, "segment size")
	prefetch := fs.Int("prefetch", sip.DefaultPrefetchWindow, "look-ahead window: how many do-loop iterations ahead get/request fetch their blocks, bounded by half the block cache (0 = off)")
	mem := fs.Int64("mem", 0, "per-worker memory budget in bytes for dry run (0 = unlimited)")
	prof := fs.Bool("profile", false, "print the SIP profile after the run")
	trace := fs.Bool("trace", false, "text-trace every instruction executed by traced workers")
	traceJSON := fs.String("trace-json", "", "write per-rank spans as Chrome trace-event JSON to this file")
	traceRanks := fs.String("trace-ranks", "all", "ranks to trace: all, or comma-separated world ranks (e.g. 1,2)")
	metrics := fs.Bool("metrics", false, "collect and print the metrics snapshot after the run")
	var params paramList
	fs.Var(&params, "param", "parameter assignment k=v (repeatable)")
	var transportName *string
	var rank *int
	var peers *string
	var launch *bool
	var recvTimeout, hbInterval, hbTimeout *time.Duration
	var faultSpec *string
	var recoverRun *bool
	var replicas *int
	var obsShip *bool
	var obsAddr, flightDir *string
	var scratch, ckptName *string
	var ckptInterval *int
	var resume *bool
	var asJSON *bool
	if name == "dryrun" {
		asJSON = fs.Bool("json", false, "emit the dry-run report as JSON (what sial serve charges jobs against at admission)")
	}
	if name == "run" {
		transportName = fs.String("transport", "inproc", "message transport: inproc (single process) or tcp (one process per rank)")
		rank = fs.Int("rank", -1, "this process's world rank (with -transport tcp)")
		peers = fs.String("peers", "", "comma-separated host:port, one per world rank (with -transport tcp)")
		launch = fs.Bool("launch", false, "spawn one process per rank on localhost over tcp and merge their output")
		recvTimeout = fs.Duration("recv-timeout", 0, "bound every blocking protocol receive (0 = wait forever)")
		hbInterval = fs.Duration("hb-interval", time.Second, "heartbeat interval for failure detection under tcp (0 disables)")
		hbTimeout = fs.Duration("hb-timeout", 0, "silence bound before a rank is declared dead (default 8x interval)")
		faultSpec = fs.String("fault-spec", "", "inject transport faults, e.g. 'seed=7;drop=0.1;kill=3@100' (see docs/FAULTS.md)")
		recoverRun = fs.Bool("recover", false, "survive worker-rank failures: evict the dead rank, re-run its work on the survivors (see docs/FAULTS.md)")
		replicas = fs.Int("replicas", 1, "I/O servers holding each served-array block; with -recover and >= 2, server deaths are survivable too (see docs/FAULTS.md)")
		obsShip = fs.Bool("obs-ship", false, "ship telemetry to the master's aggregator over the obs plane (tcp ranks; -launch sets this itself)")
		obsAddr = fs.String("obs-addr", "", "serve live observability HTTP on this address: /metrics /healthz /trace (rank 0)")
		flightDir = fs.String("flight-dir", "", "write flight-recorder bundles (post-mortem metrics and spans) to this directory when a rank dies")
		scratch = fs.String("scratch", "", "served-array scratch and checkpoint directory (default: a private temp dir; checkpointing needs a durable one)")
		ckptInterval = fs.Int("ckpt-interval", 0, "snapshot the run every N completed pardo chunks and at every sync point (0 disables, see docs/FAULTS.md)")
		ckptName = fs.String("ckpt-name", "job", "snapshot directory name under <scratch>/ckpt/")
		resume = fs.Bool("resume", false, "resume from the newest valid snapshot under -ckpt-name instead of starting fresh")
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	rf := &runFlags{mem: *mem, prof: *prof, metrics: *metrics, traceJSON: *traceJSON,
		transport: "inproc", rank: -1}
	if asJSON != nil {
		rf.asJSON = *asJSON
	}
	if name == "run" {
		rf.transport, rf.rank, rf.launch = *transportName, *rank, *launch
		if *peers != "" {
			for _, p := range strings.Split(*peers, ",") {
				rf.peers = append(rf.peers, strings.TrimSpace(p))
			}
		}
		rf.hbInterval, rf.hbTimeout = *hbInterval, *hbTimeout
		rf.recover = *recoverRun
		rf.obsShip, rf.obsAddr = *obsShip, *obsAddr
		rf.flightDir = *flightDir
		var err error
		if rf.faultSpec, err = transport.ParseFaultSpec(*faultSpec); err != nil {
			return nil, err
		}
		if err := rf.validateTransport(); err != nil {
			return nil, err
		}
	}
	super := chem.MP2Super()
	for name, fn := range chem.TriplesSuper() {
		super[name] = fn
	}
	if *prefetch <= 0 {
		*prefetch = -1 // Config's zero value means the default window
	}
	rf.cfg = core.Config{
		Workers:        *workers,
		Servers:        *servers,
		Seg:            core.DefaultSegConfig(*seg),
		PrefetchWindow: *prefetch,
		Params:         params.vals,
		Integrals:      chem.AOIntegrals(),
		Super:          super,
	}
	if recvTimeout != nil {
		rf.cfg.RecvTimeout = *recvTimeout
	}
	rf.cfg.Recover = rf.recover
	if replicas != nil {
		rf.cfg.Replicas = *replicas
	}
	if scratch != nil {
		rf.cfg.ScratchDir = *scratch
		rf.cfg.CkptInterval = *ckptInterval
		rf.cfg.CkptName = *ckptName
		rf.cfg.Resume = *resume
	}
	ranks, err := parseRanks(*traceRanks)
	if err != nil {
		return nil, err
	}
	// The observability plane needs both telemetry sources regardless of
	// -trace-json/-metrics: shipped reports and the live endpoint carry
	// spans and metrics from every rank.
	plane := rf.obsShip || rf.obsAddr != "" || rf.flightDir != ""
	// One tracer, filtered by -trace-ranks, writes the -trace text lines
	// and records the spans; with -trace alone nothing reads its spans,
	// so its ring is the smallest.
	spans := rf.traceJSON != "" || plane
	if *trace || spans {
		tc := obs.TracerConfig{Ranks: ranks}
		if *trace {
			tc.Text = os.Stderr
		}
		if !spans {
			tc.Capacity = 1
		}
		rf.tracer = obs.NewTracer(tc)
		rf.cfg.Tracer = rf.tracer
	}
	if rf.metrics || plane {
		rf.reg = obs.NewRegistry()
		rf.cfg.Metrics = rf.reg
	}
	rf.cfg.ObsShip = rf.obsShip
	return rf, nil
}

// validateTransport checks the -transport/-rank/-peers/-launch flag
// combination before any work starts, so misuse fails fast with a
// message instead of a hung dial loop.
func (rf *runFlags) validateTransport() error {
	switch rf.transport {
	case "inproc", "tcp":
	default:
		return fmt.Errorf("bad -transport %q, want inproc or tcp", rf.transport)
	}
	if rf.launch {
		rf.transport = "tcp" // -launch implies the tcp transport
		if rf.rank >= 0 || len(rf.peers) > 0 {
			return fmt.Errorf("-launch assigns ranks and ports itself; drop -rank/-peers")
		}
		if rf.obsShip {
			return fmt.Errorf("-launch manages -obs-ship itself; drop it")
		}
		return nil
	}
	if rf.transport == "inproc" {
		if rf.rank >= 0 || len(rf.peers) > 0 {
			return fmt.Errorf("-rank/-peers require -transport tcp")
		}
		if rf.faultSpec.Active() {
			return fmt.Errorf("-fault-spec injects transport faults; it requires -transport tcp or -launch")
		}
		if rf.obsShip {
			return fmt.Errorf("-obs-ship ships telemetry between processes; it requires -transport tcp or -launch")
		}
		return nil
	}
	if rf.rank < 0 || len(rf.peers) == 0 {
		return fmt.Errorf("-transport tcp needs -rank and -peers (or use -launch to spawn all ranks locally)")
	}
	return nil
}

// parseRanks interprets a -trace-ranks value: "all" (or empty) selects
// every rank; otherwise a comma-separated list of world ranks.
func parseRanks(s string) ([]int, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var ranks []int
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -trace-ranks %q: %v", s, err)
		}
		ranks = append(ranks, r)
	}
	return ranks, nil
}

type paramList struct{ vals map[string]int }

func (p *paramList) String() string { return fmt.Sprint(p.vals) }

func (p *paramList) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("bad -param %q, want k=v", s)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("bad -param value %q: %v", v, err)
	}
	if p.vals == nil {
		p.vals = map[string]int{}
	}
	p.vals[k] = n
	return nil
}

func doDryRun(file string, args []string, stdout io.Writer) error {
	rf, err := parseRunFlags("dryrun", args)
	if err != nil {
		return err
	}
	prog, err := load(file)
	if err != nil {
		return err
	}
	report, err := core.DryRun(prog, rf.cfg, rf.mem)
	if err != nil {
		return err
	}
	if rf.asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, report)
	}
	if !report.Feasible {
		return fmt.Errorf("computation infeasible within the memory budget")
	}
	return nil
}

func doRun(file string, args []string, stdout io.Writer) error {
	rf, err := parseRunFlags("run", args)
	if err != nil {
		return err
	}
	if rf.launch {
		return doLaunch(file, args, rf, stdout)
	}
	if rf.transport == "tcp" {
		return runDistributed(file, rf, stdout)
	}
	prog, err := load(file)
	if err != nil {
		return err
	}
	rf.cfg.Output = stdout
	// Every rank shares this process's tracer and registry, so the
	// aggregator over them is the whole-cluster view, and no world is at
	// hand to report evictions.
	stop, err := rf.startObs(sip.NewRanks(rf.cfg), nil, stdout)
	if err != nil {
		return err
	}
	defer stop()
	res, err := core.Run(prog, rf.cfg)
	if err != nil {
		return err
	}
	return printResult(rf, res, stdout)
}

// startObs sets up rank 0's observability when the plane is on
// (-obs-ship, -obs-addr or -flight-dir): an aggregator over this process's
// tracer and registry, which is also the flight recorder, and with
// -obs-addr the live HTTP endpoint for a world laid out as ranks, whose
// /healthz reports evicted (nil: no eviction view).  stop closes the
// endpoint.
func (rf *runFlags) startObs(ranks sip.Ranks, evicted func() map[int]string, stdout io.Writer) (stop func(), err error) {
	stop = func() {}
	if !rf.obsShip && rf.obsAddr == "" && rf.flightDir == "" {
		return stop, nil
	}
	rf.agg = obs.NewAggregator(0, "master", rf.tracer, rf.reg)
	rf.agg.SetFlightRecorder(rf.flightDir)
	rf.cfg.ObsAgg = rf.agg
	if rf.obsAddr == "" {
		return stop, nil
	}
	srv, err := startObsServer(rf.obsAddr, rf.agg, ranks.Size(), evicted)
	if err != nil {
		return stop, fmt.Errorf("-obs-addr: %v", err)
	}
	fmt.Fprintf(stdout, "observability endpoint on http://%s (/metrics /healthz /trace)\n", srv.Addr())
	return srv.Close, nil
}

// printResult renders a run's scalars, profile, metrics, and trace file
// according to the flags.  Distributed ranks may carry a nil Profile
// (only the master folds a metrics snapshot in); that just skips the
// report.
func printResult(rf *runFlags, res *core.Result, stdout io.Writer) error {
	if len(res.Scalars) > 0 {
		names := make([]string, 0, len(res.Scalars))
		for name := range res.Scalars {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "scalars:")
		for _, name := range names {
			fmt.Fprintf(stdout, "  %s = %.12g\n", name, res.Scalars[name])
		}
	}
	if rf.prof && res.Profile != nil {
		fmt.Fprint(stdout, res.Profile)
	}
	if rf.metrics && !rf.prof && res.Profile != nil {
		// -profile already folds the snapshot into the profile report.
		fmt.Fprint(stdout, res.Profile.Metrics)
	}
	if rf.traceJSON != "" {
		f, err := os.Create(rf.traceJSON)
		if err != nil {
			return err
		}
		// With an aggregator the file is the merged cluster trace (every
		// reported rank on one clock-aligned timeline); otherwise it
		// carries this process's spans only.
		werr := error(nil)
		if rf.agg != nil {
			werr = rf.agg.WriteMergedChrome(f)
		} else {
			werr = rf.tracer.WriteChrome(f)
		}
		if werr != nil {
			f.Close()
			return werr
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s (open in https://ui.perfetto.dev)\n", rf.traceJSON)
	}
	if rf.metrics && rf.agg != nil {
		if rep := rf.agg.WaitReport(); rep != "" {
			fmt.Fprint(stdout, rep)
		}
	}
	return nil
}

// runDistributed plays one world rank of a multi-process run: it binds
// this rank's listener, connects to the peers on demand, and drives
// sip.RunRank.  Every process of the run must be started with the same
// program, -workers/-servers/-seg/-param set, and -peers list.
func runDistributed(file string, rf *runFlags, stdout io.Writer) error {
	prog, err := load(file)
	if err != nil {
		return err
	}
	ranks := sip.NewRanks(rf.cfg)
	if len(rf.peers) != ranks.Size() {
		return fmt.Errorf("-peers lists %d addresses, config needs %d (1 master + %d workers + %d servers)",
			len(rf.peers), ranks.Size(), rf.cfg.Workers, rf.cfg.Servers)
	}
	if rf.rank < 0 || rf.rank >= ranks.Size() {
		return fmt.Errorf("-rank %d out of range [0,%d)", rf.rank, ranks.Size())
	}
	tcfg := transport.TCPConfig{Rank: rf.rank, Addrs: rf.peers}
	if rf.reg != nil {
		tcfg.Observer = sip.NewNetObserver(rf.reg)
	}
	var tr transport.Transport
	tr, err = transport.NewTCP(tcfg)
	if err != nil {
		return err
	}
	if rf.faultSpec.Active() {
		fmt.Fprintf(os.Stderr, "sial: rank %d: injecting faults: %s\n", rf.rank, rf.faultSpec)
		tr = transport.NewFault(tr, []int{rf.rank}, rf.faultSpec, sip.FaultEvents(rf.reg))
	}
	world, err := mpi.NewDistributedWorld(ranks.Size(), []int{rf.rank}, tr)
	if err != nil {
		tr.Close()
		return err
	}
	defer world.Close()
	if rf.hbInterval > 0 {
		lv := mpi.Liveness{Interval: rf.hbInterval, Timeout: rf.hbTimeout}
		lv.OnDown = func(rank int, reason string) {
			fmt.Fprintf(os.Stderr, "sial: rank %d: detected failure of %s (rank %d): %s\n",
				rf.rank, ranks.Role(rank), rank, reason)
			if rf.reg != nil {
				rf.reg.Counter(fmt.Sprintf("fault.rank_down.rank%d", rank)).Inc()
			}
		}
		if err := world.StartLiveness(lv); err != nil {
			return err
		}
	}
	if rf.rank == 0 {
		stop, err := rf.startObs(ranks, world.Evicted, stdout)
		if err != nil {
			return err
		}
		defer stop()
	}
	rf.cfg.Output = stdout
	res, err := sip.RunRank(prog, rf.cfg, world, rf.rank)
	if err != nil {
		return err
	}
	if rf.rank != 0 {
		// The master's Result carries the authoritative scalars; a
		// worker's are its local partial view, so don't echo them.
		res.Scalars = nil
	}
	return printResult(rf, res, stdout)
}

// doLaunch runs a whole multi-process SIP on localhost: it reserves one
// loopback port per rank, spawns one child process per rank (re-running
// this binary with -transport tcp -rank N -peers ...), merges the
// children's output line by line under a [role] prefix, and fails if
// any child exits non-zero.
func doLaunch(file string, args []string, rf *runFlags, stdout io.Writer) error {
	ranks := sip.NewRanks(rf.cfg)
	addrs, err := reservePorts(ranks.Size())
	if err != nil {
		return fmt.Errorf("launch: %v", err)
	}
	exe := os.Getenv("SIAL_LAUNCH_EXE")
	if exe == "" {
		if exe, err = os.Executable(); err != nil {
			return fmt.Errorf("launch: %v", err)
		}
	}
	// Children re-parse the original flags, minus the launch/transport
	// selection and the observability flags doLaunch reassigns itself,
	// plus their own rank assignment.
	base := stripFlag(stripFlag(args, "launch", false), "transport", true)
	for _, f := range []struct {
		name     string
		hasValue bool
	}{{"trace-json", true}, {"obs-addr", true}, {"flight-dir", true}, {"obs-ship", false}} {
		base = stripFlag(base, f.name, f.hasValue)
	}
	// Streaming mode (the default with -trace-json): every rank ships
	// telemetry to rank 0, which writes the single merged trace.  The
	// plane also runs for -obs-addr and -flight-dir alone.
	stream := rf.traceJSON != ""
	obsPlane := stream || rf.obsAddr != "" || rf.flightDir != ""
	peers := strings.Join(addrs, ",")

	var mu sync.Mutex // serializes merged output lines
	var relays sync.WaitGroup
	cmds := make([]*exec.Cmd, 0, ranks.Size())
	for rank := 0; rank < ranks.Size(); rank++ {
		childArgs := append([]string{"run", file}, base...)
		childArgs = append(childArgs, "-transport", "tcp", "-rank", strconv.Itoa(rank), "-peers", peers)
		if obsPlane {
			childArgs = append(childArgs, "-obs-ship")
		}
		if rank == 0 {
			if stream {
				childArgs = append(childArgs, "-trace-json", rf.traceJSON)
			}
			if rf.obsAddr != "" {
				childArgs = append(childArgs, "-obs-addr", rf.obsAddr)
			}
			if rf.flightDir != "" {
				childArgs = append(childArgs, "-flight-dir", rf.flightDir)
			}
		}
		cmd := exec.Command(exe, childArgs...)
		// SIAL_CHILD_MAIN lets a test binary standing in for the real
		// CLI (via SIAL_LAUNCH_EXE or os.Executable) reroute into
		// realMain instead of the test runner.
		cmd.Env = append(os.Environ(), "SIAL_CHILD_MAIN=1")
		tag := fmt.Sprintf("[%s] ", ranks.Role(rank))
		outPipe, err := cmd.StdoutPipe()
		if err != nil {
			killAll(cmds)
			return fmt.Errorf("launch: %v", err)
		}
		errPipe, err := cmd.StderrPipe()
		if err != nil {
			killAll(cmds)
			return fmt.Errorf("launch: %v", err)
		}
		if err := cmd.Start(); err != nil {
			killAll(cmds)
			return fmt.Errorf("launch: start %s: %v", ranks.Role(rank), err)
		}
		relay(&relays, &mu, stdout, tag, outPipe)
		relay(&relays, &mu, stdout, tag, errPipe)
		cmds = append(cmds, cmd)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM is forwarded to every
	// rank so they can die on their own terms while we keep draining
	// their output; a second signal kills them outright.  Installed only
	// now, with all children started, so the slice is stable.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	var sigMu sync.Mutex
	var gotSig os.Signal
	go func() {
		forwarded := false
		for s := range sigc {
			if !forwarded {
				forwarded = true
				sigMu.Lock()
				gotSig = s
				sigMu.Unlock()
				fmt.Fprintf(os.Stderr, "sial: launch: %v: forwarding to %d ranks and draining\n", s, len(cmds))
				for _, cmd := range cmds {
					cmd.Process.Signal(s)
				}
				continue
			}
			fmt.Fprintln(os.Stderr, "sial: launch: second signal: killing ranks")
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
		}
	}()

	// All reads must finish before Wait (it closes the pipes).
	relays.Wait()
	waitErrs := make([]error, len(cmds))
	for rank, cmd := range cmds {
		waitErrs[rank] = cmd.Wait()
	}
	sigMu.Lock()
	sig := gotSig
	sigMu.Unlock()
	if sig != nil {
		// The run was interrupted: attribute the exit to the signal, not
		// to whichever rank's death happened to surface first.
		failed := 0
		for _, err := range waitErrs {
			if err != nil {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("launch: run terminated by %v; %d of %d ranks exited non-zero after drain",
				sig, failed, len(waitErrs))
		}
		fmt.Fprintf(os.Stderr, "sial: launch: all ranks drained cleanly after %v\n", sig)
		return nil
	}
	for rank, err := range waitErrs {
		if err == nil {
			continue
		}
		if rf.recover && rank != 0 && waitErrs[0] == nil {
			// Under -recover the master's exit status decides the run: a
			// dead (or killed) worker is the failure mode the run just
			// survived, so report it without failing the launch.
			fmt.Fprintf(os.Stderr, "sial: launch: %s exited non-zero (%v); run completed degraded without it\n",
				ranks.Role(rank), err)
			continue
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return fmt.Errorf("launch: %s exited with status %d", ranks.Role(rank), ee.ExitCode())
		}
		return fmt.Errorf("launch: %s: %v", ranks.Role(rank), err)
	}
	return nil
}

// reservePorts picks n free loopback ports by binding and immediately
// releasing them.  The children re-bind; the window between release and
// re-bind is racy in principle, but the ports were kernel-assigned
// moments ago and the dial retry loop absorbs slow starters.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// stripFlag removes -name (or --name, -name=v, and the separate value
// when takesValue) from a raw argument list.
func stripFlag(args []string, name string, takesValue bool) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		bare := strings.TrimLeft(a, "-")
		if len(bare) < len(a) { // a flag token
			if bare == name {
				if takesValue && i+1 < len(args) {
					i++
				}
				continue
			}
			if strings.HasPrefix(bare, name+"=") {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// relay copies one child stream to the merged output, one prefixed line
// at a time so ranks never interleave mid-line.
func relay(wg *sync.WaitGroup, mu *sync.Mutex, w io.Writer, tag string, r io.Reader) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			mu.Lock()
			fmt.Fprintf(w, "%s%s\n", tag, sc.Text())
			mu.Unlock()
		}
	}()
}

// killAll tears down already-started children after a launch failure.
func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		cmd.Process.Kill()
		cmd.Wait()
	}
}
