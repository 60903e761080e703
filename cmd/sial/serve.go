package main

// The `sial serve` / `sial submit` verbs: a persistent multi-tenant SIP
// pool behind an HTTP/JSON front door, and its submission client.  See
// docs/SERVE.md.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/chem"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sip"
)

// doServe runs the persistent job service until SIGINT/SIGTERM: an
// elastic in-process SIP pool (workers, I/O servers, latent spares)
// accepting compiled SIAL programs over the observability HTTP server,
// which doubles as the job front door (POST /submit, GET /jobs, admin
// kill/join — see docs/SERVE.md).
func doServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8765", "HTTP front door and observability address")
	workers := fs.Int("workers", 4, "pool worker ranks")
	servers := fs.Int("servers", 1, "pool I/O-server ranks")
	spares := fs.Int("spares", 0, "latent spare ranks joinable via POST /admin/join")
	recoverServe := fs.Bool("recover", false, "survive worker-rank failures mid-job (see docs/FAULTS.md)")
	replicas := fs.Int("replicas", 1, "I/O servers holding each served-array block; >= 2 with -recover survives server kills")
	maxConc := fs.Int("max-concurrent", 4, "jobs running simultaneously")
	mem := fs.Int64("mem", 0, "per-worker memory budget in bytes shared by running jobs (0 = unlimited)")
	queueCap := fs.Int("queue-cap", 256, "queued-job limit; further submissions are rejected")
	burst := fs.Int64("burst", 4, "chunk-dispatch lead one job may hold over the slowest active job")
	seg := fs.Int("seg", 4, "default segment size for submissions that set none")
	scratch := fs.String("scratch", "", "served-array scratch directory (default: a private temp dir)")
	journalDir := fs.String("journal-dir", "", "write-ahead job journal directory: submissions survive a crash/restart (empty = in-memory only)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long running jobs may finish before being requeued to the journal")
	historyLimit := fs.Int("history-limit", 1000, "terminal jobs kept fully in memory; older ones shrink to id/state stubs (journal keeps the full record; <0 = unlimited)")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted POST /submit body in bytes")
	ckptInterval := fs.Int("ckpt-interval", 0, "snapshot running jobs every N completed pardo chunks; drained jobs resume from their snapshots after a restart (needs -scratch and -journal-dir; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tracer := obs.NewTracer(obs.TracerConfig{})
	reg := obs.NewRegistry()
	svc, err := serve.New(serve.Config{
		Pool: sip.PoolConfig{
			Workers:    *workers,
			Servers:    *servers,
			Spares:     *spares,
			Replicas:   *replicas,
			Recover:    *recoverServe,
			ScratchDir: *scratch,
			Output:     stdout,
			Metrics:    reg,
			Tracer:     tracer,
		},
		MaxConcurrent: *maxConc,
		MemBudget:     *mem,
		QueueCap:      *queueCap,
		DefaultSeg:    *seg,
		Burst:         *burst,
		JobMetrics:    true,
		JournalDir:    *journalDir,
		HistoryLimit:  *historyLimit,
		MaxBody:       *maxBody,
		CkptInterval:  *ckptInterval,
		Warn: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	registerChemPacks(svc)
	// Resume after the packs exist (journal-replayed jobs may reference
	// them, and resubmission recompiles from the original request) and
	// before the front door opens (client retries must dedup against the
	// replayed jobs, never race them).
	resumed := 0
	if *journalDir != "" {
		if resumed, err = svc.Resume(); err != nil {
			svc.Close()
			return fmt.Errorf("journal replay: %v", err)
		}
	}

	// The pool is in-process: every rank shares the tracer and registry,
	// so an aggregator over the local sources is the whole-pool view.
	agg := obs.NewAggregator(0, "master", tracer, reg)
	srv, err := startObsServer(*addr, agg, svc.Pool().Ranks().Size(), svc.Pool().Evicted, svc.Register)
	if err != nil {
		svc.Close()
		return fmt.Errorf("-addr: %v", err)
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "serving on http://%s (/submit /jobs /packs /metrics /healthz /trace)\n", srv.Addr())
	fmt.Fprintf(stdout, "pool: %d workers, %d servers, %d spares, replicas=%d, recover=%v\n",
		*workers, *servers, *spares, *replicas, *recoverServe)
	if *ckptInterval > 0 {
		fmt.Fprintf(stdout, "checkpointing: every %d chunks\n", *ckptInterval)
	}
	if resumed > 0 {
		fmt.Fprintf(stdout, "journal: resubmitted %d interrupted job(s) from %s\n", resumed, *journalDir)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	sig := <-sigc
	fmt.Fprintf(stdout, "%v: draining jobs and shutting down the pool (up to %v; signal again to cut the drain short)\n", sig, *drainTimeout)
	// A second signal cuts the drain window to zero: running jobs are
	// requeued to the journal immediately instead of finishing.
	drained := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(stdout, "%v: drain cut short, requeueing running jobs\n", sig)
			svc.DrainNow()
		case <-drained:
		}
	}()
	finished, requeued := svc.Drain(*drainTimeout)
	close(drained)
	if finished > 0 || requeued > 0 {
		fmt.Fprintf(stdout, "drain: %d job(s) finished, %d requeued to the journal\n", finished, requeued)
	}
	return svc.Close()
}

// registerChemPacks mounts the chemistry workloads on a service so
// clients can submit `{"pack": "mp2"}` without shipping source.
func registerChemPacks(svc *serve.Service) {
	svc.RegisterPack("mp2", serve.Pack{
		Source:      chem.MP2EnergyProgram(),
		Description: "MP2 correlation energy (params: no, nv)",
		Env: func(params map[string]int) serve.Env {
			no := params["no"]
			if no == 0 {
				no = 2 // the program's own default
			}
			super := chem.MP2Super()
			for name, fn := range chem.TriplesSuper() {
				super[name] = fn
			}
			return serve.Env{Super: super, Integrals: chem.MOIntegrals(no)}
		},
	})
	svc.RegisterPack("mp2_served", serve.Pack{
		Source:      chem.MP2ServedProgram(),
		Description: "MP2 energy staged through served arrays (params: no, nv) — checkpointable mid-program",
		Env: func(params map[string]int) serve.Env {
			no := params["no"]
			if no == 0 {
				no = 2
			}
			super := chem.MP2Super()
			for name, fn := range chem.TriplesSuper() {
				super[name] = fn
			}
			return serve.Env{Super: super, Integrals: chem.MOIntegrals(no)}
		},
	})
	svc.RegisterPack("scf", serve.Pack{
		Source:      chem.FockBuildProgram(),
		Description: "closed-shell Fock build from a model density (param: norb)",
		Env: func(params map[string]int) serve.Env {
			return serve.Env{
				Preset:    map[string]sip.PresetFunc{"Dn": chem.PresetFromElem(chem.ModelDensity)},
				Integrals: chem.AOIntegrals(),
			}
		},
	})
}

// doSubmit posts one job to a running `sial serve` and, with -wait,
// polls it to completion and prints its scalars.
func doSubmit(args []string, stdout io.Writer) error {
	var file string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8765", "address of the running sial serve")
	pack := fs.String("pack", "", "registered pack to run (its source is used when no file is given)")
	name := fs.String("name", "", "job label shown in /jobs")
	seg := fs.Int("seg", 0, "segment size (0 = server default)")
	gather := fs.Bool("gather", false, "collect array contents into the job result")
	wait := fs.Bool("wait", true, "poll the job to completion and print its scalars")
	key := fs.String("key", "", "idempotency key: retries (even across a server restart) return the original job")
	deadline := fs.Duration("deadline", 0, "job deadline from submission; past it the job lands in state timeout (0 = none)")
	var params paramList
	fs.Var(&params, "param", "parameter assignment k=v (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := serve.SubmitRequest{
		Name: *name, Pack: *pack, Params: params.vals, Seg: *seg, Gather: *gather,
		IdempotencyKey: *key, Deadline: serve.Duration(*deadline),
	}
	switch {
	case file == "" && *pack == "":
		return fmt.Errorf("submit needs a prog.sial argument or -pack")
	case file != "":
		if strings.HasSuffix(file, ".siox") {
			return fmt.Errorf("submit ships SIAL source; pass the .sial file (the server compiles it)")
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		req.Source = string(src)
	}

	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	base := "http://" + *addr
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %v", err)
	}
	var st serve.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	// 202: accepted.  200: an idempotency-key retry matched an existing
	// job — same logical submission, keep polling it.
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		if decErr == nil && st.Error != "" {
			return fmt.Errorf("submit rejected (%s): %s", resp.Status, st.Error)
		}
		return fmt.Errorf("submit rejected: %s", resp.Status)
	}
	if decErr != nil {
		return fmt.Errorf("submit: bad reply: %v", decErr)
	}
	if resp.StatusCode == http.StatusOK {
		fmt.Fprintf(stdout, "job %d (%s) %s (deduplicated by idempotency key)\n", st.ID, st.Name, st.State)
	} else {
		fmt.Fprintf(stdout, "job %d (%s) %s, %d B/worker\n", st.ID, st.Name, st.State, st.PerWorkerBytes)
	}
	if !*wait {
		return nil
	}

	lastEpoch, sawResume := st.CkptEpoch, false
	for !st.Terminal() {
		time.Sleep(200 * time.Millisecond)
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, st.ID))
		if err != nil {
			return fmt.Errorf("poll job %d: %v", st.ID, err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			return fmt.Errorf("poll job %d: bad reply: %v", st.ID, err)
		}
		if st.Resumed && !sawResume {
			sawResume = true
			fmt.Fprintf(stdout, "job %d resumed from snapshot epoch %d\n", st.ID, st.CkptEpoch)
		}
		if st.CkptEpoch > lastEpoch {
			lastEpoch = st.CkptEpoch
			fmt.Fprintf(stdout, "job %d snapshot epoch %d (%d B)\n", st.ID, st.CkptEpoch, st.CkptBytes)
		}
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %d %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintf(stdout, "job %d done in %s\n", st.ID, st.Finished.Sub(st.Started).Round(time.Millisecond))
	if len(st.Scalars) > 0 {
		names := make([]string, 0, len(st.Scalars))
		for n := range st.Scalars {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "scalars:")
		for _, n := range names {
			fmt.Fprintf(stdout, "  %s = %.12g\n", n, st.Scalars[n])
		}
	}
	return nil
}
