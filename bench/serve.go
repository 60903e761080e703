package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sip"
)

// serveJobs is the service workload: a closed loop of clients, each
// Submit -> Wait -> next as `sial submit -wait` callers do, against a
// serve.Service.  Jobs are tiny, so the service layer — compile and
// dry-run admission per job, the fairness gate, tag-window and namespace
// set-up and teardown — carries the run.  The write-ahead journal (three
// fsync'd events per job) is the "journal" variant, a side run of the
// traced pass: with it on, a job's latency is set by the scratch
// device's fsync latency, which does not repeat within any bound on the
// reference host.
type serveJobs struct {
	meta  info
	kinds []jobKind
	order []int // job i is of kind order[i%len(order)]: the seeded 80/20 mix
}

// jobKind is one pack at one size with its oracle.
type jobKind struct {
	req   serve.SubmitRequest
	check func(st serve.JobStatus, res *core.Result) error
}

const (
	serveNo, serveNv = 4, 8 // mp2 jobs
	serveNorb        = 8    // scf jobs
	serveSeg         = 4
)

func (s *serveJobs) info() info {
	m := s.meta
	m.size = fmt.Sprintf("mix 80%% mp2(no=%d nv=%d) 20%% scf(norb=%d) seg=%d, workers=2 servers=1 max_concurrent=2, journal off, %d closed-loop clients",
		serveNo, serveNv, serveNorb, serveSeg, m.clients)
	return m
}

// prepare computes the serial references and draws the job order.
func (s *serveJobs) prepare(seed int64) error {
	mp2Want := chem.MP2Reference(serveNo, serveNv)
	mp2Check := func(st serve.JobStatus, _ *core.Result) error {
		got, ok := st.Scalars["emp2"]
		if !ok || !agrees(got, mp2Want) {
			return fmt.Errorf("emp2 = %.15g, serial reference %.15g", got, mp2Want)
		}
		return nil
	}
	fockWant := chem.FockBuildReference(serveNorb, chem.ModelDensity)
	s.kinds = []jobKind{
		{req: serve.SubmitRequest{Pack: "mp2", Params: map[string]int{"no": serveNo, "nv": serveNv}, Seg: serveSeg}, check: mp2Check},
		{req: serve.SubmitRequest{Pack: "scf", Params: map[string]int{"norb": serveNorb}, Seg: serveSeg, Gather: true},
			check: func(_ serve.JobStatus, res *core.Result) error { return checkFock(res, fockWant) }},
	}
	rng := rand.New(rand.NewSource(seed))
	s.order = make([]int, 4096)
	for i := range s.order {
		if rng.Intn(10) >= 8 {
			s.order[i] = 1
		}
	}
	return nil
}

// checkFock compares every gathered F block (the program computes the
// M <= N blocks only) with the serial Fock matrix.
func checkFock(res *core.Result, want []float64) error {
	if res == nil || len(res.Arrays["F"]) == 0 {
		return errors.New("scf job gathered no F blocks")
	}
	nseg := (serveNorb + serveSeg - 1) / serveSeg
	for _, ab := range res.Arrays["F"] {
		m0, n0 := (ab.Ord/nseg)*serveSeg, (ab.Ord%nseg)*serveSeg
		bn := min(serveSeg, serveNorb-n0)
		for off, got := range ab.Data {
			m, n := m0+off/bn, n0+off%bn
			if w := want[m*serveNorb+n]; !agrees(got, w) {
				return fmt.Errorf("F[%d,%d] = %.15g, serial reference %.15g", m+1, n+1, got, w)
			}
		}
	}
	return nil
}

// registerPacks mounts the chemistry packs the way cmd/sial does.
func registerPacks(svc *serve.Service) {
	svc.RegisterPack("mp2", serve.Pack{Source: chem.MP2EnergyProgram(), Env: func(params map[string]int) serve.Env {
		return serve.Env{Super: chem.MP2Super(), Integrals: chem.MOIntegrals(params["no"])}
	}})
	svc.RegisterPack("scf", serve.Pack{Source: chem.FockBuildProgram(), Env: func(map[string]int) serve.Env {
		return serve.Env{
			Preset:    map[string]sip.PresetFunc{"Dn": chem.PresetFromElem(chem.ModelDensity)},
			Integrals: chem.AOIntegrals(),
		}
	}})
}

type serveInst struct {
	s      *serveJobs
	svc    *serve.Service
	dir    string // pool scratch and, in the journal variant, the journal
	acc    *layerAcc
	reg    *obs.Registry // traced: the pool's registry
	tracer *obs.Tracer   // traced: the pool's tracer, I/O-server rank only

	mu                        sync.Mutex
	lat, queue, run, submitDs []float64 // traced: per-job seconds
}

// open is one complete service start: scratch directory, pool, packs,
// and one warm-up job of each kind.
func (s *serveJobs) open(o options) (instance, error) {
	dir, err := os.MkdirTemp("", "serve-")
	if err != nil {
		return nil, err
	}
	const workers, servers = 2, 1
	in := &serveInst{s: s, dir: dir, acc: newLayerAcc(o.rec, workers, workers+servers)}
	cfg := serve.Config{
		Pool:          sip.PoolConfig{Workers: workers, Servers: servers, ScratchDir: dir + "/scratch", Output: io.Discard},
		MaxConcurrent: s.meta.clients,
		Warn:          func(format string, args ...any) { fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...) },
	}
	switch o.variant {
	case "":
	case "journal":
		cfg.JournalDir = dir + "/journal"
	default:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("serve_jobs has no variant %q", o.variant)
	}
	if o.rec != nil {
		// Every pool job registers fresh worker and master tracks, each
		// with its own ring, so a pool-wide tracer grows without bound
		// over thousands of jobs.  Trace the one long-lived rank only:
		// the shared I/O server, whose track is created once.
		in.reg = core.NewMetricsRegistry()
		in.tracer = core.NewTracer(core.TracerConfig{Capacity: traceCap, Ranks: []int{1 + workers}})
		cfg.Pool.Metrics, cfg.Pool.Tracer = in.reg, in.tracer
		cfg.JobMetrics = true
	}
	if in.svc, err = serve.New(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	registerPacks(in.svc)
	for k := range s.kinds {
		if err := in.job(k); err != nil {
			in.Close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	in.acc.reset()
	in.lat, in.queue, in.run, in.submitDs = nil, nil, nil, nil
	return in, nil
}

func (in *serveInst) unit(i int) error {
	return in.job(in.s.order[i%len(in.s.order)])
}

// job submits one job of the given kind, waits for it and verifies it.
func (in *serveInst) job(kind int) error {
	k := in.s.kinds[kind]
	start := time.Now()
	end := in.acc.rec.begin("job", "units")
	endSubmit := in.acc.rec.begin("serve.Submit", "job")
	st, err := in.svc.Submit(k.req)
	endSubmit()
	submitted := time.Now()
	if err != nil {
		end()
		return fmt.Errorf("submit %s: %w", k.req.Pack, err)
	}
	endWait := in.acc.rec.begin("serve.Wait", "job")
	st, ok := in.svc.Wait(st.ID)
	endWait()
	end()
	d := time.Since(start)
	if !ok || st.State != serve.StateDone {
		return fmt.Errorf("job %d (%s): state %q: %s", st.ID, k.req.Pack, st.State, st.Error)
	}
	res := in.svc.Result(st.ID)
	if err := k.check(st, res); err != nil {
		return fmt.Errorf("job %d (%s): %w", st.ID, k.req.Pack, err)
	}
	in.acc.addUnit(d)
	if in.acc.traced {
		in.mu.Lock()
		in.lat = append(in.lat, d.Seconds())
		in.queue = append(in.queue, st.Started.Sub(st.Submitted).Seconds())
		in.run = append(in.run, st.Finished.Sub(st.Started).Seconds())
		in.submitDs = append(in.submitDs, submitted.Sub(start).Seconds())
		in.acc.mu.Lock()
		if res != nil {
			in.acc.addProfile(res.Profile)
		}
		for name, x := range st.Metrics {
			in.acc.snap.Counters[name] += x
		}
		in.acc.sums["serve.retries"] += float64(st.Retries)
		in.acc.mu.Unlock()
		in.mu.Unlock()
	}
	return nil
}

func (in *serveInst) layers() *layerAcc {
	if in.acc.traced {
		in.mu.Lock()
		in.acc.direct["serve.queue_wait_p50_s"] = median(in.queue)
		in.acc.direct["serve.run_p50_s"] = median(in.run)
		in.acc.direct["serve.submit_p50_s"] = median(in.submitDs)
		in.acc.direct["serve.job_p95_s"] = quantile(in.lat, 0.95)
		in.acc.direct["serve.job_p95_samples"] = float64(len(in.lat))
		in.mu.Unlock()
		if in.reg != nil {
			in.acc.snap.Merge(in.reg.Snapshot())
			in.acc.addTracer(in.tracer)
			in.reg, in.tracer = nil, nil
		}
	}
	return in.acc
}

func (in *serveInst) Close() error {
	err := in.svc.Close()
	return errors.Join(err, os.RemoveAll(in.dir))
}
