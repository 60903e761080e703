package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/sip"
)

// relTol is how far a result may sit from the serial reference.
const relTol = 1e-9

// sampledElems is how many seed-chosen elements of a gathered array a
// solve is checked on when the full serial reference is out of reach.
const sampledElems = 64

type solverKind int

const (
	kindCCSDTerm   solverKind = iota // answer is the array R, checked on sampled elements
	kindMP2                          // answer is the scalar emp2
	kindCCSDEnergy                   // answer is the scalar e
)

// solver is one of the five solver workloads: a SIAL program at a fixed
// size, run in-process through core.Run or, with tcp set, as one
// sip.RunRank per rank over TCP loopback worlds.
type solver struct {
	meta   info
	source string
	params map[string]int
	cfg    core.Config
	kind   solverKind
	tcp    bool

	// Set by prepare: the seeded environment and the oracle.
	env   core.Config
	check func(res *core.Result, layout *bytecode.Layout) error
}

func (s *solver) info() info {
	m := s.meta
	m.size = sizeString(s.params, s.cfg, s.tcp)
	return m
}

// prepare builds the seeded inputs and computes the serial reference.
func (s *solver) prepare(seed int64) error {
	s.env = s.cfg
	s.env.Params = s.params
	s.env.Output = io.Discard
	switch s.kind {
	case kindMP2:
		no, nv := s.params["no"], s.params["nv"]
		s.env.Integrals = chem.MOIntegrals(no)
		s.env.Super = chem.MP2Super()
		want := chem.MP2Reference(no, nv)
		s.check = func(res *core.Result, _ *bytecode.Layout) error {
			return checkScalar(res, "emp2", want)
		}
	case kindCCSDEnergy:
		t := amplitudes(seed)
		s.env.Integrals = chem.AOIntegrals()
		s.env.Preset = map[string]core.PresetFunc{"T": chem.PresetFromElem(t)}
		want := chem.CCSDEnergyReference(s.params["norb"], s.params["nocc"], s.params["iters"], t)
		s.check = func(res *core.Result, _ *bytecode.Layout) error {
			return checkScalar(res, "e", want)
		}
	case kindCCSDTerm:
		t := amplitudes(seed)
		s.env.Integrals = chem.AOIntegrals()
		s.env.Preset = map[string]core.PresetFunc{"T": chem.PresetFromElem(t)}
		s.env.GatherArrays = true
		norb, nocc := s.params["norb"], s.params["nocc"]
		// The full reference is norb^4 nocc^2 integral evaluations; check
		// seed-chosen elements against the serial sum of equation (2):
		// R(m,n,i,j) = sum_{l,s} (mn|ls) T(l,s,i,j).
		rng := rand.New(rand.NewSource(seed))
		type sample struct {
			idx  []int
			want float64
		}
		samples := make([]sample, sampledElems)
		for k := range samples {
			idx := []int{1 + rng.Intn(norb), 1 + rng.Intn(norb), 1 + rng.Intn(nocc), 1 + rng.Intn(nocc)}
			var sum float64
			for l := 1; l <= norb; l++ {
				for sg := 1; sg <= norb; sg++ {
					sum += chem.ERI(idx[0], idx[1], l, sg) * t([]int{l, sg, idx[2], idx[3]})
				}
			}
			samples[k] = sample{idx, sum}
		}
		s.check = func(res *core.Result, layout *bytecode.Layout) error {
			shape := layout.Shapes[layout.Prog.ArrayID("R")]
			blocks := map[int][]float64{}
			for _, ab := range res.Arrays["R"] {
				blocks[ab.Ord] = ab.Data
			}
			for _, sm := range samples {
				got, ok := elemAt(shape, blocks, sm.idx)
				if !ok {
					return fmt.Errorf("R%v was not gathered", sm.idx)
				}
				if !agrees(got, sm.want) {
					return fmt.Errorf("R%v = %.15g, serial reference %.15g", sm.idx, got, sm.want)
				}
			}
			return nil
		}
	}
	return nil
}

func agrees(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300)
}

func checkScalar(res *core.Result, name string, want float64) error {
	got, ok := res.Scalars[name]
	if !ok {
		return fmt.Errorf("result has no scalar %s", name)
	}
	if !agrees(got, want) {
		return fmt.Errorf("%s = %.15g, serial reference %.15g", name, got, want)
	}
	return nil
}

// elemAt finds one element (1-based global indices) in the gathered
// blocks of an array.
func elemAt(shape segment.Shape, blocks map[int][]float64, idx []int) (float64, bool) {
	coord := make(segment.Coord, len(idx))
	for d, ix := range shape.Dims {
		found := false
		for sg := 1; sg <= ix.NumSegments(); sg++ {
			if lo, hi := ix.SegBounds(sg); idx[d] >= lo && idx[d] <= hi {
				coord[d], found = sg, true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	data, ok := blocks[shape.Ordinal(coord)]
	if !ok {
		return 0, false
	}
	lo, hi := shape.BlockBounds(coord)
	off := 0
	for d := range idx {
		off = off*(hi[d]-lo[d]+1) + idx[d] - lo[d]
	}
	if off >= len(data) {
		return 0, false
	}
	return data[off], true
}

// solverInst is one set-up solver workload.
type solverInst struct {
	s      *solver
	prog   *core.Program
	layout *bytecode.Layout
	cfg    core.Config
	worlds []*mpi.World  // tcp only: one world per rank, kept across solves
	netReg *obs.Registry // tcp + traced: the transport observers' registry
	warmup *obs.Snapshot // what netReg counted before the timed units
	acc    *layerAcc
}

// open is one complete set-up: compile, resolve, listeners and worlds
// for tcp, and one untimed warm-up solve.
func (s *solver) open(o options) (instance, error) {
	in := &solverInst{s: s, cfg: s.env}
	tcp := s.tcp
	switch o.variant {
	case "":
	case "inproc":
		tcp = false
	case "recover":
		in.cfg.Recover = true
	case "ckpt":
		in.cfg.Recover = true
		in.cfg.CkptInterval = 64
	case "replicas2":
		in.cfg.Servers, in.cfg.Replicas = 2, 2
	default:
		return nil, fmt.Errorf("%s has no variant %q", s.meta.name, o.variant)
	}
	in.acc = newLayerAcc(o.rec, in.cfg.Workers, in.cfg.Workers+in.cfg.Servers)
	if in.cfg.CkptInterval > 0 {
		in.cfg.OnSnapshot = func(si sip.SnapshotInfo) {
			in.acc.add("sip.ckpt.snapshots", 1)
			in.acc.add("sip.ckpt.bytes", float64(si.Bytes))
			in.acc.add("sip.ckpt.duration_s", si.Duration.Seconds())
		}
	}
	var err error
	if in.prog, err = core.Compile(s.source); err != nil {
		return nil, err
	}
	if in.layout, err = in.prog.Resolve(in.cfg.Params, in.cfg.Seg); err != nil {
		return nil, err
	}
	if tcp {
		if err := in.listen(); err != nil {
			in.Close()
			return nil, err
		}
	}
	// Warm-up: fills the block pools' backing heap, the page cache of
	// the scratch filesystem and the TCP connections.
	if _, _, err := in.solve(nil, nil); err != nil {
		in.Close()
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	in.acc.reset()
	if in.netReg != nil {
		in.warmup = in.netReg.Snapshot()
	}
	return in, nil
}

// listen binds one loopback listener per rank and builds each rank's
// own TCP world, as separate processes of a `sial run -launch` would.
func (in *solverInst) listen() error {
	n := 1 + in.cfg.Workers + in.cfg.Servers
	lns, addrs, err := listenLoopback(n)
	if err != nil {
		return err
	}
	if in.acc.traced {
		in.netReg = core.NewMetricsRegistry()
	}
	for r := range lns {
		tc := transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]}
		if in.netReg != nil {
			tc.Observer = sip.NewNetObserver(in.netReg)
		}
		tr, err := transport.NewTCP(tc)
		if err != nil {
			for _, l := range lns[r:] {
				l.Close()
			}
			return err
		}
		w, err := mpi.NewDistributedWorld(n, []int{r}, tr)
		if err != nil {
			tr.Close()
			for _, l := range lns[r+1:] {
				l.Close()
			}
			return err
		}
		in.worlds = append(in.worlds, w)
	}
	return nil
}

// solve runs the program once.  The answer (scalars, gathered arrays)
// is the master's; profiles holds every rank's Profile.
func (in *solverInst) solve(tr *obs.Tracer, reg *obs.Registry) (*core.Result, []*core.Profile, error) {
	cfg := in.cfg
	cfg.Tracer, cfg.Metrics = tr, reg
	if in.worlds == nil {
		res, err := core.Run(in.prog, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res, []*core.Profile{res.Profile}, nil
	}
	results := make([]*core.Result, len(in.worlds))
	errs := make([]error, len(in.worlds))
	var wg sync.WaitGroup
	for r, w := range in.worlds {
		wg.Add(1)
		go func(r int, w *mpi.World) {
			defer wg.Done()
			results[r], errs[r] = sip.RunRank(in.prog, cfg, w, r)
		}(r, w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	profiles := make([]*core.Profile, 0, len(results)-1)
	for _, res := range results[1:] {
		profiles = append(profiles, res.Profile)
	}
	return results[0], profiles, nil
}

func (in *solverInst) unit(i int) error {
	var tr *obs.Tracer
	var reg *obs.Registry
	if in.acc.traced {
		tr = core.NewTracer(core.TracerConfig{Capacity: traceCap})
		reg = core.NewMetricsRegistry()
	}
	start := time.Now()
	end := in.acc.rec.begin("solve", "units")
	res, profiles, err := in.solve(tr, reg)
	end()
	if err != nil {
		return err
	}
	d := time.Since(start)
	if err := in.s.check(res, in.layout); err != nil {
		return err
	}
	in.acc.addUnit(d)
	if in.acc.traced {
		for _, p := range profiles {
			in.acc.addProfile(p)
		}
		in.acc.snap.Merge(reg.Snapshot())
		in.acc.addTracer(tr)
	}
	return nil
}

func (in *solverInst) layers() *layerAcc {
	if in.netReg != nil {
		net := in.netReg.Snapshot()
		for name, x := range in.warmup.Counters {
			net.Counters[name] -= x
		}
		in.acc.snap.Merge(net)
		in.netReg = nil
	}
	return in.acc
}

func (in *solverInst) Close() error {
	var errs []error
	for _, w := range in.worlds {
		errs = append(errs, w.Close())
	}
	in.worlds = nil
	return errors.Join(errs...)
}
