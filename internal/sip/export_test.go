package sip

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/block"
	"repro/internal/bytecode"
)

// RestartedServerIndex plays the start-up disk scan of a fresh
// incarnation of the I/O server on rank over cfg.ScratchDir and returns
// the names of the block files it adopted, sorted — for the external
// test package, which can drive the chemistry programs.
func RestartedServerIndex(prog *bytecode.Program, cfg Config, rank int) ([]string, error) {
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		return nil, err
	}
	defer rt.close()
	s := newIOServer(rt, rank)
	if err := s.scanDisk(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(s.onDisk))
	for k := range s.onDisk {
		names = append(names, filepath.Base(s.blockPath(k)))
	}
	sort.Strings(names)
	return names, nil
}

// CoreRuntime runs a program on the interpreter core alone: one worker
// over memMover, with no master, peer or server around it.
type CoreRuntime struct{ rt *runtime }

// NewCoreRuntime resolves prog under cfg, at one worker, for Run.
func NewCoreRuntime(prog *bytecode.Program, cfg Config) (*CoreRuntime, error) {
	cfg.Workers = 1
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		return nil, err
	}
	return &CoreRuntime{rt: rt}, nil
}

// Close releases what NewCoreRuntime acquired.
func (c *CoreRuntime) Close() { c.rt.close() }

// Run interprets the program once and returns its scalars and the
// number of instructions it executed.
func (c *CoreRuntime) Run() (map[string]float64, int64, error) {
	var in interp
	if err := c.run(&in); err != nil {
		return nil, 0, err
	}
	scalars := map[string]float64{}
	for i, s := range c.rt.prog.Scalars {
		scalars[s.Name] = in.scalars[i]
	}
	var n int64
	for _, st := range in.prof.pcs {
		n += st.count
	}
	return scalars, n, nil
}

// run interprets the program once on in.
func (c *CoreRuntime) run(in *interp) error {
	in.init(c.rt, 1, &memMover{rt: c.rt, blocks: map[blockKey]*block.Block{}, runs: map[[2]int]*pardoRun{}})
	defer operandPool.Put(in.ops)
	return in.dispatch(0)
}

// memMover is the mover of a lone worker that holds every block of the
// distributed and served arrays itself: a fetch reads memory, a store
// writes it, a sync round is released at once (a collective with its own
// contribution), and chunks come from the master's enumeration,
// pardoRun, as guided self-scheduling hands them to one worker.
type memMover struct {
	rt     *runtime
	blocks map[blockKey]*block.Block
	runs   map[[2]int]*pardoRun
}

func (m *memMover) fetch(op fetchOp, arr int, loc *refLoc) (*block.Block, error) {
	switch op {
	case fetchAhead:
		return nil, errNoRoom // everything is here already
	case fetchRead:
		b := m.blocks[loc.key]
		if b == nil {
			b = block.New(loc.blockDims()...) // an absent block reads as zeros
			m.blocks[loc.key] = b
		}
		return b, nil
	}
	return nil, nil
}

func (m *memMover) store(arr int, loc *refLoc, val *block.Block, acc bool, seq uint64) error {
	if cur := m.blocks[loc.key]; acc && cur != nil {
		cur.AddScaled(1, val)
	} else {
		m.blocks[loc.key] = val.Clone()
	}
	return nil
}

func (m *memMover) sync(kind, id int, val float64, st *workerState) (syncReply, error) {
	switch kind {
	case syncCollective:
		return syncReply{vals: []float64{val}}, nil
	case syncSave, syncLoad:
		return syncReply{}, fmt.Errorf("sip: memMover keeps no checkpoint files")
	}
	return syncReply{}, nil
}

func (m *memMover) nextChunk(pid, gen int, _ []float64) (span, error) {
	r := m.runs[[2]int{pid, gen}]
	if r == nil {
		r = newPardoRun(m.rt, pid)
		m.runs[[2]int{pid, gen}] = r
	}
	return r.next(r.chunkSize(1)), nil
}
