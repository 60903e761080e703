package sip

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/obs"
	"repro/internal/segment"
)

// The interpreter core knows the program, one worker's blocks and
// scalars, and nothing of messages: every block, round and iteration that
// involves another rank goes through its mover.

// mover is all the core asks of other ranks.  The worker implements it
// over messages (worker.go), a test over memory.
type mover interface {
	// fetch serves the core's uses of a block of a distributed or served
	// array at loc; see fetchOp.
	fetch(op fetchOp, arr int, loc *refLoc) (*block.Block, error)
	// store puts val into the block at loc, accumulating when acc is
	// set; seq is the effect's dedup id (effectSeq).
	store(arr int, loc *refLoc, val *block.Block, acc bool, seq uint64) error
	// sync reports arrival at a sync point of kind about id (syncMsg.id;
	// val is a collective's contribution, st the state to snapshot or
	// nil) and waits for the release or an order to replay iterations.
	sync(kind, id int, val float64, st *workerState) (syncReply, error)
	// nextChunk asks for the next chunk of execution gen of pardo pid;
	// delta is the scalars' change since pardo entry, nil without
	// checkpointing.  A chunk with no iterations ends the pardo.
	nextChunk(pid, gen int, delta []float64) (span, error)
}

// fetchOp says what the core wants of a block it fetches.
type fetchOp int

const (
	fetchGet    fetchOp = iota // get/request: start fetching the block unless it is cached
	fetchAhead                 // the same for look-ahead, which errNoRoom stops
	fetchRead                  // an operand: the block, once it has arrived
	fetchSettle                // a new look-ahead window: what look-ahead requested is no longer awaited
)

// errNoRoom is fetchAhead's answer when the look-ahead budget or the
// cache has no room for another block.
var errNoRoom = errors.New("sip: no room to look further ahead")

// frame kinds on the interpreter's control stack.
const (
	frameDo = iota
	frameDoIn
	framePardo
	frameCall
)

// frame is one entry of the interpreter control stack.
type frame struct {
	kind    int
	idx     int // loop index id (do/doIn)
	cur, hi int
	startPC int // pc of the loop-start instruction
	seq     int // do/doIn: which entry of a loop this is (look-ahead cursors belong to one)

	// pardo state: the span being walked and, in a replay, the spans
	// after it; at is the next candidate, ran how many of span's
	// candidates passed so far.
	pid     int
	span    span
	rest    []span
	at      cursor
	ran     int
	exitPC  int
	replay  bool // re-executing a dead worker's iterations
	effectN int  // per-iteration put/prepare ordinal for dedup seqs
	// entryScalars is the scalar table at pardo entry (checkpointing
	// only): each chunk request reports scalars-minus-entry, the
	// completed-contribution watermark mid-pardo snapshots fold into
	// the manifest sums (snapshot.go).
	entryScalars []float64

	// call state
	retPC  int
	procID int

	// profiling
	started time.Duration // clockNow at entry
	iters   int64
}

// clockEpoch anchors the interpreter's clock.  Reading it as
// time.Since(clockEpoch) reads only the monotonic clock, where time.Now
// reads the wall clock as well.
var clockEpoch = time.Now()

// clockNow is the interpreter's clock: the time since clockEpoch.
func clockNow() time.Duration { return time.Since(clockEpoch) }

// interp interprets byte code on one rank (paper §V: "Each worker loops
// through the instruction table executing bytecode instructions").
type interp struct {
	rt   *runtime
	rank int
	m    mover

	scalars  []float64
	idxVal   []int
	idxBound []bool
	stack    []float64
	frames   []frame
	pc       int

	temps   map[bytecode.LocalKey]*block.Block
	locals  map[bytecode.LocalKey]*block.Block
	statics map[bytecode.LocalKey]*block.Block
	pool    block.Tally // this rank's gets from the block allocator

	// Look-ahead: one cursor per get/request instruction (by pc, made at
	// the first look-ahead), the loop-entry counter behind frame.seq, and
	// min(PrefetchWindow, CacheBlocks/2), the bound on blocks requested
	// ahead and not yet asked for (<= 0 when look-ahead is off).
	sites    []aheadSite
	frameSeq int
	aheadCap int

	// pardoPCs records each pardo's start pc so replayed iterations can
	// re-enter the body.  pardoGen counts executions of each pardo so the
	// master can keep scheduling state per execution (a pardo inside a do
	// loop runs many times; all workers execute the surrounding control
	// flow identically, so generations stay in step).
	pardoPCs []int
	pardoGen []int

	prof *Profile

	// Scratch the interpreter lends to what it calls, so a steady-state
	// pardo iteration allocates only what the program itself creates:
	// the argument lists handed to a super instruction, and in ops the
	// element bounds handed to Config.Integrals and the ExecCtx.  No
	// callee may keep them past the call (IntegralFunc, SuperFunc).
	execBlocks  []*block.Block
	execScalars []*float64

	ops *operands // where locate resolves block references

	// Observability: trk is the interpreter's span track (nil when
	// tracing is off — every instrumented site nil-checks before
	// building attributes), and text the writer of this rank's text
	// trace lines (nil when off).
	trk  *obs.Track
	text io.Writer
}

// init readies c to run rt's program on rank, over m.
func (c *interp) init(rt *runtime, rank int, m mover) {
	*c = interp{
		rt:       rt,
		rank:     rank,
		m:        m,
		scalars:  make([]float64, len(rt.prog.Scalars)),
		idxVal:   make([]int, len(rt.prog.Indices)),
		idxBound: make([]bool, len(rt.prog.Indices)),
		temps:    map[bytecode.LocalKey]*block.Block{},
		locals:   map[bytecode.LocalKey]*block.Block{},
		statics:  map[bytecode.LocalKey]*block.Block{},
		aheadCap: min(rt.cfg.PrefetchWindow, rt.cfg.CacheBlocks/2),
		pardoGen: make([]int, len(rt.prog.Pardos)),
		pardoPCs: make([]int, len(rt.prog.Pardos)),
		prof:     newProfile(rt.prog),
		ops:      operandPool.Get().(*operands),
	}
	for i, s := range rt.prog.Scalars {
		c.scalars[i] = s.Init
	}
	c.trk = rt.tracer.Track(rank, 0, fmt.Sprintf("worker %d", rank), "interp")
	c.text = rt.tracer.Text(rank)
}

// dispatch is the interpreter loop.  It runs the program from c.pc
// until it halts or, for a replay, until the control stack is shallower
// than depth: the replayed pardo's frame is gone.
func (c *interp) dispatch(depth int) error {
	code := c.rt.prog.Code
	for len(c.frames) >= depth {
		in := &code[c.pc]
		if in.Op == bytecode.OpHalt {
			if c.text != nil {
				c.trace(in)
			}
			return nil
		}
		if err := c.exec(in); err != nil {
			return fmt.Errorf("sip: worker %d: pc %d line %d (%s): %w",
				c.rank, c.pc, in.Line, in.Op, err)
		}
	}
	return nil
}

// exec dispatches one instruction.  On return the pc has been advanced.
// Every instruction is counted at its pc, but only a super instruction
// is timed (paper §VI-B: the profile times super instructions), from its
// dispatch to its end, and only when its pc's sample is due or a tracer
// records its span (Profile).
func (c *interp) exec(in *bytecode.Instr) error {
	if c.text != nil {
		c.trace(in)
	}
	st := &c.prof.pcs[c.pc]
	timed := in.Op.Super() && (c.trk != nil || st.due())
	var start time.Duration
	if timed {
		start = clockNow()
	}
	next := c.pc + 1
	switch in.Op {
	case bytecode.OpNop:

	// --- scalar stack ---
	case bytecode.OpPushLit:
		c.push(in.F)
	case bytecode.OpPushScalar:
		c.push(c.scalars[in.A])
	case bytecode.OpPushParam:
		c.push(float64(c.rt.layout.ParamVal(in.A)))
	case bytecode.OpPushIndex:
		if !c.idxBound[in.A] {
			return fmt.Errorf("index %s has no value", c.rt.prog.Indices[in.A].Name)
		}
		c.push(float64(c.idxVal[in.A]))
	case bytecode.OpAdd:
		r, l := c.pop(), c.pop()
		c.push(l + r)
	case bytecode.OpSub:
		r, l := c.pop(), c.pop()
		c.push(l - r)
	case bytecode.OpMul:
		r, l := c.pop(), c.pop()
		c.push(l * r)
	case bytecode.OpDiv:
		r, l := c.pop(), c.pop()
		c.push(l / r)
	case bytecode.OpCmp:
		r, l := c.pop(), c.pop()
		if bytecode.EvalCmp(in.A, l, r) {
			c.push(1)
		} else {
			c.push(0)
		}
	case bytecode.OpStoreScalar:
		v := c.pop()
		switch in.B {
		case bytecode.AssignSet:
			c.scalars[in.A] = v
		case bytecode.AssignAdd:
			c.scalars[in.A] += v
		case bytecode.AssignSub:
			c.scalars[in.A] -= v
		case bytecode.AssignMul:
			c.scalars[in.A] *= v
		}
	case bytecode.OpDot:
		a, err := c.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := c.readBlock(in.R[2])
		if err != nil {
			return err
		}
		c.push(block.Dot(a, b))

	// --- control flow ---
	case bytecode.OpJump:
		next = in.A
	case bytecode.OpJumpIfFalse:
		if c.pop() == 0 {
			next = in.A
		}
	case bytecode.OpDoStart:
		lo, hi := c.rt.layout.IndexRange(in.A)
		if lo > hi {
			next = in.C
			break
		}
		c.pushLoop(frameDo, in.A, lo, hi)
	case bytecode.OpDoInStart:
		sub := c.rt.layout.Indices[in.A]
		super := c.rt.layout.Indices[in.B]
		if !c.idxBound[in.B] {
			return fmt.Errorf("do %s in %s: super index unbound", sub.Name, super.Name)
		}
		lo, hi := super.SubSegments(sub, c.idxVal[in.B])
		if lo > hi {
			next = in.C
			break
		}
		c.pushLoop(frameDoIn, in.A, lo, hi)
	case bytecode.OpDoEnd, bytecode.OpDoInEnd:
		f := &c.frames[len(c.frames)-1]
		f.cur++
		if f.cur <= f.hi {
			c.bind(f.idx, f.cur)
			next = f.startPC + 1
		} else {
			c.unbind(f.idx)
			c.frames = c.frames[:len(c.frames)-1]
		}
	case bytecode.OpPardoStart:
		var err error
		if next, err = c.pardoStart(in.A); err != nil {
			return err
		}
	case bytecode.OpPardoEnd:
		c.clearTemps()
		var err error
		if next, err = c.pardoNext(); err != nil {
			return err
		}
	case bytecode.OpCall:
		c.frames = append(c.frames, frame{kind: frameCall, retPC: c.pc + 1,
			procID: in.A, started: clockNow()})
		next = c.rt.prog.Procs[in.A].Entry
	case bytecode.OpReturn:
		f := c.frames[len(c.frames)-1]
		if f.kind != frameCall {
			return fmt.Errorf("return outside procedure")
		}
		c.prof.procDone(f.procID, clockNow()-f.started)
		c.frames = c.frames[:len(c.frames)-1]
		next = f.retPC

	// --- block super instructions ---
	case bytecode.OpBlockFill:
		v := c.pop()
		loc := &c.ops.dst
		if err := c.locate(in.R[0], loc); err != nil {
			return err
		}
		b := c.pool.Get(loc.extent()...)
		b.Fill(v)
		if err := c.storePooled(in.R[0], loc, b, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockCopy:
		src, err := c.readBlock(in.R[1])
		if err != nil {
			return err
		}
		loc := &c.ops.dst
		if err := c.locate(in.R[0], loc); err != nil {
			return err
		}
		// Only a whole-block assignment keeps its value and so needs a copy.
		switch {
		case in.A == bytecode.CopyPermute && !block.IdentityPerm(in.Aux):
			var dims [maxRank]int
			val := c.pool.Get(src.PermutedDims(dims[:0], in.Aux)...)
			src.PermuteInto(val, in.Aux)
			err = c.storePooled(in.R[0], loc, val, in.B)
		case loc.region || in.B != bytecode.AssignSet:
			err = c.storeDst(in.R[0], loc, src, in.B)
		default:
			val := c.pool.Get(src.Dims()...)
			val.CopyFrom(src)
			err = c.storePooled(in.R[0], loc, val, in.B)
		}
		if err != nil {
			return err
		}
	case bytecode.OpBlockScale:
		v := c.pop()
		src, err := c.readBlock(in.R[1])
		if err != nil {
			return err
		}
		val := c.pool.Get(src.Dims()...)
		val.CopyFrom(src)
		val.Scale(v)
		loc := &c.ops.dst
		if err := c.locate(in.R[0], loc); err != nil {
			return err
		}
		if err := c.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockSum:
		a, err := c.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := c.readBlock(in.R[2])
		if err != nil {
			return err
		}
		val := c.pool.Get(a.Dims()...)
		val.CopyFrom(a)
		if in.A == 0 {
			val.AddScaled(1, b)
		} else {
			val.AddScaled(-1, b)
		}
		loc := &c.ops.dst
		if err := c.locate(in.R[0], loc); err != nil {
			return err
		}
		if err := c.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpContract:
		a, err := c.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := c.readBlock(in.R[2])
		if err != nil {
			return err
		}
		loc := &c.ops.dst
		if err := c.locate(in.R[0], loc); err != nil {
			return err
		}
		val := c.pool.Get(loc.extent()...)
		flops, err := block.ContractInto(val, block.Spec{A: in.R[1].Idx, B: in.R[2].Idx, C: in.R[0].Idx}, a, b)
		if err != nil {
			return err
		}
		c.prof.Flops += flops
		if err := c.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}

	// --- communication super instructions ---
	case bytecode.OpGet, bytecode.OpRequest:
		if err := c.doGet(in.R[0]); err != nil {
			return err
		}
	case bytecode.OpPut, bytecode.OpPrepare:
		if err := c.doPut(in.R[0], in.R[1], in.A == 1); err != nil {
			return err
		}
	case bytecode.OpComputeIntegrals:
		if err := c.doComputeIntegrals(in.R[0]); err != nil {
			return err
		}
	case bytecode.OpExecute:
		if err := c.doExecute(in); err != nil {
			return err
		}
	case bytecode.OpBarrier:
		kind := syncBarrier
		if in.A == 1 {
			kind = syncServerBarrier
		}
		if _, err := c.syncPoint(kind, -1, true); err != nil {
			return err
		}
	case bytecode.OpCollective:
		rep, err := c.syncPoint(syncCollective, in.A, true)
		if err != nil {
			return err
		}
		if len(rep.vals) > 0 {
			c.scalars[in.A] = rep.vals[0]
		}
	case bytecode.OpPrint:
		if c.rank == c.rt.ranks.workers[0] { // one worker prints: the lowest-indexed
			c.rt.outMu.Lock()
			if in.A >= 0 {
				fmt.Fprint(c.rt.cfg.Output, c.rt.prog.Strings[in.A])
			}
			if in.B >= 0 {
				if in.A >= 0 {
					fmt.Fprint(c.rt.cfg.Output, " ")
				}
				fmt.Fprintf(c.rt.cfg.Output, "%.12g", c.scalars[in.B])
			}
			fmt.Fprintln(c.rt.cfg.Output)
			c.rt.outMu.Unlock()
		}
	case bytecode.OpBlocksToList:
		// blocks_to_list (paper §IV-C): a plain round first, as a
		// neighbour may still put into this partition, then the save.
		if _, err := c.syncPoint(syncCkpt, -1, false); err != nil {
			return err
		}
		if _, err := c.syncPoint(syncSave, in.A, false); err != nil {
			return err
		}
	case bytecode.OpListToBlocks:
		// The load, then a plain round: no get may reach a home that has
		// not installed its blocks yet.
		if _, err := c.syncPoint(syncLoad, in.A, false); err != nil {
			return err
		}
		if _, err := c.syncPoint(syncCkpt, -1, false); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	if timed {
		d := clockNow() - start
		st.timed, st.time = st.timed+1, st.time+d
		if c.trk != nil {
			c.trk.Complete(clockEpoch.Add(start), d, obs.CatInterp, in.Op.String(), obs.AInt("line", in.Line))
		}
	}
	st.count++
	c.pc = next
	return nil
}

// trace writes the text trace line of the instruction about to execute,
// including the active pardo iteration's index values.
func (c *interp) trace(in *bytecode.Instr) {
	iter := ""
	if f := c.pardoFrame(); f != nil {
		pd := c.rt.prog.Pardos[f.pid]
		parts := make([]string, len(pd.Indices))
		for d, id := range pd.Indices {
			parts[d] = fmt.Sprintf("%s=%d", c.rt.prog.Indices[id].Name, c.idxVal[id])
		}
		iter = " [" + strings.Join(parts, ",") + "]"
	}
	fmt.Fprintf(c.text, "w%d pc=%-4d line=%-3d %s%s\n", c.rank, c.pc, in.Line, in.Op, iter)
}

func (c *interp) push(v float64) { c.stack = append(c.stack, v) }

func (c *interp) pop() float64 {
	v := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	return v
}

func (c *interp) bind(id, v int) {
	c.idxVal[id] = v
	c.idxBound[id] = true
}

func (c *interp) unbind(id int) { c.idxBound[id] = false }

// pushLoop enters a do or do-in loop at its first value.
func (c *interp) pushLoop(kind, idx, lo, hi int) {
	c.frameSeq++
	c.frames = append(c.frames, frame{kind: kind, idx: idx, cur: lo, hi: hi, startPC: c.pc, seq: c.frameSeq})
	c.bind(idx, lo)
}

// pardoEntry returns the frame of execution gen of pardo pid, which
// starts at startPC, with no span yet, entered now.
func (c *interp) pardoEntry(pid, gen, startPC int) frame {
	return frame{kind: framePardo, pid: pid, cur: gen, startPC: startPC,
		exitPC: c.rt.prog.Code[startPC].C, started: clockNow(), at: newCursor(&c.rt.spaces[pid])}
}

// pardoStart enters the next execution of pardo pid at its first
// iteration (pardoNext).  It is not part of exec, whose stack frame every
// instruction's call chain stands on.
func (c *interp) pardoStart(pid int) (int, error) {
	c.pardoPCs[pid] = c.pc // all workers pass here; replay re-enters at pc+1
	c.frames = append(c.frames, c.pardoEntry(pid, c.pardoGen[pid], c.pc))
	c.pardoGen[pid]++
	if c.rt.cfg.CkptInterval > 0 {
		c.frames[len(c.frames)-1].entryScalars = append([]float64(nil), c.scalars...)
	}
	return c.pardoNext()
}

// pardoNext moves the innermost pardo frame to its next iteration, asking
// the mover for a chunk when its spans are used up, and returns the pc of
// the body; or it leaves the pardo and returns its exit.
func (c *interp) pardoNext() (int, error) {
	f := &c.frames[len(c.frames)-1]
	for {
		if more, err := c.advance(f); more || err != nil {
			return f.startPC + 1, err
		}
		if f.replay {
			break // a replay runs exactly the ordered spans
		}
		chunk, err := c.m.nextChunk(f.pid, f.cur, c.sinceEntry(f.entryScalars))
		if err != nil {
			return 0, err
		}
		if chunk.n == 0 {
			break
		}
		f.span, f.ran = chunk, 0
		f.at.seek(chunk.lo)
	}
	for _, id := range c.rt.prog.Pardos[f.pid].Indices {
		c.unbind(id)
	}
	c.prof.pardoDone(f.pid, clockNow()-f.started, f.iters)
	exit := f.exitPC
	c.frames = c.frames[:len(c.frames)-1]
	return exit, nil
}

// advance binds f's pardo indices to the next candidate of its spans
// that passes the where clauses, and reports false when they are used
// up.  A span whose count of passing candidates is not the n the master
// counted is an error: the two walked different spaces.
func (c *interp) advance(f *frame) (bool, error) {
	for {
		for ; f.at.pos < f.span.hi; f.at.step() {
			if f.at.passes() {
				for i, id := range c.rt.prog.Pardos[f.pid].Indices {
					c.bind(id, f.at.vals[i])
				}
				f.ran, f.iters, f.effectN = f.ran+1, f.iters+1, 0
				f.at.step()
				return true, nil
			}
		}
		if f.ran != f.span.n {
			return false, fmt.Errorf("sip: pardo %d: span [%d,%d) holds %d iterations, the master counted %d",
				f.pid, f.span.lo, f.span.hi, f.ran, f.span.n)
		}
		if len(f.rest) == 0 {
			return false, nil
		}
		f.span, f.rest, f.ran = f.rest[0], f.rest[1:], 0
		f.at.seek(f.span.lo)
	}
}

// clearTemps gives all per-iteration temp blocks back to the block
// allocator, so steady-state iterations allocate nothing (paper §V-B).
func (c *interp) clearTemps() {
	for _, b := range c.temps {
		block.Put(b)
	}
	clear(c.temps)
}

// pardoFrame returns the innermost active pardo frame, or nil.
func (c *interp) pardoFrame() *frame {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if c.frames[i].kind == framePardo {
			return &c.frames[i]
		}
	}
	return nil
}

// sinceEntry returns the scalars' change since pardo entry, or nil
// without checkpointing: the completed-iteration watermark the master
// records, as requesting chunk N+1 implies chunks 1..N are complete.
func (c *interp) sinceEntry(entry []float64) []float64 {
	if entry == nil {
		return nil
	}
	delta := make([]float64, len(c.scalars))
	for i := range delta {
		delta[i] = c.scalars[i] - entry[i]
	}
	return delta
}

// syncPoint passes one sync round of kind about id.  With capture set
// and checkpointing on, the report carries the interpreter state: sync
// points are the master's snapshot consistency points (snapshot.go).
// When the master orders a replay of a dead worker's iterations instead
// of a release, the worker replays them and reports the same round
// again, the report built anew: the replay may have changed its
// contribution and state.  A release carrying a state (the round-0
// release of a resumed run) installs it.
func (c *interp) syncPoint(kind, id int, capture bool) (syncReply, error) {
	for {
		var val float64
		if kind == syncCollective {
			val = c.scalars[id]
		}
		var st *workerState
		if capture {
			st = c.captureState()
		}
		rep, err := c.m.sync(kind, id, val, st)
		if err != nil {
			return rep, err
		}
		if !rep.resume {
			if rep.state != nil {
				c.installState(rep.state)
			}
			return rep, nil
		}
		if err := c.replay(rep.pardo, rep.gen, rep.spans); err != nil {
			return rep, err
		}
	}
}

// replay re-executes iterations a dead worker held when it was evicted:
// the pardo body runs through dispatch exactly as in the original
// dispatch, and its put/prepare effects carry the same deterministic
// seqs, so any the dead worker already delivered are dropped at the
// destination.  The pc returns to the sync point.
func (c *interp) replay(pid, gen int, spans []span) error {
	c.frames = append(c.frames, c.pardoEntry(pid, gen, c.pardoPCs[pid]))
	f := &c.frames[len(c.frames)-1]
	f.replay, f.span, f.rest = true, spans[0], spans[1:]
	f.at.seek(f.span.lo)
	at, exit := c.pc, f.exitPC
	next, err := c.pardoNext()
	if err == nil && next != exit {
		c.pc = next
		err = c.dispatch(len(c.frames))
	}
	c.pc = at
	return err
}

// captureState snapshots the interpreter state at a sync point, or nil
// when checkpointing is off or a pardo frame is active (a barrier inside
// a pardo body is not an SPMD-consistent program point — workers hold
// different iterations).  resumePC is the instruction after the sync
// point: exec advances there when the release returns.  The sync round
// number is the mover's to fill in.
func (c *interp) captureState() *workerState {
	if c.rt.cfg.CkptInterval <= 0 {
		return nil
	}
	st := &workerState{
		resumePC: c.pc + 1,
		scalars:  append([]float64(nil), c.scalars...),
		idxVal:   append([]int(nil), c.idxVal...),
		idxBound: append([]bool(nil), c.idxBound...),
		pardoGen: append([]int(nil), c.pardoGen...),
	}
	for i := range c.frames {
		f := &c.frames[i]
		if f.kind == framePardo {
			return nil
		}
		st.frames = append(st.frames, frameState{kind: f.kind, idx: f.idx,
			cur: f.cur, hi: f.hi, startPC: f.startPC, exitPC: f.exitPC,
			retPC: f.retPC, procID: f.procID})
	}
	return st
}

// installState jumps the interpreter to a snapshot's program point: pc,
// scalars, index bindings, pardo generations, and the control stack.
// The state was captured on some worker of the snapshotting run, but
// sync points are SPMD program points, so it is valid for every worker
// of this one.
func (c *interp) installState(st *workerState) {
	c.pc = st.resumePC
	copy(c.scalars, st.scalars)
	copy(c.idxVal, st.idxVal)
	copy(c.idxBound, st.idxBound)
	copy(c.pardoGen, st.pardoGen)
	c.frames = c.frames[:0]
	for _, f := range st.frames {
		c.frames = append(c.frames, frame{kind: f.kind, idx: f.idx, cur: f.cur,
			hi: f.hi, startPC: f.startPC, exitPC: f.exitPC, retPC: f.retPC,
			procID: f.procID, started: clockNow()})
	}
}

// effectSeq returns the deterministic id of the next put/prepare effect
// of the current pardo iteration, or 0 outside a pardo.  The id hashes
// (job, pardo, generation, iteration values, effect ordinal) — the job
// so a server deduping across tenants never drops one job's put for
// another's, and deliberately not the origin rank, so a survivor
// replaying a dead worker's iteration regenerates the same id.
func (c *interp) effectSeq() uint64 {
	f := c.pardoFrame()
	if f == nil {
		return 0
	}
	h := mix64(mix64(mix64(0, uint64(c.rt.job)), uint64(f.pid)), uint64(f.cur))
	for _, id := range c.rt.prog.Pardos[f.pid].Indices {
		h = mix64(h, uint64(c.idxVal[id]))
	}
	h = mix64(h, uint64(f.effectN))
	f.effectN++
	if h == 0 {
		h = 1 // 0 means "no dedup"
	}
	return h
}

// maxRank bounds the rank of a block reference, as in block.Contract, so
// a resolved location lives on fixed arrays and locate allocates nothing.
const maxRank = 8

// refLoc is the resolved location of a block reference: the block
// coordinate plus, for subindex references, the region within the block.
// Only the first rank entries of each array mean anything.
type refLoc struct {
	key    blockKey
	rank   int
	region bool
	coord  [maxRank]int
	dims   [maxRank]int
	rlo    [maxRank]int // region offset within the block (0-based)
	rext   [maxRank]int // region extent
}

func (l *refLoc) blockDims() []int { return l.dims[:l.rank] }

// local is the block's key in the worker's own maps.
func (l *refLoc) local() bytecode.LocalKey { return bytecode.LocalBlock(l.key.arr, l.key.ord) }

// extent returns the dims of the block or subblock the reference names.
func (l *refLoc) extent() []int {
	if l.region {
		return l.rext[:l.rank]
	}
	return l.dims[:l.rank]
}

// at returns a copy of the block coordinate for error messages:
// formatting the array itself would move every refLoc to the heap.
func (l *refLoc) at() segment.Coord { return segment.Coord(l.coord[:l.rank]).Clone() }

// sub returns copies of the region's offset and extent, for the same
// reason: block.Extract and Insert format theirs when they panic.
func (l *refLoc) sub() (lo, ext []int) {
	return append([]int(nil), l.rlo[:l.rank]...), append([]int(nil), l.rext[:l.rank]...)
}

// operands are the locations a worker resolves block references into:
// an instruction's destination, the block it reads, and the block
// look-ahead names next.  locate fills them in place, so each is valid
// until the next locate into it.  Beside them lies what the worker lends
// a callee: integral bounds, and the context of an execute.  They are
// recycled across runs: a pool job starts a worker per rank, and would
// otherwise pay for them anew.
type operands struct {
	dst, src, ahead refLoc
	bounds          [2][maxRank]int
	exec            ExecCtx
}

var operandPool = sync.Pool{New: func() any { return new(operands) }}

// locate resolves a reference against the current index values into loc,
// a location the caller owns.  It writes only the first rank entries of
// loc's arrays, the region fields only for a region reference: nothing
// is copied out and nothing else is zeroed.  A reference to a whole
// block (Ref.Region is fixed with the program) takes its index values as
// the coordinate, which the shape checks and turns into dims and an
// ordinal by table loads.
func (c *interp) locate(ref bytecode.Ref, loc *refLoc) error {
	if len(ref.Idx) > maxRank {
		return fmt.Errorf("array %s has rank %d, the SIP handles at most %d", c.rt.prog.Arrays[ref.Arr].Name, len(ref.Idx), maxRank)
	}
	loc.rank = len(ref.Idx)
	loc.region = ref.Region()
	if loc.region {
		if err := c.locateRegion(ref, loc); err != nil {
			return err
		}
	} else {
		val, bound := c.idxVal, c.idxBound // loc's stores cannot alias them
		for i, id := range ref.Idx {
			if !bound[id] {
				return fmt.Errorf("index %s has no value", c.rt.prog.Indices[id].Name)
			}
			loc.coord[i] = val[id]
		}
	}
	ord, err := c.rt.layout.Shapes[ref.Arr].Locate(loc.coord[:loc.rank], loc.dims[:loc.rank])
	if err != nil {
		return err
	}
	loc.key = blockKey{job: c.rt.job, arr: ref.Arr, ord: ord}
	if loc.region {
		// Fill region defaults for non-sub dimensions: whole extent.
		for i := range ref.Idx {
			if loc.rext[i] == 0 {
				loc.rext[i] = loc.dims[i]
			}
		}
	}
	return nil
}

// locateRegion finds the coordinate and region of a reference with a
// subindex against a super dimension: along such a dimension the block
// coordinate comes from the parent index and the region from the
// subindex.
func (c *interp) locateRegion(ref bytecode.Ref, loc *refLoc) error {
	prog, layout := c.rt.prog, c.rt.layout
	dims := prog.Arrays[ref.Arr].Dims
	for i, id := range ref.Idx {
		parent := prog.Indices[id].Parent
		if parent < 0 || prog.Indices[dims[i]].Parent >= 0 {
			parent = id // not a subindex against a super dimension
		}
		if !c.idxBound[id] || !c.idxBound[parent] {
			return fmt.Errorf("index %s has no value", prog.Indices[id].Name)
		}
		loc.coord[i] = c.idxVal[id]
		loc.rlo[i], loc.rext[i] = 0, 0
		if parent != id {
			loc.coord[i] = c.idxVal[parent]
			blockLo, _ := layout.Indices[parent].SegBounds(loc.coord[i])
			subLo, subHi := layout.Indices[id].SegBounds(c.idxVal[id])
			loc.rlo[i] = subLo - blockLo
			loc.rext[i] = subHi - subLo + 1
		}
	}
	return nil
}

// localMap returns the worker-local map holding blocks of the given
// array kind, or nil for communicated arrays.
func (c *interp) localMap(kind bytecode.ArrayKind) map[bytecode.LocalKey]*block.Block {
	switch kind {
	case bytecode.ArrayTemp:
		return c.temps
	case bytecode.ArrayLocal:
		return c.locals
	case bytecode.ArrayStatic:
		return c.statics
	}
	return nil
}

// readBlock resolves a reference to a block value: local blocks from the
// worker maps, distributed/served blocks from the mover.  Region
// references return the extracted subblock.
func (c *interp) readBlock(ref bytecode.Ref) (*block.Block, error) {
	loc := &c.ops.src
	if err := c.locate(ref, loc); err != nil {
		return nil, err
	}
	var b *block.Block
	if m := c.localMap(ref.Kind()); m != nil {
		b = m[loc.local()]
		if b == nil {
			return nil, fmt.Errorf("read of uninitialized %s block %s%v", ref.Kind(), c.rt.prog.Arrays[ref.Arr].Name, loc.at())
		}
	} else {
		var err error
		if b, err = c.m.fetch(fetchRead, ref.Arr, loc); err != nil {
			return nil, err
		}
	}
	if loc.region {
		return b.Extract(loc.sub()), nil
	}
	return b, nil
}

// storePooled is storeDst for a value drawn from the block allocator,
// which gets it back unless the destination kept it (a whole-block
// assignment).
func (c *interp) storePooled(ref bytecode.Ref, loc *refLoc, val *block.Block, mode int) error {
	err := c.storeDst(ref, loc, val, mode)
	if err != nil || loc.region || mode != bytecode.AssignSet {
		block.Put(val)
	}
	return err
}

// storeDst writes a computed value into a destination reference with the
// given assign mode.  A whole-block assignment keeps val itself and
// recycles the temp block it replaces (sends clone, so nothing else holds
// it); every other store only reads val, and a region destination
// read-modify-writes the base block.
func (c *interp) storeDst(ref bytecode.Ref, loc *refLoc, val *block.Block, mode int) error {
	m := c.localMap(ref.Kind())
	if m == nil {
		return fmt.Errorf("direct write to %s array %s", ref.Kind(), c.rt.prog.Arrays[ref.Arr].Name)
	}
	if mode != bytecode.AssignSet && mode != bytecode.AssignAdd && mode != bytecode.AssignSub {
		return fmt.Errorf("unsupported assign mode %d for block destination", mode)
	}
	cur := m[loc.local()]
	if mode == bytecode.AssignSet && !loc.region {
		if !slices.Equal(val.Dims(), loc.blockDims()) {
			return fmt.Errorf("assignment to %s%v: got dims %v", c.rt.prog.Arrays[ref.Arr].Name, loc.at(), val.Dims())
		}
		if cur != nil && cur != val && ref.Kind() == bytecode.ArrayTemp {
			block.Put(cur)
		}
		m[loc.local()] = val
		return nil
	}
	if cur == nil {
		cur = c.pool.Get(loc.blockDims()...)
		cur.Fill(0) // an absent block reads as zeros
		m[loc.local()] = cur
	}
	sign := 1.0
	if mode == bytecode.AssignSub {
		sign = -1
	}
	if !loc.region {
		cur.AddScaled(sign, val)
		return nil
	}
	rlo, rext := loc.sub()
	if mode == bytecode.AssignSet {
		cur.Insert(rlo, val)
		return nil
	}
	sub := cur.Extract(rlo, rext)
	sub.AddScaled(sign, val)
	cur.Insert(rlo, sub)
	return nil
}

// doGet implements get (distributed) and request (served): resolve the
// block's location and have the mover fetch it unless it is cached, then
// let look-ahead request what the enclosing loops name next.
func (c *interp) doGet(ref bytecode.Ref) error {
	loc := &c.ops.dst
	if err := c.locate(ref, loc); err != nil {
		return err
	}
	if _, err := c.m.fetch(fetchGet, ref.Arr, loc); err != nil {
		return err
	}
	if c.aheadCap > 0 {
		c.lookAhead(ref)
	}
	return nil
}

// aheadSite is the look-ahead cursor of one get/request instruction: the
// farthest position requested (pos) in entry seq of its outermost loop.
type aheadSite struct{ seq, pos int }

// lookAhead requests the blocks the get at c.pc will name next (paper
// §V-A: "The SIP looks ahead and requests several blocks that it expects
// will be needed soon").  The loops around the get form an odometer: the
// plain do frames from the innermost outwards, ending with a do-in frame
// (its range follows its parent, so it cannot be a digit that wraps) or
// below a call or the pardo iteration (the next one is the master's to
// name, and a barrier may come first).  The site's cursor slides over the
// odometer's positions, at most PrefetchWindow ahead of the loops: an
// execution requests only the new far edge, across inner-loop boundaries.
// Blocks requested ahead and not yet asked for stay within aheadCap and
// within the room the cache has, which the mover keeps: a window the
// cache cannot hold thrashes (the BlueGene/P port, §VI-A).
func (c *interp) lookAhead(ref bytecode.Ref) {
	bot := len(c.frames)
	for bot > 0 && c.frames[bot-1].kind == frameDo {
		bot--
	}
	if bot > 0 && c.frames[bot-1].kind == frameDoIn {
		bot--
	}
	digits := c.frames[bot:]
	if len(digits) == 0 {
		return
	}
	cur, last := 0, 0
	for i := range digits {
		lo, n := c.span(&digits[i])
		cur = cur*n + digits[i].cur - lo
		last = last*n + digits[i].hi - lo
	}
	if c.sites == nil {
		c.sites = make([]aheadSite, len(c.rt.prog.Code))
	}
	s := &c.sites[c.pc]
	if s.seq != digits[0].seq {
		// A new entry of the outermost loop: what look-ahead still waits
		// for, the program did not ask for.
		*s = aheadSite{seq: digits[0].seq}
		c.m.fetch(fetchSettle, -1, nil)
	}
	s.pos = max(s.pos, cur)
	for s.pos < last && s.pos-cur < c.rt.cfg.PrefetchWindow {
		s.pos++
		p := s.pos
		for i := len(digits) - 1; i >= 0; i-- {
			lo, n := c.span(&digits[i])
			c.idxVal[digits[i].idx] = lo + p%n
			p /= n
		}
		if loc := &c.ops.ahead; c.locate(ref, loc) == nil {
			if _, err := c.m.fetch(fetchAhead, ref.Arr, loc); err == errNoRoom {
				s.pos-- // asked again when there is room
				break
			}
		}
	}
	for i := range digits {
		c.idxVal[digits[i].idx] = digits[i].cur
	}
}

// span returns the low bound and trip count of a loop frame's index; for
// a do-in frame those of the whole subindex range, which serve a digit
// that does not wrap as well.
func (c *interp) span(f *frame) (lo, n int) {
	lo, _ = c.rt.layout.IndexRange(f.idx)
	return lo, f.hi - lo + 1
}

// doPut implements put (distributed) and prepare (served).
func (c *interp) doPut(dst, src bytecode.Ref, acc bool) error {
	loc := &c.ops.dst
	if err := c.locate(dst, loc); err != nil {
		return err
	}
	val, err := c.readBlock(src)
	if err != nil {
		return err
	}
	if !slices.Equal(val.Dims(), loc.blockDims()) {
		return fmt.Errorf("put %s%v: got dims %v", c.rt.prog.Arrays[dst.Arr].Name, loc.at(), val.Dims())
	}
	return c.m.store(dst.Arr, loc, val, acc, c.effectSeq())
}

// doComputeIntegrals fills a block from Config.Integrals.  Its element
// bounds follow from the coordinate and dims locate has just checked
// against the shape, with no second range check per dimension.  The
// block it replaces goes back to the allocator, from which a generator
// draws the next one.
func (c *interp) doComputeIntegrals(ref bytecode.Ref) error {
	loc := &c.ops.dst
	if err := c.locate(ref, loc); err != nil {
		return err
	}
	name := c.rt.prog.Arrays[ref.Arr].Name
	lo, hi := c.ops.bounds[0][:loc.rank], c.ops.bounds[1][:loc.rank]
	c.rt.layout.Shapes[ref.Arr].ElemBounds(loc.coord[:loc.rank], loc.blockDims(), lo, hi)
	b := c.rt.cfg.Integrals(name, lo, hi)
	if b == nil || !slices.Equal(b.Dims(), loc.blockDims()) {
		return fmt.Errorf("compute_integrals %s%v: generator returned wrong dims", name, loc.at())
	}
	m := c.localMap(ref.Kind())
	if old := m[loc.local()]; old != nil && old != b {
		block.Put(old)
	}
	m[loc.local()] = b
	return nil
}

func (c *interp) doExecute(in *bytecode.Instr) error {
	name := c.rt.prog.Strings[in.A]
	fn := c.rt.supers[in.A]
	if fn == nil {
		return fmt.Errorf("execute: super instruction %q not registered", name)
	}
	blocks := c.execBlocks[:0]
	var err error
	for i := 0; i < in.B && err == nil; i++ {
		var b *block.Block
		if b, err = c.execArg(in.R[i], name, &c.ops.exec.args[i]); b != nil {
			blocks = append(blocks, b)
		}
	}
	if err == nil {
		scalars := c.execScalars[:0]
		for _, id := range in.Aux {
			scalars = append(scalars, &c.scalars[id])
		}
		c.execScalars = scalars
		clear(c.ops.exec.args[in.B:]) // Block(i) of an absent argument is empty
		c.ops.exec.Worker, c.ops.exec.Layout = c.rt.ranks.workerIndex(c.rank), c.rt.layout
		err = fn(&c.ops.exec, blocks, scalars)
	}
	for i, b := range blocks {
		if c.localMap(in.R[i].Kind()) == nil {
			block.Put(b) // the copy execArg made
		}
	}
	clear(blocks) // the scratch must not keep a dropped block alive
	c.execBlocks = blocks
	return err
}

// execArg resolves one block argument of execute, recording where it
// lies in at: a local block itself, created as zeros when absent, or a
// pooled copy of a communicated one, which protects the cache from
// mutation.
func (c *interp) execArg(ref bytecode.Ref, name string, at *argLoc) (*block.Block, error) {
	loc := &c.ops.dst
	if err := c.locate(ref, loc); err != nil {
		return nil, err
	}
	if loc.region {
		return nil, fmt.Errorf("execute %s: subblock arguments not supported", name)
	}
	at.rank, at.coord = loc.rank, loc.coord
	c.rt.layout.Shapes[ref.Arr].ElemBounds(loc.coord[:loc.rank], loc.blockDims(), at.lo[:loc.rank], at.hi[:loc.rank])
	if m := c.localMap(ref.Kind()); m != nil {
		b := m[loc.local()]
		if b == nil {
			b = c.pool.Get(loc.blockDims()...)
			b.Fill(0) // an absent block reads as zeros
			m[loc.local()] = b
		}
		return b, nil
	}
	b, err := c.readBlock(ref)
	if err != nil {
		return nil, err
	}
	cp := c.pool.Get(b.Dims()...)
	cp.CopyFrom(b)
	return cp, nil
}
