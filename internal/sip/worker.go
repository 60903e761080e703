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
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/segment"
)

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

	// pardo state
	pid     int
	chunk   [][]int
	pos     int
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

// worker interprets byte code on one rank (paper §V: "Each worker loops
// through the instruction table executing bytecode instructions").
type worker struct {
	rt   *runtime
	comm *mpi.Comm
	rank int

	scalars  []float64
	idxVal   []int
	idxBound []bool
	stack    []float64
	frames   []frame
	pc       int

	temps   map[bytecode.LocalKey]*block.Block
	locals  map[bytecode.LocalKey]*block.Block
	statics map[bytecode.LocalKey]*block.Block
	dist    *store
	cache   *blockCache
	pool    *blockPool

	nextReply int

	// Look-ahead: one cursor per get/request instruction (by pc, made at
	// the first look-ahead), the loop-entry counter behind frame.seq, and
	// min(PrefetchWindow, CacheBlocks/2), the bound on blocks requested
	// ahead and not yet asked for (<= 0 when look-ahead is off).
	sites    []aheadSite
	frameSeq int
	aheadCap int

	// Sync and recovery state.  syncRound numbers this worker's
	// master-mediated sync points (all workers pass the same ones in the
	// same order).  pardoPCs records each pardo's start pc so replayed
	// iterations can re-enter the body.  owedPutAcks and owedPrepAcks
	// count outstanding put/prepare acks per destination, so acks owed by
	// an evicted home or server can be forgotten and a silent one named.
	// seen is the put-dedup ledger, shared with the service loop (seenMu)
	// and rotated at each sync release.  replicas is the interpreter's
	// scratch for replica sets, so placing a served block allocates nothing.
	syncRound    int
	pardoPCs     []int
	owedPutAcks  map[int]int
	owedPrepAcks map[int]int
	seenMu       sync.Mutex
	seen         effectLedger
	replicas     []int
	dropCtr      *obs.Counter
	retireCtr    *obs.Counter
	failoverCtr  *obs.Counter

	// pardoGen counts executions of each pardo so the master can keep
	// scheduling state per execution (a pardo inside a do loop runs many
	// times; all workers execute the surrounding control flow
	// identically, so generations stay in step).
	pardoGen []int

	prof *Profile
	// clock is when the last super instruction ended, which is when the
	// next instruction starts: reading the clock once per super
	// instruction times them all, the ops between two of them included
	// in the second (exec).
	clock time.Duration

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
	// building attributes), waitHist the shared wait-time histogram,
	// and text the writer of this rank's text trace lines (nil when off).
	trk      *obs.Track
	waitHist *obs.Histogram
	text     io.Writer
}

func newWorker(rt *runtime, rank int) *worker {
	w := &worker{
		rt:       rt,
		comm:     rt.world.Comm(rank),
		rank:     rank,
		scalars:  make([]float64, len(rt.prog.Scalars)),
		idxVal:   make([]int, len(rt.prog.Indices)),
		idxBound: make([]bool, len(rt.prog.Indices)),
		temps:    map[bytecode.LocalKey]*block.Block{},
		locals:   map[bytecode.LocalKey]*block.Block{},
		statics:  map[bytecode.LocalKey]*block.Block{},
		dist:     newStore(),
		pool:     newBlockPool(),
		aheadCap: min(rt.cfg.PrefetchWindow, rt.cfg.CacheBlocks/2),
		pardoGen: make([]int, len(rt.prog.Pardos)),
		pardoPCs: make([]int, len(rt.prog.Pardos)),
		prof:     newProfile(rt.prog),
		ops:      operandPool.Get().(*operands),

		owedPutAcks:  map[int]int{},
		owedPrepAcks: map[int]int{},
	}
	w.cache = newBlockCache(rt.cfg.CacheBlocks, w.pool)
	w.dropCtr = rt.metrics.Counter(metricDedupDroppedEffects)
	w.retireCtr = rt.metrics.Counter(metricDedupRetired)
	w.failoverCtr = rt.metrics.Counter(metricReplFailovers)
	for i, s := range rt.prog.Scalars {
		w.scalars[i] = s.Init
	}
	w.trk = rt.tracer.Track(rank, 0, fmt.Sprintf("worker %d", rank), "interp")
	w.waitHist = rt.metrics.Histogram(metricWorkerWait)
	w.text = rt.tracer.Text(rank)
	return w
}

// workerIndex is this worker's 0-based index among workers.
func (w *worker) workerIndex() int { return w.rt.workerIndexOf(w.rank) }

// initPresets populates this worker's partition of distributed arrays
// from Config.Preset.
func (w *worker) initPresets() error {
	for name, fn := range w.rt.cfg.Preset {
		arr := w.rt.prog.ArrayID(name)
		if arr < 0 {
			return fmt.Errorf("sip: preset for unknown array %q", name)
		}
		if w.rt.prog.Arrays[arr].Kind != bytecode.ArrayDistributed {
			continue // served presets are installed by the I/O servers
		}
		shape := w.rt.layout.Shapes[arr]
		var err error
		shape.EachCoord(func(c segment.Coord) {
			ord := shape.Ordinal(c)
			if w.rt.homeWorker(arr, ord) != w.rank || err != nil {
				return
			}
			lo, hi := shape.BlockBounds(c)
			b := fn(c.Clone(), lo, hi)
			if b == nil {
				return
			}
			if !slices.Equal(b.Dims(), shape.BlockDims(c)) {
				err = fmt.Errorf("sip: preset %s%v returned dims %v, want %v", name, c, b.Dims(), shape.BlockDims(c))
				return
			}
			w.dist.put(blockKey{job: w.rt.job, arr: arr, ord: ord}, b, false)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the program to completion.  On any failure it still
// reports done to the master — which keeps the shutdown protocol
// deadlock-free — and then lets failRun decide how the rest of the run
// unwinds.
func (w *worker) run() (err error) {
	defer operandPool.Put(w.ops)
	defer func() {
		if r := recover(); r != nil {
			if r == mpi.ErrAborted {
				err = fmt.Errorf("sip: worker %d: aborted after peer failure: %w", w.rank, mpi.ErrAborted)
				if f := w.rt.world.Failure(); f != nil {
					err = fmt.Errorf("sip: worker %d: aborted: %w: %w", w.rank, f, mpi.ErrAborted)
				}
			} else {
				err = fmt.Errorf("sip: worker %d: panic: %v", w.rank, r)
			}
		}
		if err == nil || w.rt.world.IsEvicted(w.rank) {
			// An evicted rank (pool Kill, liveness diagnosis) unwinding is
			// part of the recovery, not a failure to report.  The master
			// already tracks the eviction, and a done report would wrongly
			// mark the rank finished — suppressing the re-queue of its
			// in-flight iterations.
			return
		}
		// The done report carries a diagnosed rank failure structurally
		// (failRank) so the master can rebuild the RankFailure even when
		// the relay wins the race against its own detection.  It is sent
		// before failRun aborts anything: on every connection the report
		// then travels ahead of the poison frame, so the master learns
		// *this* error rather than a bare abort.
		d := doneMsg{origin: w.rank, err: err.Error(), failRank: -1}
		var rf *mpi.RankFailure
		if errors.As(err, &rf) {
			d.failRank, d.failReason = rf.Rank, rf.Reason
		}
		w.comm.Send(0, w.rt.tag(tagDone), d)
		w.rt.failRun(err)
	}()
	if err := w.initPresets(); err != nil {
		return err
	}
	// All homes are initialized before anyone can fetch.  The round-0
	// release may carry a resume base (Config.Resume): installState then
	// jumps this worker to the snapshot's program point before the
	// interpreter loop starts.
	if _, err := w.masterSync(syncBarrier, -1, false); err != nil {
		return err
	}

	code := w.rt.prog.Code
	w.clock = clockNow()
	for {
		in := &code[w.pc]
		switch in.Op {
		case bytecode.OpHalt:
			if w.text != nil {
				w.trace(in)
			}
			return w.shutdown()
		default:
			if err := w.exec(in); err != nil {
				return fmt.Errorf("sip: worker %d: pc %d line %d (%s): %w",
					w.rank, w.pc, in.Line, in.Op, err)
			}
		}
	}
}

// failRun is the one place a worker's failure decides how the run
// unwinds.  Peers may be parked in a sync round this worker will never
// reach.  A pool job leaves them to the done report: the master writes
// the failed worker off, the survivors drain the program, and the world
// every tenant shares stays up — a blamed rank (typically one already
// evicted by Pool.Kill, whose distributed blocks died with it) is the
// pool's business, not this job's.  A batch run owns its world and
// aborts it, so every rank unwinds now: with the diagnosis when the
// failure names a silent peer (a receive deadline), without one when
// the worker failed for a reason of its own.
func (rt *runtime) failRun(err error) {
	if rt.pooled || errors.Is(err, mpi.ErrAborted) {
		return // the pool drains the job; an aborted world needs no second abort
	}
	var rf *mpi.RankFailure
	if errors.As(err, &rf) {
		rt.world.Fail(rf.Rank, rf.Reason)
	} else {
		rt.world.Poison()
	}
}

// shutdown runs the end-of-program protocol.  Service loops stay alive
// until the master has heard from every worker, so late get/put requests
// from stragglers are still answered; the master shuts them down.
func (w *worker) shutdown() error {
	// The final sync round: any iterations a freshly dead worker still
	// held are replayed here before anyone reports done.
	if _, err := w.masterSync(syncBarrier, -1, false); err != nil {
		return err
	}
	if w.rt.cfg.GatherArrays {
		arrays := map[int][]ArrayBlock{}
		w.dist.each(func(k blockKey, b *block.Block) {
			arrays[k.arr] = append(arrays[k.arr], ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
		})
		w.comm.Send(0, w.rt.tag(tagGather), gatherMsg{origin: w.rank, arrays: arrays})
	}
	// Collectives make scalars identical across workers.  Every worker
	// reports them (the first one may be dead) and the master keeps the
	// lowest-ranked survivor's values, so it never shares memory with a
	// worker.
	w.comm.Send(0, w.rt.tag(tagDone), doneMsg{origin: w.rank, failRank: -1,
		scalars: append([]float64(nil), w.scalars...)})
	return nil
}

// exec dispatches one instruction.  On return the pc has been advanced.
// Every instruction is counted at its pc, but only a super instruction
// reads the clock (paper §VI-B: the profile times super instructions):
// it is charged the time since the previous one ended, which includes the
// scalar and branch ops between them.
func (w *worker) exec(in *bytecode.Instr) error {
	if w.text != nil {
		t := clockNow()
		w.trace(in)
		w.clock += clockNow() - t // the trace line is not the instructions' time
	}
	start := w.clock
	next := w.pc + 1
	switch in.Op {
	case bytecode.OpNop:

	// --- scalar stack ---
	case bytecode.OpPushLit:
		w.push(in.F)
	case bytecode.OpPushScalar:
		w.push(w.scalars[in.A])
	case bytecode.OpPushParam:
		w.push(float64(w.rt.layout.ParamVal(in.A)))
	case bytecode.OpPushIndex:
		if !w.idxBound[in.A] {
			return fmt.Errorf("index %s has no value", w.rt.prog.Indices[in.A].Name)
		}
		w.push(float64(w.idxVal[in.A]))
	case bytecode.OpAdd:
		r, l := w.pop(), w.pop()
		w.push(l + r)
	case bytecode.OpSub:
		r, l := w.pop(), w.pop()
		w.push(l - r)
	case bytecode.OpMul:
		r, l := w.pop(), w.pop()
		w.push(l * r)
	case bytecode.OpDiv:
		r, l := w.pop(), w.pop()
		w.push(l / r)
	case bytecode.OpCmp:
		r, l := w.pop(), w.pop()
		if bytecode.EvalCmp(in.A, l, r) {
			w.push(1)
		} else {
			w.push(0)
		}
	case bytecode.OpStoreScalar:
		v := w.pop()
		switch in.B {
		case bytecode.AssignSet:
			w.scalars[in.A] = v
		case bytecode.AssignAdd:
			w.scalars[in.A] += v
		case bytecode.AssignSub:
			w.scalars[in.A] -= v
		case bytecode.AssignMul:
			w.scalars[in.A] *= v
		}
	case bytecode.OpDot:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		w.push(block.Dot(a, b))

	// --- control flow ---
	case bytecode.OpJump:
		next = in.A
	case bytecode.OpJumpIfFalse:
		if w.pop() == 0 {
			next = in.A
		}
	case bytecode.OpDoStart:
		lo, hi := w.rt.layout.IndexRange(in.A)
		if lo > hi {
			next = in.C
			break
		}
		w.pushLoop(frameDo, in.A, lo, hi)
	case bytecode.OpDoInStart:
		sub := w.rt.layout.Indices[in.A]
		super := w.rt.layout.Indices[in.B]
		if !w.idxBound[in.B] {
			return fmt.Errorf("do %s in %s: super index unbound", sub.Name, super.Name)
		}
		lo, hi := super.SubSegments(sub, w.idxVal[in.B])
		if lo > hi {
			next = in.C
			break
		}
		w.pushLoop(frameDoIn, in.A, lo, hi)
	case bytecode.OpDoEnd, bytecode.OpDoInEnd:
		f := &w.frames[len(w.frames)-1]
		f.cur++
		if f.cur <= f.hi {
			w.bind(f.idx, f.cur)
			next = f.startPC + 1
		} else {
			w.unbind(f.idx)
			w.frames = w.frames[:len(w.frames)-1]
		}
	case bytecode.OpPardoStart:
		w.pardoPCs[in.A] = w.pc // all workers pass here; replay re-enters at pc+1
		gen := w.pardoGen[in.A]
		w.pardoGen[in.A]++
		f := frame{kind: framePardo, pid: in.A, cur: gen, startPC: w.pc, exitPC: in.C, started: start}
		if w.rt.cfg.CkptInterval > 0 {
			f.entryScalars = append([]float64(nil), w.scalars...)
		}
		chunk, err := w.fetchChunk(in.A, gen, f.entryScalars)
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			w.prof.pardoDone(in.A, clockNow()-f.started, 0)
			next = in.C
			break
		}
		f.chunk = chunk
		w.frames = append(w.frames, f)
		w.setIteration(in.A, chunk[0])
	case bytecode.OpPardoEnd:
		f := &w.frames[len(w.frames)-1]
		w.clearTemps()
		f.pos++
		f.iters++
		f.effectN = 0
		if f.pos >= len(f.chunk) {
			if f.replay {
				f.chunk = nil // replay runs exactly the ordered iterations
			} else {
				chunk, err := w.fetchChunk(f.pid, f.cur, f.entryScalars)
				if err != nil {
					return err
				}
				f.chunk = chunk
			}
			f.pos = 0
		}
		if len(f.chunk) > 0 {
			w.setIteration(f.pid, f.chunk[f.pos])
			next = f.startPC + 1
		} else {
			for _, id := range w.rt.prog.Pardos[f.pid].Indices {
				w.unbind(id)
			}
			w.prof.pardoDone(f.pid, clockNow()-f.started, f.iters)
			next = f.exitPC
			w.frames = w.frames[:len(w.frames)-1]
		}
	case bytecode.OpCall:
		w.frames = append(w.frames, frame{kind: frameCall, retPC: w.pc + 1,
			procID: in.A, started: start})
		next = w.rt.prog.Procs[in.A].Entry
	case bytecode.OpReturn:
		f := w.frames[len(w.frames)-1]
		if f.kind != frameCall {
			return fmt.Errorf("return outside procedure")
		}
		w.prof.procDone(f.procID, clockNow()-f.started)
		w.frames = w.frames[:len(w.frames)-1]
		next = f.retPC

	// --- block super instructions ---
	case bytecode.OpBlockFill:
		v := w.pop()
		loc := &w.ops.dst
		if err := w.locate(in.R[0], loc); err != nil {
			return err
		}
		b := w.pool.get(loc.extent())
		b.Fill(v)
		if err := w.storePooled(in.R[0], loc, b, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockCopy:
		src, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		loc := &w.ops.dst
		if err := w.locate(in.R[0], loc); err != nil {
			return err
		}
		// Only a whole-block assignment keeps its value and so needs a copy.
		switch {
		case in.A == bytecode.CopyPermute && !block.IdentityPerm(in.Aux):
			var dims [maxRank]int
			val := w.pool.get(src.PermutedDims(dims[:0], in.Aux))
			src.PermuteInto(val, in.Aux)
			err = w.storePooled(in.R[0], loc, val, in.B)
		case loc.region || in.B != bytecode.AssignSet:
			err = w.storeDst(in.R[0], loc, src, in.B)
		default:
			val := w.pool.get(src.Dims())
			val.CopyFrom(src)
			err = w.storePooled(in.R[0], loc, val, in.B)
		}
		if err != nil {
			return err
		}
	case bytecode.OpBlockScale:
		v := w.pop()
		src, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		val := w.pool.get(src.Dims())
		val.CopyFrom(src)
		val.Scale(v)
		loc := &w.ops.dst
		if err := w.locate(in.R[0], loc); err != nil {
			return err
		}
		if err := w.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpBlockSum:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		val := w.pool.get(a.Dims())
		val.CopyFrom(a)
		if in.A == 0 {
			val.AddScaled(1, b)
		} else {
			val.AddScaled(-1, b)
		}
		loc := &w.ops.dst
		if err := w.locate(in.R[0], loc); err != nil {
			return err
		}
		if err := w.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}
	case bytecode.OpContract:
		a, err := w.readBlock(in.R[1])
		if err != nil {
			return err
		}
		b, err := w.readBlock(in.R[2])
		if err != nil {
			return err
		}
		loc := &w.ops.dst
		if err := w.locate(in.R[0], loc); err != nil {
			return err
		}
		val := w.pool.get(loc.extent())
		flops, err := block.ContractInto(val, block.Spec{A: in.R[1].Idx, B: in.R[2].Idx, C: in.R[0].Idx}, a, b)
		if err != nil {
			return err
		}
		w.prof.addFlops(flops)
		if err := w.storePooled(in.R[0], loc, val, in.B); err != nil {
			return err
		}

	// --- communication super instructions ---
	case bytecode.OpGet, bytecode.OpRequest:
		if err := w.doGet(in.R[0]); err != nil {
			return err
		}
	case bytecode.OpPut, bytecode.OpPrepare:
		if err := w.doPut(in.R[0], in.R[1], in.A == 1); err != nil {
			return err
		}
	case bytecode.OpComputeIntegrals:
		if err := w.doComputeIntegrals(in.R[0]); err != nil {
			return err
		}
	case bytecode.OpExecute:
		if err := w.doExecute(in); err != nil {
			return err
		}
	case bytecode.OpBarrier:
		kind := syncBarrier
		if in.A == 1 {
			kind = syncServerBarrier
		}
		if err := w.barrier(kind); err != nil {
			return err
		}
	case bytecode.OpCollective:
		rep, err := w.masterSync(syncCollective, in.A, true)
		if err != nil {
			return err
		}
		if len(rep.vals) > 0 {
			w.scalars[in.A] = rep.vals[0]
		}
	case bytecode.OpPrint:
		if w.rank == w.rt.workerList[0] { // one worker prints: the lowest-indexed
			w.rt.outMu.Lock()
			if in.A >= 0 {
				fmt.Fprint(w.rt.cfg.Output, w.rt.prog.Strings[in.A])
			}
			if in.B >= 0 {
				if in.A >= 0 {
					fmt.Fprint(w.rt.cfg.Output, " ")
				}
				fmt.Fprintf(w.rt.cfg.Output, "%.12g", w.scalars[in.B])
			}
			fmt.Fprintln(w.rt.cfg.Output)
			w.rt.outMu.Unlock()
		}
	case bytecode.OpBlocksToList:
		if err := w.checkpointSave(in.A); err != nil {
			return err
		}
	case bytecode.OpListToBlocks:
		if err := w.checkpointLoad(in.A); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	var d time.Duration
	if in.Op.Super() {
		w.clock = clockNow()
		d = w.clock - start
		if w.trk != nil {
			w.trk.Complete(clockEpoch.Add(start), d, obs.CatInterp, in.Op.String(), obs.AInt("line", in.Line))
			w.clock = clockNow() // recording the span is not the next instruction's time
		}
	}
	w.prof.record(w.pc, d)
	w.pc = next
	return nil
}

// trace writes the text trace line of the instruction about to execute,
// including the active pardo iteration's index values.
func (w *worker) trace(in *bytecode.Instr) {
	iter := ""
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].kind == framePardo {
			pd := w.rt.prog.Pardos[w.frames[i].pid]
			parts := make([]string, len(pd.Indices))
			for d, id := range pd.Indices {
				parts[d] = fmt.Sprintf("%s=%d", w.rt.prog.Indices[id].Name, w.idxVal[id])
			}
			iter = " [" + strings.Join(parts, ",") + "]"
			break
		}
	}
	fmt.Fprintf(w.text, "w%d pc=%-4d line=%-3d %s%s\n", w.rank, w.pc, in.Line, in.Op, iter)
}

func (w *worker) push(v float64) { w.stack = append(w.stack, v) }

func (w *worker) pop() float64 {
	v := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	return v
}

func (w *worker) bind(id, v int) {
	w.idxVal[id] = v
	w.idxBound[id] = true
}

func (w *worker) unbind(id int) { w.idxBound[id] = false }

// pushLoop enters a do or do-in loop at its first value.
func (w *worker) pushLoop(kind, idx, lo, hi int) {
	w.frameSeq++
	w.frames = append(w.frames, frame{kind: kind, idx: idx, cur: lo, hi: hi, startPC: w.pc, seq: w.frameSeq})
	w.bind(idx, lo)
}

// setIteration binds the pardo indices to one iteration's values.
func (w *worker) setIteration(pid int, vals []int) {
	for i, id := range w.rt.prog.Pardos[pid].Indices {
		w.bind(id, vals[i])
	}
}

// clearTemps recycles all per-iteration temp blocks into the block pool
// (paper §V-B: worker memory is managed as stacks of preallocated
// blocks, so steady-state iterations allocate nothing).
func (w *worker) clearTemps() {
	for _, b := range w.temps {
		w.pool.put(b)
	}
	clear(w.temps)
}

// recvFrom waits for the message src owes this worker on tag.  It cannot
// do without it: an evicted debtor fails the wait, naming it.
func (w *worker) recvFrom(src, tag int, what waitFor) (mpi.Message, error) {
	for {
		m, ok, err := w.rt.await(w.comm, src, tag, tag, what, nil, nil)
		if ok || err != nil {
			return m, err
		}
		if reason, dead := w.rt.world.Evicted()[src]; dead {
			return m, &mpi.RankFailure{Rank: src, Reason: fmt.Sprintf("evicted (%s) owing worker %d a %s", reason, w.rank, what)}
		}
	}
}

// fetchChunk asks the master for the next iterations of a pardo
// execution ("Initially, the set of iterations ... is divided into
// 'chunks' and doled out to the workers.  When a worker completes its
// chunk, it requests another chunk from the master", paper §V-B).
func (w *worker) fetchChunk(pid, gen int, entry []float64) ([][]int, error) {
	var start time.Time
	if w.trk != nil {
		start = time.Now()
	}
	var delta []float64
	if entry != nil {
		// Cumulative scalar contribution since pardo entry: requesting
		// chunk N+1 implies chunks 1..N are complete, so this is the
		// completed-iteration watermark the checkpointing master records.
		delta = make([]float64, len(w.scalars))
		for i := range delta {
			delta[i] = w.scalars[i] - entry[i]
		}
	}
	w.comm.Send(0, w.rt.tag(tagChunkReq), chunkMsg{pardo: pid, gen: gen, origin: w.rank, delta: delta})
	m, err := w.recvFrom(0, w.rt.tag(tagChunkRep), waitFor{what: "chunk reply from the master"})
	if err != nil {
		return nil, err
	}
	rep := m.Data.(chunkReply)
	if w.trk != nil {
		// Flow-in half of the master's dispatch_chunk flow-out.
		w.trk.FlowIn(start, msgFlowID(0, w.rank, w.rt.tag(tagChunkRep)),
			obs.CatChunk, "fetch_chunk",
			obs.AInt("pardo", pid), obs.AInt("iters", len(rep.iters)))
	}
	return rep.iters, nil
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
func (w *worker) locate(ref bytecode.Ref, loc *refLoc) error {
	if len(ref.Idx) > maxRank {
		return fmt.Errorf("array %s has rank %d, the SIP handles at most %d", w.rt.prog.Arrays[ref.Arr].Name, len(ref.Idx), maxRank)
	}
	loc.rank = len(ref.Idx)
	loc.region = ref.Region()
	if loc.region {
		if err := w.locateRegion(ref, loc); err != nil {
			return err
		}
	} else {
		val, bound := w.idxVal, w.idxBound // loc's stores cannot alias them
		for i, id := range ref.Idx {
			if !bound[id] {
				return fmt.Errorf("index %s has no value", w.rt.prog.Indices[id].Name)
			}
			loc.coord[i] = val[id]
		}
	}
	ord, err := w.rt.layout.Shapes[ref.Arr].Locate(loc.coord[:loc.rank], loc.dims[:loc.rank])
	if err != nil {
		return err
	}
	loc.key = blockKey{job: w.rt.job, arr: ref.Arr, ord: ord}
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
func (w *worker) locateRegion(ref bytecode.Ref, loc *refLoc) error {
	prog, layout := w.rt.prog, w.rt.layout
	dims := prog.Arrays[ref.Arr].Dims
	for i, id := range ref.Idx {
		parent := prog.Indices[id].Parent
		if parent < 0 || prog.Indices[dims[i]].Parent >= 0 {
			parent = id // not a subindex against a super dimension
		}
		if !w.idxBound[id] || !w.idxBound[parent] {
			return fmt.Errorf("index %s has no value", prog.Indices[id].Name)
		}
		loc.coord[i] = w.idxVal[id]
		loc.rlo[i], loc.rext[i] = 0, 0
		if parent != id {
			loc.coord[i] = w.idxVal[parent]
			blockLo, _ := layout.Indices[parent].SegBounds(loc.coord[i])
			subLo, subHi := layout.Indices[id].SegBounds(w.idxVal[id])
			loc.rlo[i] = subLo - blockLo
			loc.rext[i] = subHi - subLo + 1
		}
	}
	return nil
}

// localMap returns the worker-local map holding blocks of the given
// array kind, or nil for communicated arrays.
func (w *worker) localMap(kind bytecode.ArrayKind) map[bytecode.LocalKey]*block.Block {
	switch kind {
	case bytecode.ArrayTemp:
		return w.temps
	case bytecode.ArrayLocal:
		return w.locals
	case bytecode.ArrayStatic:
		return w.statics
	}
	return nil
}

// readBlock resolves a reference to a block value: local blocks from the
// worker maps, distributed/served blocks from the cache (waiting for
// in-flight fetches and charging the wait to the enclosing pardo).
// Region references return the extracted subblock.
func (w *worker) readBlock(ref bytecode.Ref) (*block.Block, error) {
	loc := &w.ops.src
	if err := w.locate(ref, loc); err != nil {
		return nil, err
	}
	var b *block.Block
	if m := w.localMap(ref.Kind()); m != nil {
		b = m[loc.local()]
		if b == nil {
			return nil, fmt.Errorf("read of uninitialized %s block %s%v", ref.Kind(), w.rt.prog.Arrays[ref.Arr].Name, loc.at())
		}
	} else {
		e := w.cache.lookup(loc.key)
		if e == nil {
			return nil, fmt.Errorf("block %s%v used without get/request", w.rt.prog.Arrays[ref.Arr].Name, loc.at())
		}
		var err error
		b, err = w.waitBlock(e)
		if err != nil {
			return nil, err
		}
	}
	if loc.region {
		return b.Extract(loc.sub()), nil
	}
	return b, nil
}

// waitBlock waits for an in-flight fetch, recording the wait time
// against the innermost pardo (paper §VI-B: per-pardo wait times are the
// primary tuning signal).
func (w *worker) waitBlock(e *cacheEntry) (*block.Block, error) {
	if !e.pending() {
		return e.b, nil
	}
	start := time.Now()
	// Capture the responder and reply tag before the wait consumes the
	// request: they key the flow event pairing this wait with the remote
	// serve_get span in the merged trace.
	flowSrc, flowTag := e.req.Source(), e.req.Tag()
	if err := w.awaitBlock(e); err != nil {
		return nil, err
	}
	d := time.Since(start)
	w.prof.addWait(w.currentPardo(), d)
	w.waitHist.Observe(int64(d))
	if w.trk != nil {
		w.trk.FlowIn(start, msgFlowID(flowSrc, w.rank, flowTag),
			obs.CatWait, "wait_block", obs.A("block", e.key.String()))
	}
	return e.b, nil
}

// awaitBlock completes e's fetch.  A distributed block died with an
// evicted home (recvFrom's failure stands); a served block is asked of its
// next live replica.  That retry is bounded by the replica count: each
// failover moves down the (finite, shrinking) live-replica order, and
// when none remain the block is unrecoverable.
func (w *worker) awaitBlock(e *cacheEntry) error {
	served := w.rt.prog.Arrays[e.key.arr].Kind == bytecode.ArrayServed
	for {
		src := e.req.Source()
		m, err := w.recvFrom(src, e.req.Tag(), waitFor{what: "reply for block", key: &e.key})
		if err == nil {
			e.complete(m)
			return nil
		}
		if !served || !w.rt.world.IsEvicted(src) {
			return err
		}
		replicas := w.replicaServers(e.key.arr, e.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("sip: worker %d: block %s: every replica server is dead", w.rank, e.key)
		}
		w.failoverCtr.Inc()
		if w.trk != nil {
			w.trk.Instant(obs.CatGet, "read_failover",
				obs.A("block", e.key.String()), obs.AInt("from", src), obs.AInt("to", replicas[0]))
		}
		replyTag := w.replyTag()
		e.req = w.comm.Irecv(replicas[0], replyTag)
		w.comm.Send(replicas[0], tagServer, getMsg{key: e.key, replyTag: replyTag, origin: w.rank})
	}
}

// currentPardo returns the innermost active pardo id, or -1.
func (w *worker) currentPardo() int {
	for i := len(w.frames) - 1; i >= 0; i-- {
		if w.frames[i].kind == framePardo {
			return w.frames[i].pid
		}
	}
	return -1
}

// storePooled is storeDst for a value drawn from the block pool, which
// gets it back unless the destination kept it (a whole-block assignment).
func (w *worker) storePooled(ref bytecode.Ref, loc *refLoc, val *block.Block, mode int) error {
	err := w.storeDst(ref, loc, val, mode)
	if err != nil || loc.region || mode != bytecode.AssignSet {
		w.pool.put(val)
	}
	return err
}

// storeDst writes a computed value into a destination reference with the
// given assign mode.  A whole-block assignment keeps val itself and
// recycles the temp block it replaces (sends clone, so nothing else holds
// it); every other store only reads val, and a region destination
// read-modify-writes the base block.
func (w *worker) storeDst(ref bytecode.Ref, loc *refLoc, val *block.Block, mode int) error {
	m := w.localMap(ref.Kind())
	if m == nil {
		return fmt.Errorf("direct write to %s array %s", ref.Kind(), w.rt.prog.Arrays[ref.Arr].Name)
	}
	if mode != bytecode.AssignSet && mode != bytecode.AssignAdd && mode != bytecode.AssignSub {
		return fmt.Errorf("unsupported assign mode %d for block destination", mode)
	}
	cur := m[loc.local()]
	if mode == bytecode.AssignSet && !loc.region {
		if !slices.Equal(val.Dims(), loc.blockDims()) {
			return fmt.Errorf("assignment to %s%v: got dims %v", w.rt.prog.Arrays[ref.Arr].Name, loc.at(), val.Dims())
		}
		if cur != nil && cur != val && ref.Kind() == bytecode.ArrayTemp {
			w.pool.put(cur)
		}
		m[loc.local()] = val
		return nil
	}
	if cur == nil {
		cur = w.pool.get(loc.blockDims())
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
// block's location and start an asynchronous fetch unless it is already
// cached, then let look-ahead request what the enclosing loops name next.
func (w *worker) doGet(ref bytecode.Ref) error {
	loc := &w.ops.dst
	if err := w.locate(ref, loc); err != nil {
		return err
	}
	if e := w.cache.lookup(loc.key); e != nil {
		e.pending() // receives the reply if it is there
	} else if err := w.startFetch(ref.Arr, loc, false); err != nil {
		return err
	}
	if w.aheadCap > 0 {
		w.lookAhead(ref)
	}
	return nil
}

// startFetch begins an asynchronous fetch of one block into the cache,
// for the program or for look-ahead (ahead), which skips locally homed
// blocks: copying one is as cheap when the program asks.  Served blocks
// are requested from their primary replica; the error is non-nil only
// when every replica of the block has been evicted.
func (w *worker) startFetch(arrID int, loc *refLoc, ahead bool) error {
	arr := &w.rt.prog.Arrays[arrID]
	var home int
	if arr.Kind == bytecode.ArrayServed {
		replicas := w.replicaServers(arrID, loc.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("request %s%v: every replica server is dead", arr.Name, loc.at())
		}
		home = replicas[0]
	} else {
		home = w.rt.homeWorker(arrID, loc.key.ord)
	}
	if home == w.rank {
		if !ahead {
			// Locally homed: copy out of the store under its lock.
			b := w.pool.get(loc.blockDims())
			w.dist.copyInto(loc.key, b)
			w.cache.insert(loc.key, b, nil, false)
		}
		return nil
	}
	replyTag := w.replyTag()
	req := w.comm.Irecv(home, replyTag)
	// Worker homes listen on this job's strided service tag; I/O servers
	// are shared across jobs and listen on the global tagServer (the
	// job travels in the block key).
	msgTag := w.rt.tag(tagService)
	if arr.Kind == bytecode.ArrayServed {
		msgTag = tagServer
	}
	w.comm.Send(home, msgTag, getMsg{key: loc.key, replyTag: replyTag, origin: w.rank})
	w.prof.fetches++
	if ahead {
		w.prof.prefetches++
	}
	if w.trk != nil {
		w.trk.Instant(obs.CatGet, "fetch_issued",
			obs.A("block", loc.key.String()), obs.AInt("home", home))
	}
	w.cache.insert(loc.key, nil, req, ahead)
	return nil
}

// replyTag returns the tag of this worker's next block reply, wrapping
// inside the job's reply window: a long run never walks into the next
// pool tenant's tags.
func (w *worker) replyTag() int {
	t := w.rt.tag(tagReplyBase) + w.nextReply
	w.nextReply = (w.nextReply + 1) % (jobTagStride - tagReplyBase)
	return t
}

// replicaServers is rt.replicaServers into this worker's scratch: the
// result is valid until the interpreter's next call.
func (w *worker) replicaServers(arr, ord int) []int {
	w.replicas = w.rt.replicaServers(w.replicas, arr, ord)
	return w.replicas
}

// aheadSite is the look-ahead cursor of one get/request instruction: the
// farthest position requested (pos) in entry seq of its outermost loop.
type aheadSite struct{ seq, pos int }

// lookAhead requests the blocks the get at w.pc will name next (paper
// §V-A: "The SIP looks ahead and requests several blocks that it expects
// will be needed soon").  The loops around the get form an odometer: the
// plain do frames from the innermost outwards, ending with a do-in frame
// (its range follows its parent, so it cannot be a digit that wraps) or
// below a call or the pardo iteration (the next one is the master's to
// name, and a barrier may come first).  The site's cursor slides over the
// odometer's positions, at most PrefetchWindow ahead of the loops: an
// execution requests only the new far edge, across inner-loop boundaries.
// Blocks requested ahead and not yet asked for stay within aheadCap and
// within the room the cache has: a window the cache cannot hold thrashes
// (the BlueGene/P port, §VI-A).
func (w *worker) lookAhead(ref bytecode.Ref) {
	bot := len(w.frames)
	for bot > 0 && w.frames[bot-1].kind == frameDo {
		bot--
	}
	if bot > 0 && w.frames[bot-1].kind == frameDoIn {
		bot--
	}
	digits := w.frames[bot:]
	if len(digits) == 0 {
		return
	}
	cur, last := 0, 0
	for i := range digits {
		lo, n := w.span(&digits[i])
		cur = cur*n + digits[i].cur - lo
		last = last*n + digits[i].hi - lo
	}
	if w.sites == nil {
		w.sites = make([]aheadSite, len(w.rt.prog.Code))
	}
	s := &w.sites[w.pc]
	if s.seq != digits[0].seq {
		// A new entry of the outermost loop: what look-ahead still waits
		// for, the program did not ask for.
		*s = aheadSite{seq: digits[0].seq}
		w.cache.settle()
	}
	s.pos = max(s.pos, cur)
	for s.pos < last && s.pos-cur < w.rt.cfg.PrefetchWindow && w.cache.nAhead < w.aheadCap && w.cache.room() {
		s.pos++
		p := s.pos
		for i := len(digits) - 1; i >= 0; i-- {
			lo, n := w.span(&digits[i])
			w.idxVal[digits[i].idx] = lo + p%n
			p /= n
		}
		if loc := &w.ops.ahead; w.locate(ref, loc) == nil && w.cache.entries[loc.key] == nil {
			_ = w.startFetch(ref.Arr, loc, true) // best-effort: the demand fetch reports
		}
	}
	for i := range digits {
		w.idxVal[digits[i].idx] = digits[i].cur
	}
}

// span returns the low bound and trip count of a loop frame's index; for
// a do-in frame those of the whole subindex range, which serve a digit
// that does not wrap as well.
func (w *worker) span(f *frame) (lo, n int) {
	lo, _ = w.rt.layout.IndexRange(f.idx)
	return lo, f.hi - lo + 1
}

// doPut implements put (distributed) and prepare (served).
func (w *worker) doPut(dst, src bytecode.Ref, acc bool) error {
	loc := &w.ops.dst
	if err := w.locate(dst, loc); err != nil {
		return err
	}
	val, err := w.readBlock(src)
	if err != nil {
		return err
	}
	if !slices.Equal(val.Dims(), loc.blockDims()) {
		return fmt.Errorf("put %s%v: got dims %v", w.rt.prog.Arrays[dst.Arr].Name, loc.at(), val.Dims())
	}
	arr := &w.rt.prog.Arrays[dst.Arr]
	if w.trk != nil {
		w.trk.Instant(obs.CatPut, "put_issued",
			obs.A("block", loc.key.String()), obs.AInt("bytes", 8*val.Size()))
	}
	seq := w.effectSeq()
	// The source block may be reused next iteration, so no receiver may
	// share it: Multicast clones it per in-process receiver, while a
	// serializing transport encodes it once before returning — at most
	// one payload copy end-to-end over TCP, and zero clones for the
	// whole replica fan-out.
	msg := putMsg{key: loc.key, b: val, acc: acc, origin: w.rank, needAck: true, seq: seq}
	cloned := func() any {
		m := msg
		m.b = val.Clone()
		return m
	}
	if arr.Kind == bytecode.ArrayServed {
		// Fan out to every live replica; the quorum is all of them (dead
		// replicas' acks are written off on eviction, and the anti-entropy
		// pass restores the factor later).
		replicas := w.replicaServers(dst.Arr, loc.key.ord)
		if len(replicas) == 0 {
			return fmt.Errorf("prepare %s%v: every replica server is dead", arr.Name, loc.at())
		}
		w.comm.Multicast(replicas, tagServer, msg, cloned)
		for _, srv := range replicas {
			w.owedPrepAcks[srv]++
		}
	} else {
		home := w.rt.homeWorker(dst.Arr, loc.key.ord)
		switch {
		case home == w.rank:
			w.applyLocalPut(loc.key, val.Clone(), acc, seq)
		case w.rt.world.IsEvicted(home):
			// The home rank is gone and its partition with it; the block
			// is unrecoverable (distributed arrays are not durable under
			// recovery) — drop the put rather than wait on a dead rank.
		default:
			w.comm.Multicast([]int{home}, w.rt.tag(tagService), msg, cloned)
			w.owedPutAcks[home]++
		}
	}
	// Drop any stale cached copy of the block we just overwrote.
	w.cache.invalidate(loc.key)
	return nil
}

// doComputeIntegrals fills a block from Config.Integrals.  Its element
// bounds follow from the coordinate and dims locate has just checked
// against the shape, with no second range check per dimension.
func (w *worker) doComputeIntegrals(ref bytecode.Ref) error {
	loc := &w.ops.dst
	if err := w.locate(ref, loc); err != nil {
		return err
	}
	name := w.rt.prog.Arrays[ref.Arr].Name
	lo, hi := w.ops.bounds[0][:loc.rank], w.ops.bounds[1][:loc.rank]
	w.rt.layout.Shapes[ref.Arr].ElemBounds(loc.coord[:loc.rank], loc.blockDims(), lo, hi)
	b := w.rt.cfg.Integrals(name, lo, hi)
	if b == nil || !slices.Equal(b.Dims(), loc.blockDims()) {
		return fmt.Errorf("compute_integrals %s%v: generator returned wrong dims", name, loc.at())
	}
	w.localMap(ref.Kind())[loc.local()] = b
	return nil
}

func (w *worker) doExecute(in *bytecode.Instr) error {
	name := w.rt.prog.Strings[in.A]
	fn := w.rt.supers[in.A]
	if fn == nil {
		return fmt.Errorf("execute: super instruction %q not registered", name)
	}
	blocks := w.execBlocks[:0]
	var err error
	for i := 0; i < in.B && err == nil; i++ {
		var b *block.Block
		if b, err = w.execArg(in.R[i], name, &w.ops.exec.args[i]); b != nil {
			blocks = append(blocks, b)
		}
	}
	if err == nil {
		scalars := w.execScalars[:0]
		for _, id := range in.Aux {
			scalars = append(scalars, &w.scalars[id])
		}
		w.execScalars = scalars
		clear(w.ops.exec.args[in.B:]) // Block(i) of an absent argument is empty
		w.ops.exec.Worker, w.ops.exec.Layout = w.workerIndex(), w.rt.layout
		err = fn(&w.ops.exec, blocks, scalars)
	}
	for i, b := range blocks {
		if w.localMap(in.R[i].Kind()) == nil {
			w.pool.put(b) // the copy execArg made
		}
	}
	clear(blocks) // the scratch must not keep a dropped block alive
	w.execBlocks = blocks
	return err
}

// execArg resolves one block argument of execute, recording where it
// lies in at: a local block itself, created as zeros when absent, or a
// pooled copy of a communicated one, which protects the cache from
// mutation.
func (w *worker) execArg(ref bytecode.Ref, name string, at *argLoc) (*block.Block, error) {
	loc := &w.ops.dst
	if err := w.locate(ref, loc); err != nil {
		return nil, err
	}
	if loc.region {
		return nil, fmt.Errorf("execute %s: subblock arguments not supported", name)
	}
	at.rank, at.coord = loc.rank, loc.coord
	w.rt.layout.Shapes[ref.Arr].ElemBounds(loc.coord[:loc.rank], loc.blockDims(), at.lo[:loc.rank], at.hi[:loc.rank])
	if m := w.localMap(ref.Kind()); m != nil {
		b := m[loc.local()]
		if b == nil {
			b = block.New(loc.blockDims()...)
			m[loc.local()] = b
		}
		return b, nil
	}
	b, err := w.readBlock(ref)
	if err != nil {
		return nil, err
	}
	c := w.pool.get(b.Dims())
	c.CopyFrom(b)
	return c, nil
}

// drainAcks waits until every put (tagPutAck) or prepare (tagPrepAck)
// ack in owed, the per-destination count of outstanding ones, has
// arrived.  Acks owed by evicted ranks are written off: they will never
// arrive — a dead home's blocks died with it, a dead server's live on
// its surviving replicas.
func (w *worker) drainAcks(tag int, what string, owed map[int]int) error {
	for {
		for dst := range owed {
			if w.rt.world.IsEvicted(dst) {
				delete(owed, dst)
			}
		}
		if len(owed) == 0 {
			return nil
		}
		debtors := func() []int {
			ranks := make([]int, 0, len(owed))
			for dst := range owed {
				ranks = append(ranks, dst)
			}
			slices.Sort(ranks) // a verdict blames the lowest
			return ranks
		}
		m, ok, err := w.rt.await(w.comm, mpi.AnySource, w.rt.tag(tag), w.rt.tag(tag), waitFor{what: what}, debtors, nil)
		if err != nil {
			return err
		}
		// A stale ack from a destination whose debt was already written
		// off (delivered before the firewall went up) is ignored.
		if ok && owed[m.Source] > 0 {
			if owed[m.Source]--; owed[m.Source] == 0 {
				delete(owed, m.Source)
			}
		}
	}
}

// barrier separates conflicting accesses to distributed arrays
// (sip_barrier) or served arrays (server_barrier): all outstanding puts or
// prepares are applied, all workers rendezvous — at a server barrier the
// master then has the servers flush their dirty caches — and cached
// remote blocks are invalidated so later gets see the new values.
func (w *worker) barrier(kind int) error {
	if _, err := w.masterSync(kind, -1, true); err != nil {
		return err
	}
	w.cache.invalidateAll()
	return nil
}

// serviceLoop answers get/put requests against this worker's partition
// of the distributed arrays.  It runs concurrently with the interpreter,
// providing the asynchronous progress the paper's SIP achieves by
// periodically polling for messages (§V-B).
func (w *worker) serviceLoop() {
	// A poisoned run aborts this worker's mailbox; the blocked Recv
	// below then panics with ErrAborted instead of waiting for a
	// shutdown message that may never come.
	defer func() {
		if r := recover(); r != nil && r != mpi.ErrAborted {
			panic(r)
		}
	}()
	trk := w.rt.tracer.Track(w.rank, 1, fmt.Sprintf("worker %d", w.rank), "service")
	for {
		m := w.comm.Recv(mpi.AnySource, w.rt.tag(tagService))
		switch msg := m.Data.(type) {
		case getMsg:
			var start time.Time
			if trk != nil {
				start = time.Now()
			}
			dims := w.rt.layout.Shapes[msg.key.arr].BlockDims(w.rt.layout.Shapes[msg.key.arr].CoordOf(msg.key.ord))
			b := w.dist.getCopy(msg.key, dims)
			w.comm.Send(msg.origin, msg.replyTag, b)
			if trk != nil {
				// Flow-out endpoint matched by the requester's wait_block
				// flow-in (same responder/origin/replyTag triple).
				trk.FlowOut(start, msgFlowID(w.rank, msg.origin, msg.replyTag),
					obs.CatGet, "serve_get",
					obs.A("block", msg.key.String()), obs.AInt("origin", msg.origin))
			}
		case putMsg:
			var start time.Time
			if trk != nil {
				start = time.Now()
			}
			w.applyLocalPut(msg.key, msg.b, msg.acc, msg.seq)
			if msg.needAck {
				w.comm.Send(msg.origin, w.rt.tag(tagPutAck), ackMsg{})
			}
			if trk != nil {
				trk.End(start, obs.CatPut, "serve_put",
					obs.A("block", msg.key.String()), obs.AInt("origin", msg.origin))
			}
		case shutdownMsg:
			return
		}
	}
}

// checkpointSave implements blocks_to_list (paper §IV-C: used to pass
// data between SIAL programs and for rudimentary checkpointing): after a
// plain round — a neighbour that has not reached the instruction may still
// put into this partition — every worker reports a syncSave round carrying
// its partition of the array, and the master writes the whole array before
// it releases anyone.  The plain round is of a kind of its own, syncCkpt,
// which the snapshot subsystem never captures.
func (w *worker) checkpointSave(arrID int) error {
	if _, err := w.masterSync(syncCkpt, -1, false); err != nil {
		return err
	}
	rep, err := w.masterSync(syncSave, arrID, false)
	if err == nil && rep.err != "" {
		err = fmt.Errorf("blocks_to_list: %s", rep.err)
	}
	return err
}

// checkpointLoad implements list_to_blocks: every worker reports a
// syncLoad round, the master reads the serialized array once all are
// parked — so no put or get of the old contents is in flight — and
// releases each worker with the blocks that worker homes, which it
// installs directly into its own store.  The plain round after it keeps a
// neighbour's get from reaching a home that has not installed yet.
func (w *worker) checkpointLoad(arrID int) error {
	rep, err := w.masterSync(syncLoad, arrID, false)
	if err != nil {
		return err
	}
	if rep.err != "" {
		return fmt.Errorf("list_to_blocks: %s", rep.err)
	}
	w.dist.deleteArray(arrID)
	w.cache.invalidateAll()
	shape := w.rt.layout.Shapes[arrID]
	for _, ab := range rep.blocks {
		dims := shape.BlockDims(shape.CoordOf(ab.Ord))
		w.dist.put(blockKey{job: w.rt.job, arr: arrID, ord: ab.Ord}, block.FromData(ab.Data, dims...), false)
	}
	_, err = w.masterSync(syncCkpt, -1, false)
	return err
}

// masterSync reports this worker's arrival at a sync point and blocks
// until the master releases it.  The report is sent only after every
// outstanding put/prepare is acknowledged, so it doubles as the
// completion ack for all chunks this worker executed this phase.  When
// the master instead orders a replay of a dead worker's iterations, the
// worker executes them and re-reports the same round (building the report
// again: its payload and the captured state may have changed during the
// replay).  Returns the release.
//
// id is what the kind is about (-1 otherwise): the scalar a collective
// reduces, whose value is the contribution, or the array a syncSave round
// reports this worker's partition of and a syncLoad round restores.  With
// capture set and checkpointing on, the report carries this worker's
// interpreter state — the master's snapshot consistency points
// (snapshot.go).  A release carrying a state (the round-0 resume path)
// installs it before returning.
func (w *worker) masterSync(kind, id int, capture bool) (syncReply, error) {
	round := w.syncRound
	w.syncRound++
	for {
		if err := w.drainAcks(tagPutAck, "put ack", w.owedPutAcks); err != nil {
			return syncReply{}, err
		}
		if err := w.drainAcks(tagPrepAck, "prepare ack", w.owedPrepAcks); err != nil {
			return syncReply{}, err
		}
		report := syncMsg{origin: w.rank, round: round, kind: kind, scalar: -1}
		switch kind {
		case syncCollective:
			report.scalar, report.vals = id, []float64{w.scalars[id]}
		case syncLoad:
			report.arr = id
		case syncSave:
			report.arr = id
			w.dist.each(func(k blockKey, b *block.Block) {
				if k.arr == id {
					report.blocks = append(report.blocks, ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
				}
			})
		}
		if capture {
			report.state = w.captureState()
		}
		w.comm.Send(0, w.rt.tag(tagSync), report)
		// Block without a deadline: the master may legitimately stay
		// silent for as long as the slowest worker computes or a checkpoint
		// file takes to write.  The master is a critical rank — its death
		// fails the world and aborts this receive via the liveness monitor.
		m := w.comm.Recv(0, w.rt.tag(tagSyncRep))
		rep := m.Data.(syncReply)
		if rep.round != round {
			return rep, fmt.Errorf("sip: worker %d: sync reply for round %d at round %d", w.rank, rep.round, round)
		}
		if !rep.resume {
			// The release seals the phase; effects older than the previous
			// phase can no longer be replayed, so retire their dedup entries.
			w.retireSeenPuts()
			if rep.state != nil {
				w.installState(rep.state)
			}
			return rep, nil
		}
		if err := w.replayChunk(rep.pardo, rep.gen, rep.iters); err != nil {
			return rep, err
		}
	}
}

// captureState snapshots this worker's interpreter state at a sync
// point, or nil when a pardo frame is active (a barrier inside a pardo
// body is not an SPMD-consistent program point — workers hold different
// iterations).  resumePC is the instruction after the sync point: exec
// advances there when the release returns.
func (w *worker) captureState() *workerState {
	if w.rt.cfg.CkptInterval <= 0 {
		return nil
	}
	st := &workerState{
		resumePC:  w.pc + 1,
		syncRound: w.syncRound,
		scalars:   append([]float64(nil), w.scalars...),
		idxVal:    append([]int(nil), w.idxVal...),
		idxBound:  append([]bool(nil), w.idxBound...),
		pardoGen:  append([]int(nil), w.pardoGen...),
	}
	for i := range w.frames {
		f := &w.frames[i]
		if f.kind == framePardo {
			return nil
		}
		st.frames = append(st.frames, frameState{kind: f.kind, idx: f.idx,
			cur: f.cur, hi: f.hi, startPC: f.startPC, exitPC: f.exitPC,
			retPC: f.retPC, procID: f.procID})
	}
	return st
}

// installState jumps this worker to a snapshot's program point: pc,
// sync round numbering, scalars, index bindings, pardo generations, and
// the control stack (round-0 release of a resumed run).  The state was
// captured on some worker of the snapshotting run, but sync points are
// SPMD program points, so it is valid for every worker of this one.
func (w *worker) installState(st *workerState) {
	w.pc = st.resumePC
	w.syncRound = st.syncRound
	copy(w.scalars, st.scalars)
	copy(w.idxVal, st.idxVal)
	copy(w.idxBound, st.idxBound)
	copy(w.pardoGen, st.pardoGen)
	w.frames = w.frames[:0]
	for _, f := range st.frames {
		w.frames = append(w.frames, frame{kind: f.kind, idx: f.idx, cur: f.cur,
			hi: f.hi, startPC: f.startPC, exitPC: f.exitPC, retPC: f.retPC,
			procID: f.procID, started: clockNow()})
	}
	w.cache.invalidateAll()
}

// replayChunk re-executes iterations a dead worker held when it was
// evicted.  The pardo body runs exactly as in the original dispatch;
// put/prepare effects carry the same deterministic seqs, so any the
// dead worker already delivered are dropped at the destination.
func (w *worker) replayChunk(pid, gen int, iters [][]int) error {
	if len(iters) == 0 {
		return nil
	}
	code := w.rt.prog.Code
	startPC := w.pardoPCs[pid]
	base := len(w.frames)
	f := frame{kind: framePardo, pid: pid, cur: gen, startPC: startPC,
		exitPC: code[startPC].C, replay: true, chunk: iters, started: clockNow()}
	w.frames = append(w.frames, f)
	w.setIteration(pid, iters[0])
	savedPC := w.pc
	w.pc = startPC + 1
	w.clock = clockNow() // the replay ran no instruction while its sync round waited
	for len(w.frames) > base {
		in := &code[w.pc]
		if err := w.exec(in); err != nil {
			w.pc = savedPC
			return fmt.Errorf("sip: worker %d: replay pc %d line %d (%s): %w",
				w.rank, w.pc, in.Line, in.Op, err)
		}
	}
	w.pc = savedPC
	return nil
}

// effectSeq returns the deterministic id of the next put/prepare effect
// of the current pardo iteration, or 0 outside a pardo.  The id hashes
// (job, pardo, generation, iteration values, effect ordinal) — the job
// so a server deduping across tenants never drops one job's put for
// another's, and deliberately not the origin rank, so a survivor
// replaying a dead worker's iteration regenerates the same id.
func (w *worker) effectSeq() uint64 {
	for i := len(w.frames) - 1; i >= 0; i-- {
		f := &w.frames[i]
		if f.kind != framePardo {
			continue
		}
		h := mix64(mix64(mix64(0, uint64(w.rt.job)), uint64(f.pid)), uint64(f.cur))
		for _, x := range f.chunk[f.pos] {
			h = mix64(h, uint64(x))
		}
		h = mix64(h, uint64(f.effectN))
		f.effectN++
		if h == 0 {
			h = 1 // 0 means "no dedup"
		}
		return h
	}
	return 0
}

// applyLocalPut applies a put to this worker's partition, dropping
// replayed effects whose seq the ledger already holds (so accumulates
// land at-most-once).  Called from both the interpreter (local home) and
// the service loop, hence the lock.
func (w *worker) applyLocalPut(k blockKey, b *block.Block, acc bool, seq uint64) {
	if seq != 0 {
		w.seenMu.Lock()
		fresh := w.seen.mark(seq)
		w.seenMu.Unlock()
		if !fresh {
			w.dropCtr.Inc()
			return
		}
	}
	w.dist.put(k, b, acc)
}

// retireSeenPuts rotates the put ledger at a sync release and counts what
// it retired.
func (w *worker) retireSeenPuts() {
	w.seenMu.Lock()
	retired := w.seen.rotate()
	w.seenMu.Unlock()
	w.retireCtr.Add(int64(retired))
}
