// Package bytecode defines SIA super instruction byte code: the compiled
// form of a SIAL program that the SIP executes (paper §V-A).
//
// A Program holds a table of instructions plus data descriptor tables for
// parameters (symbolic constants), indices, arrays, scalars, string
// literals, pardo descriptors, and procedure entry points.  Symbolic
// values in the tables are replaced with concrete values during
// initialization (Resolve), exactly as the paper describes.
package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/segment"
)

// Op enumerates SIA byte-code operations.
type Op uint8

const (
	OpNop Op = iota

	// Scalar expression stack operations.
	OpPushLit     // push F
	OpPushScalar  // push scalar A
	OpPushIndex   // push current value of index A
	OpPushParam   // push parameter A
	OpAdd         // pop two, push sum
	OpSub         // pop two, push difference
	OpMul         // pop two, push product
	OpDiv         // pop two, push quotient
	OpCmp         // pop two, push (l <cmp A> r) as 0/1
	OpStoreScalar // pop into scalar A with assign mode B
	OpDot         // push elementwise inner product of blocks R1, R2

	// Control flow.
	OpJump        // jump to A
	OpJumpIfFalse // pop; jump to A when zero
	OpDoStart     // begin do over index A; exit target C
	OpDoEnd       // advance index A; loop start B
	OpDoInStart   // begin do A in super index B; exit target C
	OpDoInEnd     // advance subindex A; loop start B
	OpPardoStart  // begin pardo descriptor A; exit target C
	OpPardoEnd    // next pardo iteration, descriptor A; body start B
	OpCall        // call procedure A
	OpReturn      // return from procedure
	OpHalt        // end of program

	// Block super instructions.
	OpBlockFill  // R0 <assign B>= popped scalar
	OpBlockCopy  // R0 <assign B>= R1 (mode A: 0 permute/copy, 1 slice, 2 insert; Aux = permutation for mode 0)
	OpBlockScale // R0 <assign B>= popped scalar * R1
	OpBlockSum   // R0 <assign B>= R1 ± R2 (A: 0 plus, 1 minus)
	OpContract   // R0 <assign B>= R1 * R2 (labels are the index ids of the refs)

	// Communication and I/O super instructions.
	OpGet              // fetch distributed block R0 (asynchronous)
	OpPut              // store R1 into distributed block R0 (A: 0 replace, 1 accumulate)
	OpRequest          // fetch served block R0 (asynchronous)
	OpPrepare          // store R1 into served block R0 (A: 0 replace, 1 accumulate)
	OpComputeIntegrals // compute integral block R0 on demand
	OpExecute          // run super instruction named by string A with blocks R0..R2 (ranks in B) and scalars Aux
	OpBarrier          // A: 0 worker barrier, 1 server barrier
	OpCollective       // allreduce-sum scalar A across workers
	OpPrint            // print string A (or -1) and scalar B (or -1)
	OpBlocksToList     // serialize distributed array A (checkpoint)
	OpListToBlocks     // restore distributed array A from checkpoint
)

var opNames = map[Op]string{
	OpNop: "nop", OpPushLit: "push_lit", OpPushScalar: "push_scalar",
	OpPushIndex: "push_index", OpPushParam: "push_param", OpAdd: "add",
	OpSub: "sub", OpMul: "mul", OpDiv: "div", OpCmp: "cmp",
	OpStoreScalar: "store_scalar", OpDot: "dot", OpJump: "jump",
	OpJumpIfFalse: "jump_if_false", OpDoStart: "do_start", OpDoEnd: "do_end",
	OpDoInStart: "do_in_start", OpDoInEnd: "do_in_end",
	OpPardoStart: "pardo_start", OpPardoEnd: "pardo_end", OpCall: "call",
	OpReturn: "return", OpHalt: "halt", OpBlockFill: "block_fill",
	OpBlockCopy: "block_copy", OpBlockScale: "block_scale",
	OpBlockSum: "block_sum", OpContract: "contract", OpGet: "get",
	OpPut: "put", OpRequest: "request", OpPrepare: "prepare",
	OpComputeIntegrals: "compute_integrals", OpExecute: "execute",
	OpBarrier: "barrier", OpCollective: "collective", OpPrint: "print",
	OpBlocksToList: "blocks_to_list", OpListToBlocks: "list_to_blocks",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Super reports whether o is a super instruction, the unit the SIP's
// profile times (paper §VI-B).  The ops that are not touch only the
// scalar stack, the scalar table and the pc; every block, communication,
// sync, loop, pardo, call and print op is.
func (o Op) Super() bool {
	switch o {
	case OpNop, OpPushLit, OpPushScalar, OpPushIndex, OpPushParam,
		OpAdd, OpSub, OpMul, OpDiv, OpCmp, OpStoreScalar,
		OpJump, OpJumpIfFalse:
		return false
	}
	return true
}

// Comparison codes for OpCmp.
const (
	CmpLT = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

var cmpNames = [...]string{"<", "<=", ">", ">=", "==", "!="}

// EvalCmp applies a comparison code to two values.
func EvalCmp(code int, l, r float64) bool {
	switch code {
	case CmpLT:
		return l < r
	case CmpLE:
		return l <= r
	case CmpGT:
		return l > r
	case CmpGE:
		return l >= r
	case CmpEQ:
		return l == r
	case CmpNE:
		return l != r
	}
	panic(fmt.Sprintf("bytecode: bad comparison code %d", code))
}

// Assign modes for store/block operations.
const (
	AssignSet = iota
	AssignAdd
	AssignSub
	AssignMul
)

// Copy modes for OpBlockCopy.  CopySlice and CopyInsert are bit flags
// that may be combined (CopyBoth) for region-to-region copies.
const (
	CopyPermute = 0 // Aux holds the permutation (may be identity)
	CopySlice   = 1 // extract subblock (src ref uses subindices)
	CopyInsert  = 2 // insert subblock (dst ref uses subindices)
	CopyBoth    = 3 // subblock on both sides
)

// Ref names one block operand: an array and the index variables (by id)
// selecting the block.  Lower fills in what no execution changes: the
// array's kind, and whether some index is a subindex read against a
// super dimension (the reference names a region of its block).  Those
// facts are derived, never serialized.
type Ref struct {
	Arr int
	Idx []int

	kind   uint8 // ArrayKind
	region bool
}

// Valid reports whether the ref is populated.
func (r Ref) Valid() bool { return r.Idx != nil || r.Arr != 0 }

// Kind is the storage class of the referenced array (set by Lower).
func (r *Ref) Kind() ArrayKind { return ArrayKind(r.kind) }

// Region reports whether the reference names a region of its block: some
// index is a subindex whose array dimension is not (set by Lower).
func (r *Ref) Region() bool { return r.region }

// Instr is one byte-code instruction.  Field use depends on Op; see the
// Op constants.
type Instr struct {
	Op      Op
	A, B, C int
	F       float64
	R       [3]Ref
	Aux     []int
	Line    int // source line for diagnostics and profiling
}

// Val is an integer fixed at initialization: a literal, or a parameter
// reference by id.
type Val struct {
	Lit   int
	Param int // -1 when Lit is authoritative
}

// LitVal returns a literal Val.
func LitVal(v int) Val { return Val{Lit: v, Param: -1} }

// ParamVal returns a parameter-reference Val.
func ParamVal(id int) Val { return Val{Param: id} }

// Param is a symbolic constant supplied at initialization.
type Param struct {
	Name       string
	Default    int
	HasDefault bool
}

// IndexInfo describes one declared index.
type IndexInfo struct {
	Name   string
	Kind   segment.Kind
	Lo, Hi Val
	Parent int // index id of super index, or -1
}

// ArrayKind mirrors the SIAL storage classes.
type ArrayKind int

const (
	ArrayStatic ArrayKind = iota
	ArrayDistributed
	ArrayServed
	ArrayTemp
	ArrayLocal
)

var arrayKindNames = [...]string{"static", "distributed", "served", "temp", "local"}

func (k ArrayKind) String() string {
	if int(k) < len(arrayKindNames) {
		return arrayKindNames[k]
	}
	return "ArrayKind(?)"
}

// ArrayInfo describes one declared array.
type ArrayInfo struct {
	Name string
	Kind ArrayKind
	Dims []int // index ids
}

// ScalarInfo describes one scalar with its initial value.
type ScalarInfo struct {
	Name string
	Init float64
}

// PardoInfo describes one pardo loop: its index ids and its where
// clauses as scalar code.  Where is postfix code over literals, this
// pardo's indices and parameters: each clause is its left side, its
// right side and one OpCmp, and an iteration passes when every OpCmp
// holds (PardoInfo.Passes; Validate enforces the shape).
type PardoInfo struct {
	Indices []int
	Where   []Instr
}

// ProcInfo records a procedure's entry point in the code array.
type ProcInfo struct {
	Name  string
	Entry int
}

// Program is a complete compiled SIAL program.
type Program struct {
	Name    string
	Params  []Param
	Indices []IndexInfo
	Arrays  []ArrayInfo
	Scalars []ScalarInfo
	Strings []string
	Pardos  []PardoInfo
	Procs   []ProcInfo
	Code    []Instr

	lowered bool
}

// Lower fixes, in every block reference of the code, the facts that
// depend only on the program (Ref.Kind, Ref.Region), so an interpreter
// need not derive them per execution.  The compiler and Read lower what
// they return; a program built by hand must be lowered before Resolve,
// and before it is shared, since Lower writes the code.  The references
// must be valid (Validate).  Only the slots an opcode uses are lowered:
// Validate checks no other, so what they hold is never read.
func (p *Program) Lower() {
	for pc := range p.Code {
		in := &p.Code[pc]
		for r := range in.R {
			if in.refSlots()&(1<<r) == 0 {
				continue
			}
			ref := &in.R[r]
			arr := &p.Arrays[ref.Arr]
			ref.kind, ref.region = uint8(arr.Kind), false
			for i, id := range ref.Idx {
				if p.Indices[id].Parent >= 0 && p.Indices[arr.Dims[i]].Parent < 0 {
					ref.region = true
				}
			}
		}
	}
	p.lowered = true
}

// refSlots returns the operand slots of in that hold block references,
// as a bit set over R: the slots Validate checks and Lower lowers.
func (in *Instr) refSlots() uint8 {
	switch in.Op {
	case OpBlockFill, OpGet, OpRequest, OpComputeIntegrals:
		return 0b001
	case OpBlockCopy, OpBlockScale, OpPut, OpPrepare:
		return 0b011
	case OpBlockSum, OpContract:
		return 0b111
	case OpDot:
		return 0b110
	case OpExecute:
		if in.B >= 0 && in.B <= len(in.R) {
			return 1<<in.B - 1
		}
	}
	return 0
}

// ParamID returns the id of the named parameter or -1.
func (p *Program) ParamID(name string) int {
	for i, pr := range p.Params {
		if pr.Name == name {
			return i
		}
	}
	return -1
}

// ArrayID returns the id of the named array or -1.
func (p *Program) ArrayID(name string) int {
	for i, a := range p.Arrays {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// ScalarID returns the id of the named scalar or -1.
func (p *Program) ScalarID(name string) int {
	for i, s := range p.Scalars {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// IndexID returns the id of the named index or -1.
func (p *Program) IndexID(name string) int {
	for i, ix := range p.Indices {
		if ix.Name == name {
			return i
		}
	}
	return -1
}

// refString renders a block operand for the disassembler.
func (p *Program) refString(r Ref) string {
	if r.Idx == nil {
		return "-"
	}
	names := make([]string, len(r.Idx))
	for i, id := range r.Idx {
		names[i] = p.Indices[id].Name
	}
	return fmt.Sprintf("%s(%s)", p.Arrays[r.Arr].Name, strings.Join(names, ","))
}

// Disassemble renders the program as readable text, one instruction per
// line, with the descriptor tables first.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for i, pr := range p.Params {
		if pr.HasDefault {
			fmt.Fprintf(&b, "  param %d: %s = %d\n", i, pr.Name, pr.Default)
		} else {
			fmt.Fprintf(&b, "  param %d: %s\n", i, pr.Name)
		}
	}
	for i, ix := range p.Indices {
		lo, hi := p.valString(ix.Lo), p.valString(ix.Hi)
		if ix.Parent >= 0 {
			fmt.Fprintf(&b, "  index %d: subindex %s of %s\n", i, ix.Name, p.Indices[ix.Parent].Name)
		} else {
			fmt.Fprintf(&b, "  index %d: %s %s = %s, %s\n", i, ix.Kind, ix.Name, lo, hi)
		}
	}
	for i, a := range p.Arrays {
		names := make([]string, len(a.Dims))
		for d, id := range a.Dims {
			names[d] = p.Indices[id].Name
		}
		fmt.Fprintf(&b, "  array %d: %s %s(%s)\n", i, a.Kind, a.Name, strings.Join(names, ","))
	}
	for i, s := range p.Scalars {
		fmt.Fprintf(&b, "  scalar %d: %s = %g\n", i, s.Name, s.Init)
	}
	for i, pd := range p.Pardos {
		names := make([]string, len(pd.Indices))
		for d, id := range pd.Indices {
			names[d] = p.Indices[id].Name
		}
		fmt.Fprintf(&b, "  pardo %d: (%s)", i, strings.Join(names, ","))
		sep := " where: "
		for k := range pd.Where {
			b.WriteString(sep + strings.TrimSpace(pd.Where[k].Op.String()+" "+p.operands(&pd.Where[k])))
			sep = ", "
		}
		b.WriteByte('\n')
	}
	for _, pr := range p.Procs {
		fmt.Fprintf(&b, "  proc %s @ %d\n", pr.Name, pr.Entry)
	}
	b.WriteString("code:\n")
	for pc := range p.Code {
		fmt.Fprintf(&b, "  %4d: %-18s%s\n", pc, p.Code[pc].Op, p.operands(&p.Code[pc]))
	}
	return b.String()
}

func (p *Program) valString(v Val) string {
	if v.Param >= 0 {
		return p.Params[v.Param].Name
	}
	return fmt.Sprint(v.Lit)
}

// operands renders the operands of one instruction for the disassembler.
func (p *Program) operands(in *Instr) string {
	switch in.Op {
	case OpPushLit:
		return fmt.Sprint(in.F)
	case OpPushScalar, OpCollective:
		return p.Scalars[in.A].Name
	case OpStoreScalar:
		return fmt.Sprintf("%s mode=%d", p.Scalars[in.A].Name, in.B)
	case OpPushIndex:
		return p.Indices[in.A].Name
	case OpPushParam:
		return p.Params[in.A].Name
	case OpCmp:
		return cmpNames[in.A]
	case OpJump, OpJumpIfFalse:
		return fmt.Sprintf("-> %d", in.A)
	case OpDoStart:
		return fmt.Sprintf("%s exit=%d", p.Indices[in.A].Name, in.C)
	case OpDoEnd:
		return fmt.Sprintf("%s start=%d", p.Indices[in.A].Name, in.B)
	case OpDoInStart:
		return fmt.Sprintf("%s in %s exit=%d", p.Indices[in.A].Name, p.Indices[in.B].Name, in.C)
	case OpDoInEnd:
		return fmt.Sprintf("%s start=%d", p.Indices[in.A].Name, in.B)
	case OpPardoStart:
		return fmt.Sprintf("#%d exit=%d", in.A, in.C)
	case OpPardoEnd:
		return fmt.Sprintf("#%d start=%d", in.A, in.B)
	case OpCall:
		return p.Procs[in.A].Name
	case OpBlockFill, OpGet, OpRequest, OpComputeIntegrals:
		return p.refString(in.R[0])
	case OpBlockCopy, OpBlockScale:
		return fmt.Sprintf("%s <- %s mode=%d", p.refString(in.R[0]), p.refString(in.R[1]), in.A)
	case OpBlockSum, OpContract:
		op := "*"
		if in.Op == OpBlockSum {
			op = "+"
			if in.A == 1 {
				op = "-"
			}
		}
		return fmt.Sprintf("%s <- %s %s %s", p.refString(in.R[0]), p.refString(in.R[1]), op, p.refString(in.R[2]))
	case OpPut, OpPrepare:
		mode := "="
		if in.A == 1 {
			mode = "+="
		}
		return fmt.Sprintf("%s %s %s", p.refString(in.R[0]), mode, p.refString(in.R[1]))
	case OpDot:
		return fmt.Sprintf("%s , %s", p.refString(in.R[1]), p.refString(in.R[2]))
	case OpExecute:
		return p.Strings[in.A]
	case OpBarrier:
		if in.A == 1 {
			return "server"
		}
		return "sip"
	case OpPrint:
		if in.A >= 0 {
			return fmt.Sprintf("%q ", p.Strings[in.A])
		}
		if in.B >= 0 {
			return p.Scalars[in.B].Name
		}
	case OpBlocksToList, OpListToBlocks:
		return p.Arrays[in.A].Name
	}
	return ""
}
