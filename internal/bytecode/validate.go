package bytecode

import (
	"fmt"
	"slices"

	"repro/internal/segment"
)

// Validate checks the structural integrity of a program: every table
// reference in range, declaration order respected, jump targets inside
// the code array, block operands consistent with their arrays' ranks.
// Read rejects deserialized programs that fail validation, so corrupt
// or hostile byte-code files cannot crash the SIP.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("bytecode: program has no name")
	}
	for i, pr := range p.Params {
		if pr.Name == "" {
			return fmt.Errorf("bytecode: param %d has no name", i)
		}
	}
	for i, ix := range p.Indices {
		if ix.Name == "" {
			return fmt.Errorf("bytecode: index %d has no name", i)
		}
		if err := p.checkVal(ix.Lo); err != nil {
			return fmt.Errorf("bytecode: index %s lo: %w", ix.Name, err)
		}
		if err := p.checkVal(ix.Hi); err != nil {
			return fmt.Errorf("bytecode: index %s hi: %w", ix.Name, err)
		}
		if ix.Parent >= 0 {
			if ix.Parent >= i {
				return fmt.Errorf("bytecode: subindex %s declared before its super index", ix.Name)
			}
			if p.Indices[ix.Parent].Parent >= 0 {
				return fmt.Errorf("bytecode: subindex %s has a subindex parent", ix.Name)
			}
		}
	}
	for i, a := range p.Arrays {
		if a.Name == "" {
			return fmt.Errorf("bytecode: array %d has no name", i)
		}
		if a.Kind < ArrayStatic || a.Kind > ArrayLocal {
			return fmt.Errorf("bytecode: array %s has unknown kind %d", a.Name, int(a.Kind))
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("bytecode: array %s has no dimensions", a.Name)
		}
		for _, id := range a.Dims {
			if id < 0 || id >= len(p.Indices) {
				return fmt.Errorf("bytecode: array %s references index %d out of range", a.Name, id)
			}
			if p.Indices[id].Kind == segment.Simple {
				return fmt.Errorf("bytecode: array %s declared with simple index %s", a.Name, p.Indices[id].Name)
			}
		}
	}
	for pi, pd := range p.Pardos {
		if len(pd.Indices) == 0 {
			return fmt.Errorf("bytecode: pardo %d has no indices", pi)
		}
		for _, id := range pd.Indices {
			if id < 0 || id >= len(p.Indices) {
				return fmt.Errorf("bytecode: pardo %d references index %d out of range", pi, id)
			}
		}
		if err := p.validateWhere(&pd); err != nil {
			return fmt.Errorf("bytecode: pardo %d: %w", pi, err)
		}
	}
	if len(p.Code) == 0 {
		return fmt.Errorf("bytecode: empty code")
	}
	for _, pr := range p.Procs {
		if pr.Entry < 0 || pr.Entry >= len(p.Code) {
			return fmt.Errorf("bytecode: proc %s entry %d out of range", pr.Name, pr.Entry)
		}
	}
	for pc := range p.Code {
		if err := p.checkInstr(&p.Code[pc]); err != nil {
			return fmt.Errorf("bytecode: pc %d (%s): %w", pc, p.Code[pc].Op, err)
		}
	}
	return nil
}

func (p *Program) checkVal(v Val) error {
	if v.Param >= len(p.Params) {
		return fmt.Errorf("parameter %d out of range", v.Param)
	}
	return nil
}

// validateWhere checks a pardo's where code (PardoInfo.Where): only pushes
// of literals, this pardo's indices and parameters, the four arithmetic
// ops and OpCmp, each with the operand checks code gets, under a stack
// discipline where no op underflows and the stack is empty after each
// OpCmp and at the end.  Passes relies on every rule.
func (p *Program) validateWhere(pd *PardoInfo) error {
	depth := 0
	for k := range pd.Where {
		in := &pd.Where[k]
		switch in.Op {
		case OpPushLit, OpPushIndex, OpPushParam:
			depth++
		case OpAdd, OpSub, OpMul, OpDiv, OpCmp:
			if depth < 2 {
				return fmt.Errorf("where code %d: %s underflows the stack", k, in.Op)
			}
			depth--
			if in.Op == OpCmp {
				depth--
				if depth != 0 {
					return fmt.Errorf("where code %d: cmp leaves %d value(s) on the stack", k, depth)
				}
			}
		default:
			return fmt.Errorf("where code %d: %s not allowed in where code", k, in.Op)
		}
		if err := p.checkInstr(in); err != nil {
			return fmt.Errorf("where code %d: %w", k, err)
		}
		if in.Op == OpPushIndex && !slices.Contains(pd.Indices, in.A) {
			return fmt.Errorf("where code %d: index %s is not an index of this pardo", k, p.Indices[in.A].Name)
		}
	}
	if depth != 0 {
		return fmt.Errorf("where code leaves %d value(s) on the stack", depth)
	}
	return nil
}

// Passes reports whether the iteration with vals[i] the value of
// Indices[i] satisfies every where clause, given the resolved parameter
// values.  stack is the caller's scratch: with a capacity of len(Where)
// it never grows, and Passes allocates nothing.  The program must have
// passed Validate.
func (pd *PardoInfo) Passes(vals, params []int, stack []float64) bool {
	stack = stack[:0]
	for k := range pd.Where {
		in := &pd.Where[k]
		switch in.Op {
		case OpPushLit:
			stack = append(stack, in.F)
		case OpPushIndex:
			stack = append(stack, float64(vals[slices.Index(pd.Indices, in.A)]))
		case OpPushParam:
			stack = append(stack, float64(params[in.A]))
		default:
			n := len(stack) - 2
			l, r := stack[n], stack[n+1]
			switch in.Op {
			case OpCmp:
				if !EvalCmp(in.A, l, r) {
					return false
				}
				stack = stack[:0]
				continue
			case OpAdd:
				l += r
			case OpSub:
				l -= r
			case OpMul:
				l *= r
			case OpDiv:
				l /= r
			}
			stack = append(stack[:n], l)
		}
	}
	return true
}

func (p *Program) checkRef(r Ref) error {
	if r.Arr < 0 || r.Arr >= len(p.Arrays) {
		return fmt.Errorf("array %d out of range", r.Arr)
	}
	arr := p.Arrays[r.Arr]
	if len(r.Idx) != len(arr.Dims) {
		return fmt.Errorf("ref to %s has %d indices, want %d", arr.Name, len(r.Idx), len(arr.Dims))
	}
	for _, id := range r.Idx {
		if id < 0 || id >= len(p.Indices) {
			return fmt.Errorf("ref index %d out of range", id)
		}
	}
	return nil
}

// checkRefs checks the block references of in, the slots its opcode
// uses (Instr.refSlots).
func (p *Program) checkRefs(in *Instr) error {
	for i := range in.R {
		if in.refSlots()&(1<<i) != 0 {
			if err := p.checkRef(in.R[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) checkTarget(target int) error {
	if target < 0 || target > len(p.Code) {
		return fmt.Errorf("jump target %d out of range", target)
	}
	return nil
}

// checkInstr checks the operands of one instruction against the tables
// and the code array.
func (p *Program) checkInstr(in *Instr) error {
	inScalars := func(id int) error {
		if id < 0 || id >= len(p.Scalars) {
			return fmt.Errorf("scalar %d out of range", id)
		}
		return nil
	}
	switch in.Op {
	case OpNop, OpPushLit, OpAdd, OpSub, OpMul, OpDiv, OpReturn, OpHalt, OpBarrier:
		return nil
	case OpPushScalar, OpCollective:
		return inScalars(in.A)
	case OpStoreScalar:
		if err := inScalars(in.A); err != nil {
			return err
		}
		if in.B < AssignSet || in.B > AssignMul {
			return fmt.Errorf("bad assign mode %d", in.B)
		}
		return nil
	case OpPushIndex:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("index %d out of range", in.A)
		}
		return nil
	case OpPushParam:
		if in.A < 0 || in.A >= len(p.Params) {
			return fmt.Errorf("param %d out of range", in.A)
		}
		return nil
	case OpCmp:
		if in.A < CmpLT || in.A > CmpNE {
			return fmt.Errorf("bad comparison %d", in.A)
		}
		return nil
	case OpJump, OpJumpIfFalse:
		return p.checkTarget(in.A)
	case OpDoStart, OpDoInStart:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("loop index %d out of range", in.A)
		}
		if in.Op == OpDoInStart && (in.B < 0 || in.B >= len(p.Indices)) {
			return fmt.Errorf("super index %d out of range", in.B)
		}
		return p.checkTarget(in.C)
	case OpDoEnd, OpDoInEnd:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("loop index %d out of range", in.A)
		}
		return p.checkTarget(in.B)
	case OpPardoStart:
		if in.A < 0 || in.A >= len(p.Pardos) {
			return fmt.Errorf("pardo %d out of range", in.A)
		}
		return p.checkTarget(in.C)
	case OpPardoEnd:
		if in.A < 0 || in.A >= len(p.Pardos) {
			return fmt.Errorf("pardo %d out of range", in.A)
		}
		return p.checkTarget(in.B)
	case OpCall:
		if in.A < 0 || in.A >= len(p.Procs) {
			return fmt.Errorf("proc %d out of range", in.A)
		}
		return nil
	case OpBlockFill, OpGet, OpRequest, OpComputeIntegrals,
		OpBlockCopy, OpBlockScale, OpPut, OpPrepare, OpBlockSum, OpContract, OpDot:
		return p.checkRefs(in)
	case OpExecute:
		if in.A < 0 || in.A >= len(p.Strings) {
			return fmt.Errorf("string %d out of range", in.A)
		}
		if in.B < 0 || in.B > 3 {
			return fmt.Errorf("execute block count %d", in.B)
		}
		if err := p.checkRefs(in); err != nil {
			return err
		}
		for _, id := range in.Aux {
			if err := inScalars(id); err != nil {
				return err
			}
		}
		return nil
	case OpPrint:
		if in.A >= len(p.Strings) {
			return fmt.Errorf("string %d out of range", in.A)
		}
		if in.B >= len(p.Scalars) {
			return fmt.Errorf("scalar %d out of range", in.B)
		}
		return nil
	case OpBlocksToList, OpListToBlocks:
		if in.A < 0 || in.A >= len(p.Arrays) {
			return fmt.Errorf("array %d out of range", in.A)
		}
		return nil
	}
	return fmt.Errorf("unknown opcode %d", uint8(in.Op))
}
