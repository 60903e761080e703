package bytecode

import (
	"fmt"

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
		for wi, w := range pd.Where {
			if w.L == nil || w.R == nil {
				return fmt.Errorf("bytecode: pardo %d where %d has nil operand", pi, wi)
			}
			if err := p.checkWhere(w.L); err != nil {
				return fmt.Errorf("bytecode: pardo %d where %d: %w", pi, wi, err)
			}
			if err := p.checkWhere(w.R); err != nil {
				return fmt.Errorf("bytecode: pardo %d where %d: %w", pi, wi, err)
			}
			if w.Cmp < CmpLT || w.Cmp > CmpNE {
				return fmt.Errorf("bytecode: pardo %d where %d: bad comparison %d", pi, wi, w.Cmp)
			}
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
		if err := p.validateInstr(pc); err != nil {
			return err
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

func (p *Program) checkWhere(e *WhereExpr) error {
	switch e.Op {
	case WhereLit:
		return nil
	case WhereIndex:
		if e.ID < 0 || e.ID >= len(p.Indices) {
			return fmt.Errorf("where index %d out of range", e.ID)
		}
		return nil
	case WhereParam:
		if e.ID < 0 || e.ID >= len(p.Params) {
			return fmt.Errorf("where parameter %d out of range", e.ID)
		}
		return nil
	case WhereAdd, WhereSub, WhereMul, WhereDiv:
		if e.L == nil || e.R == nil {
			return fmt.Errorf("where operator with nil operand")
		}
		if err := p.checkWhere(e.L); err != nil {
			return err
		}
		return p.checkWhere(e.R)
	}
	return fmt.Errorf("bad where op %d", e.Op)
}

func (p *Program) checkRef(pc int, r Ref) error {
	if r.Arr < 0 || r.Arr >= len(p.Arrays) {
		return fmt.Errorf("bytecode: pc %d: array %d out of range", pc, r.Arr)
	}
	arr := p.Arrays[r.Arr]
	if len(r.Idx) != len(arr.Dims) {
		return fmt.Errorf("bytecode: pc %d: ref to %s has %d indices, want %d", pc, arr.Name, len(r.Idx), len(arr.Dims))
	}
	for _, id := range r.Idx {
		if id < 0 || id >= len(p.Indices) {
			return fmt.Errorf("bytecode: pc %d: ref index %d out of range", pc, id)
		}
	}
	return nil
}

// checkRefs checks the block references of instruction pc, the slots
// its opcode uses (Instr.refSlots).
func (p *Program) checkRefs(pc int) error {
	in := &p.Code[pc]
	for i := range in.R {
		if in.refSlots()&(1<<i) != 0 {
			if err := p.checkRef(pc, in.R[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) checkTarget(pc, target int) error {
	if target < 0 || target > len(p.Code) {
		return fmt.Errorf("bytecode: pc %d: jump target %d out of range", pc, target)
	}
	return nil
}

func (p *Program) validateInstr(pc int) error {
	in := &p.Code[pc]
	inScalars := func(id int) error {
		if id < 0 || id >= len(p.Scalars) {
			return fmt.Errorf("bytecode: pc %d (%s): scalar %d out of range", pc, in.Op, id)
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
			return fmt.Errorf("bytecode: pc %d: bad assign mode %d", pc, in.B)
		}
		return nil
	case OpPushIndex:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("bytecode: pc %d: index %d out of range", pc, in.A)
		}
		return nil
	case OpPushParam:
		if in.A < 0 || in.A >= len(p.Params) {
			return fmt.Errorf("bytecode: pc %d: param %d out of range", pc, in.A)
		}
		return nil
	case OpCmp:
		if in.A < CmpLT || in.A > CmpNE {
			return fmt.Errorf("bytecode: pc %d: bad comparison %d", pc, in.A)
		}
		return nil
	case OpJump, OpJumpIfFalse:
		return p.checkTarget(pc, in.A)
	case OpDoStart, OpDoInStart:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("bytecode: pc %d: loop index %d out of range", pc, in.A)
		}
		if in.Op == OpDoInStart && (in.B < 0 || in.B >= len(p.Indices)) {
			return fmt.Errorf("bytecode: pc %d: super index %d out of range", pc, in.B)
		}
		return p.checkTarget(pc, in.C)
	case OpDoEnd, OpDoInEnd:
		if in.A < 0 || in.A >= len(p.Indices) {
			return fmt.Errorf("bytecode: pc %d: loop index %d out of range", pc, in.A)
		}
		return p.checkTarget(pc, in.B)
	case OpPardoStart:
		if in.A < 0 || in.A >= len(p.Pardos) {
			return fmt.Errorf("bytecode: pc %d: pardo %d out of range", pc, in.A)
		}
		return p.checkTarget(pc, in.C)
	case OpPardoEnd:
		if in.A < 0 || in.A >= len(p.Pardos) {
			return fmt.Errorf("bytecode: pc %d: pardo %d out of range", pc, in.A)
		}
		return p.checkTarget(pc, in.B)
	case OpCall:
		if in.A < 0 || in.A >= len(p.Procs) {
			return fmt.Errorf("bytecode: pc %d: proc %d out of range", pc, in.A)
		}
		return nil
	case OpBlockFill, OpGet, OpRequest, OpComputeIntegrals,
		OpBlockCopy, OpBlockScale, OpPut, OpPrepare, OpBlockSum, OpContract, OpDot:
		return p.checkRefs(pc)
	case OpExecute:
		if in.A < 0 || in.A >= len(p.Strings) {
			return fmt.Errorf("bytecode: pc %d: string %d out of range", pc, in.A)
		}
		if in.B < 0 || in.B > 3 {
			return fmt.Errorf("bytecode: pc %d: execute block count %d", pc, in.B)
		}
		if err := p.checkRefs(pc); err != nil {
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
			return fmt.Errorf("bytecode: pc %d: string %d out of range", pc, in.A)
		}
		if in.B >= len(p.Scalars) {
			return fmt.Errorf("bytecode: pc %d: scalar %d out of range", pc, in.B)
		}
		return nil
	case OpBlocksToList, OpListToBlocks:
		if in.A < 0 || in.A >= len(p.Arrays) {
			return fmt.Errorf("bytecode: pc %d: array %d out of range", pc, in.A)
		}
		return nil
	}
	return fmt.Errorf("bytecode: pc %d: unknown opcode %d", pc, uint8(in.Op))
}
