// Package compiler translates checked SIAL programs into SIA byte code
// (paper §V-A).  The SIAL compiler deliberately performs no sophisticated
// optimization: the paper notes that the transparency of the relationship
// between source and byte code is what makes SIAL programs easy to tune.
package compiler

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/sial"
)

// Compile translates a checked program into byte code.
func Compile(c *sial.Checked) (*bytecode.Program, error) {
	cc := &compiler{checked: c, prog: &bytecode.Program{Name: c.Prog.Name}}
	return cc.run()
}

// CompileSource parses, checks, and compiles SIAL source text.
func CompileSource(src string) (*bytecode.Program, error) {
	prog, err := sial.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := sial.Check(prog)
	if err != nil {
		return nil, err
	}
	return Compile(checked)
}

type compiler struct {
	checked *sial.Checked
	prog    *bytecode.Program
	strings map[string]int
	inPardo bool
}

func (cc *compiler) run() (*bytecode.Program, error) {
	c, p := cc.checked, cc.prog
	cc.strings = map[string]int{}

	for _, pr := range c.Params {
		p.Params = append(p.Params, bytecode.Param{Name: pr.Name, Default: pr.Default, HasDefault: pr.HasDefault})
	}
	for _, ix := range c.Indices {
		info := bytecode.IndexInfo{
			Name:   ix.Name,
			Kind:   ix.Kind,
			Lo:     cc.val(ix.Lo),
			Hi:     cc.val(ix.Hi),
			Parent: -1,
		}
		if ix.Parent != nil {
			info.Parent = ix.Parent.ID
		}
		p.Indices = append(p.Indices, info)
	}
	for _, a := range c.Arrays {
		dims := make([]int, len(a.Dims))
		for i, d := range a.Dims {
			dims[i] = d.ID
		}
		p.Arrays = append(p.Arrays, bytecode.ArrayInfo{Name: a.Name, Kind: arrayKind(a.Kind), Dims: dims})
	}
	for _, s := range c.Scalars {
		p.Scalars = append(p.Scalars, bytecode.ScalarInfo{Name: s.Name, Init: s.Init})
	}
	for _, pr := range c.Procs {
		p.Procs = append(p.Procs, bytecode.ProcInfo{Name: pr.Name, Entry: -1})
	}

	if err := cc.stmts(c.Prog.Body); err != nil {
		return nil, err
	}
	cc.emit(bytecode.Instr{Op: bytecode.OpHalt})

	for i, pr := range c.Procs {
		p.Procs[i].Entry = len(p.Code)
		if err := cc.stmts(pr.Body); err != nil {
			return nil, err
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpReturn})
	}
	p.Lower()
	return p, nil
}

func arrayKind(k sial.ArrayKind) bytecode.ArrayKind {
	switch k {
	case sial.KindStatic:
		return bytecode.ArrayStatic
	case sial.KindDistributed:
		return bytecode.ArrayDistributed
	case sial.KindServed:
		return bytecode.ArrayServed
	case sial.KindTemp:
		return bytecode.ArrayTemp
	case sial.KindLocal:
		return bytecode.ArrayLocal
	}
	panic(fmt.Sprintf("compiler: bad array kind %v", k))
}

func assignMode(k sial.AssignKind) int {
	switch k {
	case sial.AssignSet:
		return bytecode.AssignSet
	case sial.AssignAdd:
		return bytecode.AssignAdd
	case sial.AssignSub:
		return bytecode.AssignSub
	case sial.AssignMul:
		return bytecode.AssignMul
	}
	panic("compiler: bad assign kind")
}

func cmpCode(op sial.TokKind) int {
	switch op {
	case sial.TokLT:
		return bytecode.CmpLT
	case sial.TokLE:
		return bytecode.CmpLE
	case sial.TokGT:
		return bytecode.CmpGT
	case sial.TokGE:
		return bytecode.CmpGE
	case sial.TokEQ:
		return bytecode.CmpEQ
	case sial.TokNE:
		return bytecode.CmpNE
	}
	panic("compiler: bad comparison operator")
}

func (cc *compiler) val(v sial.IntVal) bytecode.Val {
	if v.Param != "" {
		return bytecode.ParamVal(cc.paramID(v.Param))
	}
	return bytecode.LitVal(v.Lit)
}

func (cc *compiler) paramID(name string) int {
	for i, p := range cc.prog.Params {
		if p.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("compiler: unknown parameter %q (checker should have caught this)", name))
}

func (cc *compiler) stringID(s string) int {
	if id, ok := cc.strings[s]; ok {
		return id
	}
	id := len(cc.prog.Strings)
	cc.prog.Strings = append(cc.prog.Strings, s)
	cc.strings[s] = id
	return id
}

func (cc *compiler) emit(in bytecode.Instr) int {
	cc.prog.Code = append(cc.prog.Code, in)
	return len(cc.prog.Code) - 1
}

func (cc *compiler) ref(r sial.BlockRef) bytecode.Ref {
	arr := cc.checked.ArrayByName[r.Array]
	idx := make([]int, len(r.Idx))
	for i, name := range r.Idx {
		idx[i] = cc.checked.IndexByName[name].ID
	}
	return bytecode.Ref{Arr: arr.ID, Idx: idx}
}

func (cc *compiler) stmts(list []sial.Stmt) error {
	for _, s := range list {
		if err := cc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (cc *compiler) stmt(s sial.Stmt) error {
	line := s.StmtPos().Line
	switch s := s.(type) {
	case *sial.Pardo:
		return cc.pardo(s)
	case *sial.Do:
		idx := cc.checked.IndexByName[s.Idx].ID
		start := cc.emit(bytecode.Instr{Op: bytecode.OpDoStart, A: idx, Line: line})
		if err := cc.stmts(s.Body); err != nil {
			return err
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpDoEnd, A: idx, B: start, Line: line})
		cc.prog.Code[start].C = len(cc.prog.Code)
		return nil
	case *sial.DoIn:
		sub := cc.checked.IndexByName[s.Sub].ID
		super := cc.checked.IndexByName[s.Super].ID
		start := cc.emit(bytecode.Instr{Op: bytecode.OpDoInStart, A: sub, B: super, Line: line})
		if err := cc.stmts(s.Body); err != nil {
			return err
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpDoInEnd, A: sub, B: start, Line: line})
		cc.prog.Code[start].C = len(cc.prog.Code)
		return nil
	case *sial.If:
		if err := cc.cond(s.Cond, line); err != nil {
			return err
		}
		jf := cc.emit(bytecode.Instr{Op: bytecode.OpJumpIfFalse, Line: line})
		if err := cc.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			j := cc.emit(bytecode.Instr{Op: bytecode.OpJump, Line: line})
			cc.prog.Code[jf].A = len(cc.prog.Code)
			if err := cc.stmts(s.Else); err != nil {
				return err
			}
			cc.prog.Code[j].A = len(cc.prog.Code)
		} else {
			cc.prog.Code[jf].A = len(cc.prog.Code)
		}
		return nil
	case *sial.Get:
		cc.emit(bytecode.Instr{Op: bytecode.OpGet, R: [3]bytecode.Ref{cc.ref(s.Ref)}, Line: line})
		return nil
	case *sial.Put:
		mode := 0
		if s.Acc {
			mode = 1
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpPut, A: mode,
			R: [3]bytecode.Ref{cc.ref(s.Dst), cc.ref(s.Src)}, Line: line})
		return nil
	case *sial.Request:
		cc.emit(bytecode.Instr{Op: bytecode.OpRequest, R: [3]bytecode.Ref{cc.ref(s.Ref)}, Line: line})
		return nil
	case *sial.Prepare:
		mode := 0
		if s.Acc {
			mode = 1
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpPrepare, A: mode,
			R: [3]bytecode.Ref{cc.ref(s.Dst), cc.ref(s.Src)}, Line: line})
		return nil
	case *sial.ComputeIntegrals:
		cc.emit(bytecode.Instr{Op: bytecode.OpComputeIntegrals, R: [3]bytecode.Ref{cc.ref(s.Ref)}, Line: line})
		return nil
	case *sial.Execute:
		if len(s.Blocks) > 3 {
			return fmt.Errorf("compiler: %s: execute %s: at most 3 block arguments supported, got %d",
				s.Pos, s.Name, len(s.Blocks))
		}
		in := bytecode.Instr{Op: bytecode.OpExecute, A: cc.stringID(s.Name), B: len(s.Blocks), Line: line}
		for i, b := range s.Blocks {
			in.R[i] = cc.ref(b)
		}
		for _, sc := range s.Scalars {
			in.Aux = append(in.Aux, cc.prog.ScalarID(sc))
		}
		cc.emit(in)
		return nil
	case *sial.Call:
		id := -1
		for i, pr := range cc.prog.Procs {
			if pr.Name == s.Name {
				id = i
			}
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpCall, A: id, Line: line})
		return nil
	case *sial.Barrier:
		kind := 0
		if s.Server {
			kind = 1
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpBarrier, A: kind, Line: line})
		return nil
	case *sial.Collective:
		cc.emit(bytecode.Instr{Op: bytecode.OpCollective, A: cc.prog.ScalarID(s.Name), Line: line})
		return nil
	case *sial.Print:
		strID, scID := -1, -1
		if s.Text != "" {
			strID = cc.stringID(s.Text)
		}
		if s.Scalar != "" {
			scID = cc.prog.ScalarID(s.Scalar)
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpPrint, A: strID, B: scID, Line: line})
		return nil
	case *sial.BlocksToList:
		cc.emit(bytecode.Instr{Op: bytecode.OpBlocksToList, A: cc.prog.ArrayID(s.Array), Line: line})
		return nil
	case *sial.ListToBlocks:
		cc.emit(bytecode.Instr{Op: bytecode.OpListToBlocks, A: cc.prog.ArrayID(s.Array), Line: line})
		return nil
	case *sial.ScalarAssign:
		if err := cc.scalarExpr(s.Expr, line); err != nil {
			return err
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpStoreScalar, A: cc.prog.ScalarID(s.Dst),
			B: assignMode(s.Kind), Line: line})
		return nil
	case *sial.BlockAssign:
		return cc.blockAssign(s, line)
	}
	return fmt.Errorf("compiler: unhandled statement %T", s)
}

func (cc *compiler) pardo(s *sial.Pardo) error {
	line := s.Pos.Line
	info := bytecode.PardoInfo{}
	for _, name := range s.Idx {
		info.Indices = append(info.Indices, cc.checked.IndexByName[name].ID)
	}
	// The where clauses compile as scalar code into the pardo's own
	// slice, for the master to run; the code array stays as it was.
	code := cc.prog.Code
	cc.prog.Code = nil
	for _, w := range s.Where {
		if err := cc.cond(w, line); err != nil {
			return err
		}
	}
	info.Where, cc.prog.Code = cc.prog.Code, code
	pid := len(cc.prog.Pardos)
	cc.prog.Pardos = append(cc.prog.Pardos, info)
	start := cc.emit(bytecode.Instr{Op: bytecode.OpPardoStart, A: pid, Line: line})
	cc.inPardo = true
	err := cc.stmts(s.Body)
	cc.inPardo = false
	if err != nil {
		return err
	}
	cc.emit(bytecode.Instr{Op: bytecode.OpPardoEnd, A: pid, B: start, Line: line})
	cc.prog.Code[start].C = len(cc.prog.Code)
	return nil
}

// refUsesSub reports whether the reference addresses a subblock: a
// subindex variable used against a dimension declared with its super
// index.
func (cc *compiler) refUsesSub(r sial.BlockRef) bool {
	arr := cc.checked.ArrayByName[r.Array]
	for i, name := range r.Idx {
		v := cc.checked.IndexByName[name]
		if v.Parent != nil && arr.Dims[i].Parent == nil {
			return true
		}
	}
	return false
}

func (cc *compiler) blockAssign(s *sial.BlockAssign, line int) error {
	dst := cc.ref(s.Dst)
	mode := assignMode(s.Kind)
	switch e := s.Expr.(type) {
	case *sial.BlockFill:
		if err := cc.scalarExpr(e.Val, line); err != nil {
			return err
		}
		if s.Kind == sial.AssignMul {
			// t(...) *= s: in-place scale.
			cc.emit(bytecode.Instr{Op: bytecode.OpBlockScale, B: bytecode.AssignSet,
				R: [3]bytecode.Ref{dst, dst}, Line: line})
			return nil
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpBlockFill, B: mode, R: [3]bytecode.Ref{dst}, Line: line})
		return nil
	case *sial.BlockCopy:
		src := cc.ref(e.Src)
		copyMode := 0
		if cc.refUsesSub(e.Src) {
			copyMode |= bytecode.CopySlice
		}
		if cc.refUsesSub(s.Dst) {
			copyMode |= bytecode.CopyInsert
		}
		in := bytecode.Instr{Op: bytecode.OpBlockCopy, A: copyMode, B: mode,
			R: [3]bytecode.Ref{dst, src}, Line: line}
		if copyMode == bytecode.CopyPermute {
			perm, err := permutation(s.Dst.Idx, e.Src.Idx)
			if err != nil {
				return fmt.Errorf("compiler: %s: %w", s.Pos, err)
			}
			in.Aux = perm
		}
		cc.emit(in)
		return nil
	case *sial.BlockScale:
		if err := cc.scalarExpr(e.Val, line); err != nil {
			return err
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpBlockScale, B: mode,
			R: [3]bytecode.Ref{dst, cc.ref(e.Src)}, Line: line})
		return nil
	case *sial.BlockSum:
		op := 0
		if e.Op == sial.TokMinus {
			op = 1
		}
		cc.emit(bytecode.Instr{Op: bytecode.OpBlockSum, A: op, B: mode,
			R: [3]bytecode.Ref{dst, cc.ref(e.A), cc.ref(e.B)}, Line: line})
		return nil
	case *sial.BlockContract:
		cc.emit(bytecode.Instr{Op: bytecode.OpContract, B: mode,
			R: [3]bytecode.Ref{dst, cc.ref(e.A), cc.ref(e.B)}, Line: line})
		return nil
	}
	return fmt.Errorf("compiler: unhandled block expression %T", s.Expr)
}

// permutation computes perm such that dst dimension d corresponds to src
// dimension perm[d], matching index variables by name.  Duplicate
// variables were restricted to identical order by the checker, so taking
// the first unconsumed occurrence is correct.
func permutation(dst, src []string) ([]int, error) {
	used := make([]bool, len(src))
	perm := make([]int, len(dst))
	for d, name := range dst {
		found := -1
		for i, s := range src {
			if !used[i] && s == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("no source dimension for index %q", name)
		}
		used[found] = true
		perm[d] = found
	}
	return perm, nil
}

// cond emits a comparison: its two sides, then one OpCmp.
func (cc *compiler) cond(c *sial.Cond, line int) error {
	if err := cc.scalarExpr(c.L, line); err != nil {
		return err
	}
	if err := cc.scalarExpr(c.R, line); err != nil {
		return err
	}
	cc.emit(bytecode.Instr{Op: bytecode.OpCmp, A: cmpCode(c.Op), Line: line})
	return nil
}

func (cc *compiler) scalarExpr(e sial.ScalarExpr, line int) error {
	switch e := e.(type) {
	case *sial.NumLit:
		cc.emit(bytecode.Instr{Op: bytecode.OpPushLit, F: e.Val, Line: line})
		return nil
	case *sial.ScalarRef:
		if id := cc.prog.ScalarID(e.Name); id >= 0 {
			cc.emit(bytecode.Instr{Op: bytecode.OpPushScalar, A: id, Line: line})
			return nil
		}
		if cc.checked.ParamByName[e.Name] != nil {
			cc.emit(bytecode.Instr{Op: bytecode.OpPushParam, A: cc.paramID(e.Name), Line: line})
			return nil
		}
		if ix := cc.checked.IndexByName[e.Name]; ix != nil {
			cc.emit(bytecode.Instr{Op: bytecode.OpPushIndex, A: ix.ID, Line: line})
			return nil
		}
		return fmt.Errorf("compiler: unknown name %q", e.Name)
	case *sial.IndexRef:
		ix := cc.checked.IndexByName[e.Name]
		cc.emit(bytecode.Instr{Op: bytecode.OpPushIndex, A: ix.ID, Line: line})
		return nil
	case *sial.BinExpr:
		if err := cc.scalarExpr(e.L, line); err != nil {
			return err
		}
		if err := cc.scalarExpr(e.R, line); err != nil {
			return err
		}
		var op bytecode.Op
		switch e.Op {
		case sial.TokPlus:
			op = bytecode.OpAdd
		case sial.TokMinus:
			op = bytecode.OpSub
		case sial.TokStar:
			op = bytecode.OpMul
		case sial.TokSlash:
			op = bytecode.OpDiv
		default:
			return fmt.Errorf("compiler: bad scalar operator %v", e.Op)
		}
		cc.emit(bytecode.Instr{Op: op, Line: line})
		return nil
	case *sial.DotExpr:
		cc.emit(bytecode.Instr{Op: bytecode.OpDot,
			R: [3]bytecode.Ref{{}, cc.ref(e.A), cc.ref(e.B)}, Line: line})
		return nil
	}
	return fmt.Errorf("compiler: unhandled scalar expression %T", e)
}
