package sial

import (
	"fmt"
	"slices"

	"repro/internal/segment"
)

// IndexSym is a resolved index declaration.
type IndexSym struct {
	ID     int
	Name   string
	Kind   segment.Kind
	Lo, Hi IntVal
	Parent *IndexSym // non-nil for subindices
}

// ArraySym is a resolved array declaration.
type ArraySym struct {
	ID   int
	Name string
	Kind ArrayKind
	Dims []*IndexSym
}

// ScalarSym is a resolved scalar declaration.
type ScalarSym struct {
	ID   int
	Name string
	Init float64
}

// ProcSym is a resolved procedure.
type ProcSym struct {
	ID            int
	Name          string
	Body          []Stmt
	ContainsPardo bool
}

// Checked is the result of semantic analysis: the program plus symbol
// tables the compiler consumes.
type Checked struct {
	Prog    *Program
	Params  []*ParamDecl
	Indices []*IndexSym
	Arrays  []*ArraySym
	Scalars []*ScalarSym
	Procs   []*ProcSym

	IndexByName  map[string]*IndexSym
	ArrayByName  map[string]*ArraySym
	ScalarByName map[string]*ScalarSym
	ParamByName  map[string]*ParamDecl
	ProcByName   map[string]*ProcSym
}

// Check performs semantic analysis of a parsed program.
func Check(prog *Program) (*Checked, error) {
	c := &Checked{
		Prog:         prog,
		IndexByName:  map[string]*IndexSym{},
		ArrayByName:  map[string]*ArraySym{},
		ScalarByName: map[string]*ScalarSym{},
		ParamByName:  map[string]*ParamDecl{},
		ProcByName:   map[string]*ProcSym{},
	}
	if err := c.collectDecls(); err != nil {
		return nil, err
	}
	// Check procedure bodies first (they establish ContainsPardo), then
	// the top-level body.
	if err := c.checkProcs(); err != nil {
		return nil, err
	}
	ctx := &checkCtx{c: c, bound: map[string]bool{}}
	if err := c.checkStmts(prog.Body, ctx); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Checked) defined(name string) bool {
	return c.IndexByName[name] != nil || c.ArrayByName[name] != nil ||
		c.ScalarByName[name] != nil || c.ParamByName[name] != nil ||
		c.ProcByName[name] != nil
}

func (c *Checked) collectDecls() error {
	for _, p := range c.Prog.Params {
		if c.defined(p.Name) {
			return errf(p.Pos, "duplicate declaration of %q", p.Name)
		}
		c.ParamByName[p.Name] = p
		c.Params = append(c.Params, p)
	}
	for _, d := range c.Prog.Decls {
		switch d := d.(type) {
		case *IndexDecl:
			if c.defined(d.Name) {
				return errf(d.Pos, "duplicate declaration of %q", d.Name)
			}
			if err := c.checkIntVal(d.Lo); err != nil {
				return err
			}
			if err := c.checkIntVal(d.Hi); err != nil {
				return err
			}
			sym := &IndexSym{ID: len(c.Indices), Name: d.Name, Kind: d.Kind, Lo: d.Lo, Hi: d.Hi}
			c.Indices = append(c.Indices, sym)
			c.IndexByName[d.Name] = sym
		case *SubIndexDecl:
			if c.defined(d.Name) {
				return errf(d.Pos, "duplicate declaration of %q", d.Name)
			}
			parent := c.IndexByName[d.Parent]
			if parent == nil {
				return errf(d.Pos, "subindex %s: unknown super index %q", d.Name, d.Parent)
			}
			if parent.Parent != nil {
				return errf(d.Pos, "subindex %s: super index %q is itself a subindex", d.Name, d.Parent)
			}
			if !parent.Kind.Segmented() {
				return errf(d.Pos, "subindex %s: super index %q is a simple index", d.Name, d.Parent)
			}
			sym := &IndexSym{ID: len(c.Indices), Name: d.Name, Kind: parent.Kind,
				Lo: parent.Lo, Hi: parent.Hi, Parent: parent}
			c.Indices = append(c.Indices, sym)
			c.IndexByName[d.Name] = sym
		case *ArrayDecl:
			if c.defined(d.Name) {
				return errf(d.Pos, "duplicate declaration of %q", d.Name)
			}
			if len(d.Dims) == 0 {
				return errf(d.Pos, "array %s has no dimensions", d.Name)
			}
			sym := &ArraySym{ID: len(c.Arrays), Name: d.Name, Kind: d.Kind}
			for _, dim := range d.Dims {
				ix := c.IndexByName[dim]
				if ix == nil {
					return errf(d.Pos, "array %s: unknown index %q", d.Name, dim)
				}
				if !ix.Kind.Segmented() {
					return errf(d.Pos, "array %s: dimension %q is a simple index; arrays are declared with segment indices", d.Name, dim)
				}
				sym.Dims = append(sym.Dims, ix)
			}
			c.Arrays = append(c.Arrays, sym)
			c.ArrayByName[d.Name] = sym
		case *ScalarDecl:
			if c.defined(d.Name) {
				return errf(d.Pos, "duplicate declaration of %q", d.Name)
			}
			sym := &ScalarSym{ID: len(c.Scalars), Name: d.Name, Init: d.Init}
			c.Scalars = append(c.Scalars, sym)
			c.ScalarByName[d.Name] = sym
		case *ProcDecl:
			if c.defined(d.Name) {
				return errf(d.Pos, "duplicate declaration of %q", d.Name)
			}
			sym := &ProcSym{ID: len(c.Procs), Name: d.Name, Body: d.Body}
			c.Procs = append(c.Procs, sym)
			c.ProcByName[d.Name] = sym
		}
	}
	return nil
}

func (c *Checked) checkIntVal(v IntVal) error {
	if v.Param != "" {
		if c.ParamByName[v.Param] == nil {
			return errf(v.Pos, "unknown parameter %q in index range", v.Param)
		}
	}
	return nil
}

// checkProcs analyzes procedure bodies.  Procedures are checked with all
// segment indices considered bound, because they execute in the binding
// context of their call sites; unbound uses surface as runtime errors.
// Recursion (direct or mutual) is rejected.
func (c *Checked) checkProcs() error {
	// Detect call cycles with a three-colour DFS.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := map[string]int{}
	var visit func(p *ProcSym) error
	var findCalls func(stmts []Stmt) []string
	findCalls = func(stmts []Stmt) []string {
		var out []string
		for _, s := range stmts {
			switch s := s.(type) {
			case *Call:
				out = append(out, s.Name)
			case *Pardo:
				out = append(out, findCalls(s.Body)...)
			case *Do:
				out = append(out, findCalls(s.Body)...)
			case *DoIn:
				out = append(out, findCalls(s.Body)...)
			case *If:
				out = append(out, findCalls(s.Then)...)
				out = append(out, findCalls(s.Else)...)
			}
		}
		return out
	}
	visit = func(p *ProcSym) error {
		switch colour[p.Name] {
		case grey:
			return errf(Pos{}, "recursive procedure %q", p.Name)
		case black:
			return nil
		}
		colour[p.Name] = grey
		for _, callee := range findCalls(p.Body) {
			q := c.ProcByName[callee]
			if q == nil {
				return errf(Pos{}, "proc %s calls unknown procedure %q", p.Name, callee)
			}
			if err := visit(q); err != nil {
				return err
			}
		}
		colour[p.Name] = black
		return nil
	}
	for _, p := range c.Procs {
		if err := visit(p); err != nil {
			return err
		}
	}
	// Check each body with all indices bound.
	for _, p := range c.Procs {
		ctx := &checkCtx{c: c, bound: map[string]bool{}, inProc: true}
		for name := range c.IndexByName {
			ctx.bound[name] = true
		}
		if err := c.checkStmts(p.Body, ctx); err != nil {
			return fmt.Errorf("in proc %s: %w", p.Name, err)
		}
		p.ContainsPardo = containsPardo(p.Body)
	}
	return nil
}

func containsPardo(stmts []Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Pardo:
			return true
		case *Do:
			if containsPardo(s.Body) {
				return true
			}
		case *DoIn:
			if containsPardo(s.Body) {
				return true
			}
		case *If:
			if containsPardo(s.Then) || containsPardo(s.Else) {
				return true
			}
		}
	}
	return false
}

// checkCtx carries binding state during statement checking.
type checkCtx struct {
	c       *Checked
	bound   map[string]bool // index variables with defined values
	inPardo bool
	inProc  bool
}

func (c *Checked) checkStmts(stmts []Stmt, ctx *checkCtx) error {
	for _, s := range stmts {
		if err := c.checkStmt(s, ctx); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checked) checkStmt(s Stmt, ctx *checkCtx) error {
	switch s := s.(type) {
	case *Pardo:
		if ctx.inPardo {
			return errf(s.Pos, "pardo loops may not be nested")
		}
		inner := &checkCtx{c: c, bound: copyBound(ctx.bound), inPardo: true, inProc: ctx.inProc}
		for _, name := range s.Idx {
			ix := c.IndexByName[name]
			if ix == nil {
				return errf(s.Pos, "pardo: unknown index %q", name)
			}
			if ix.Parent != nil {
				return errf(s.Pos, "pardo: subindex %q not allowed; use pardo over the super index with do %s in", name, name)
			}
			if inner.bound[name] && !ctx.inProc {
				return errf(s.Pos, "pardo: index %q already bound by an enclosing loop", name)
			}
			inner.bound[name] = true
		}
		for _, w := range s.Where {
			if err := c.checkCondOverIndices(w, s.Idx); err != nil {
				return err
			}
		}
		return c.checkStmts(s.Body, inner)

	case *Do:
		ix := c.IndexByName[s.Idx]
		if ix == nil {
			return errf(s.Pos, "do: unknown index %q", s.Idx)
		}
		if ctx.bound[s.Idx] && !ctx.inProc {
			return errf(s.Pos, "do: index %q already bound by an enclosing loop", s.Idx)
		}
		inner := &checkCtx{c: c, bound: copyBound(ctx.bound), inPardo: ctx.inPardo, inProc: ctx.inProc}
		inner.bound[s.Idx] = true
		return c.checkStmts(s.Body, inner)

	case *DoIn:
		sub := c.IndexByName[s.Sub]
		if sub == nil {
			return errf(s.Pos, "do %s in: unknown index %q", s.Sub, s.Sub)
		}
		if sub.Parent == nil {
			return errf(s.Pos, "do %s in %s: %q is not a subindex", s.Sub, s.Super, s.Sub)
		}
		if sub.Parent.Name != s.Super {
			return errf(s.Pos, "do %s in %s: %q is a subindex of %q", s.Sub, s.Super, s.Sub, sub.Parent.Name)
		}
		if !ctx.bound[s.Super] {
			return errf(s.Pos, "do %s in %s: super index %q has no value here; nest inside a loop over it", s.Sub, s.Super, s.Super)
		}
		inner := &checkCtx{c: c, bound: copyBound(ctx.bound), inPardo: ctx.inPardo, inProc: ctx.inProc}
		inner.bound[s.Sub] = true
		return c.checkStmts(s.Body, inner)

	case *If:
		if err := c.checkCond(s.Cond, ctx); err != nil {
			return err
		}
		if err := c.checkStmts(s.Then, ctx); err != nil {
			return err
		}
		return c.checkStmts(s.Else, ctx)

	case *Get:
		return c.checkRef(s.Ref, ctx, KindDistributed, "get")
	case *Put:
		if err := c.checkRef(s.Dst, ctx, KindDistributed, "put"); err != nil {
			return err
		}
		if err := c.checkReadRef(s.Src, ctx); err != nil {
			return err
		}
		return c.checkSameBlockShape(s.Pos, s.Dst, s.Src)
	case *Request:
		return c.checkRef(s.Ref, ctx, KindServed, "request")
	case *Prepare:
		if err := c.checkRef(s.Dst, ctx, KindServed, "prepare"); err != nil {
			return err
		}
		if err := c.checkReadRef(s.Src, ctx); err != nil {
			return err
		}
		return c.checkSameBlockShape(s.Pos, s.Dst, s.Src)

	case *ComputeIntegrals:
		arr := c.ArrayByName[s.Ref.Array]
		if arr == nil {
			return errf(s.Pos, "compute_integrals: unknown array %q", s.Ref.Array)
		}
		if arr.Kind != KindTemp && arr.Kind != KindLocal {
			return errf(s.Pos, "compute_integrals: array %s must be temp or local (computed blocks are node-local), not %s", arr.Name, arr.Kind)
		}
		return c.checkReadRef(s.Ref, ctx)

	case *Execute:
		for _, b := range s.Blocks {
			if err := c.checkReadRef(b, ctx); err != nil {
				return err
			}
		}
		for _, sc := range s.Scalars {
			if c.ScalarByName[sc] == nil {
				return errf(s.Pos, "execute %s: unknown scalar %q", s.Name, sc)
			}
		}
		return nil

	case *Call:
		p := c.ProcByName[s.Name]
		if p == nil {
			return errf(s.Pos, "call: unknown procedure %q", s.Name)
		}
		if ctx.inPardo && p.ContainsPardo {
			return errf(s.Pos, "call %s: procedure contains a pardo and may not be called inside a pardo", s.Name)
		}
		return nil

	case *Barrier:
		if ctx.inPardo {
			return errf(s.Pos, "barriers are not allowed inside a pardo")
		}
		return nil

	case *Collective:
		if ctx.inPardo {
			return errf(s.Pos, "collective is not allowed inside a pardo; place it after the endpardo")
		}
		if c.ScalarByName[s.Name] == nil {
			return errf(s.Pos, "collective: unknown scalar %q", s.Name)
		}
		return nil

	case *Print:
		if s.Scalar != "" && c.ScalarByName[s.Scalar] == nil {
			return errf(s.Pos, "print: unknown scalar %q", s.Scalar)
		}
		return nil

	case *BlocksToList:
		arr := c.ArrayByName[s.Array]
		if arr == nil {
			return errf(s.Pos, "blocks_to_list: unknown array %q", s.Array)
		}
		if arr.Kind != KindDistributed {
			return errf(s.Pos, "blocks_to_list: array %s must be distributed", s.Array)
		}
		if ctx.inPardo {
			return errf(s.Pos, "blocks_to_list is not allowed inside a pardo")
		}
		return nil
	case *ListToBlocks:
		arr := c.ArrayByName[s.Array]
		if arr == nil {
			return errf(s.Pos, "list_to_blocks: unknown array %q", s.Array)
		}
		if arr.Kind != KindDistributed {
			return errf(s.Pos, "list_to_blocks: array %s must be distributed", s.Array)
		}
		if ctx.inPardo {
			return errf(s.Pos, "list_to_blocks is not allowed inside a pardo")
		}
		return nil

	case *ScalarAssign:
		if c.ScalarByName[s.Dst] == nil {
			return errf(s.Pos, "assignment to undeclared scalar %q", s.Dst)
		}
		return c.checkScalarExpr(s.Expr, ctx)

	case *BlockAssign:
		return c.checkBlockAssign(s, ctx)
	}
	return fmt.Errorf("sial: unhandled statement type %T", s)
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkRef validates a block reference against a required array kind.
// Communication operations move whole blocks, so subblock references are
// rejected here.
func (c *Checked) checkRef(r BlockRef, ctx *checkCtx, want ArrayKind, op string) error {
	arr := c.ArrayByName[r.Array]
	if arr == nil {
		return errf(r.Pos, "%s: unknown array %q", op, r.Array)
	}
	if arr.Kind != want {
		return errf(r.Pos, "%s requires a %s array; %s is %s", op, want, arr.Name, arr.Kind)
	}
	if err := c.checkRefIndices(r, arr, ctx); err != nil {
		return err
	}
	if c.refUsesSub(r) {
		return errf(r.Pos, "%s moves whole blocks; subindex reference %s%v not allowed", op, r.Array, r.Idx)
	}
	return nil
}

// checkReadRef validates a block reference appearing where a block value
// is consumed or locally produced.
func (c *Checked) checkReadRef(r BlockRef, ctx *checkCtx) error {
	arr := c.ArrayByName[r.Array]
	if arr == nil {
		return errf(r.Pos, "unknown array %q", r.Array)
	}
	return c.checkRefIndices(r, arr, ctx)
}

// sameRange reports whether two index symbols describe an identical
// element range with identical segmentation (so their segment numbers are
// interchangeable).
func sameRange(a, b *IndexSym) bool {
	return a.Kind == b.Kind &&
		a.Lo.Lit == b.Lo.Lit && a.Lo.Param == b.Lo.Param &&
		a.Hi.Lit == b.Hi.Lit && a.Hi.Param == b.Hi.Param
}

// checkRefIndices validates each index variable of a reference against
// the array's declared dimensions, allowing a subindex wherever its super
// index's range is declared (slice/insert access, paper §IV-E2).
func (c *Checked) checkRefIndices(r BlockRef, arr *ArraySym, ctx *checkCtx) error {
	if len(r.Idx) != len(arr.Dims) {
		return errf(r.Pos, "array %s has rank %d, reference has %d indices", arr.Name, len(arr.Dims), len(r.Idx))
	}
	for i, name := range r.Idx {
		v := c.IndexByName[name]
		if v == nil {
			return errf(r.Pos, "array %s: unknown index %q", arr.Name, name)
		}
		if !ctx.bound[name] {
			return errf(r.Pos, "array %s: index %q has no value here; bind it with a loop", arr.Name, name)
		}
		dim := arr.Dims[i]
		switch {
		case dim.Parent == nil && v.Parent == nil:
			if !sameRange(v, dim) {
				return errf(r.Pos, "array %s dim %d: index %q (%s) incompatible with declared %q (%s)",
					arr.Name, i+1, v.Name, v.Kind, dim.Name, dim.Kind)
			}
		case dim.Parent == nil && v.Parent != nil:
			// Subindex used against a super-index dimension: slice or
			// insert.  The super index must itself be bound so the
			// runtime knows which block the subblock lives in.
			if !sameRange(v.Parent, dim) {
				return errf(r.Pos, "array %s dim %d: subindex %q of %q incompatible with declared %q",
					arr.Name, i+1, v.Name, v.Parent.Name, dim.Name)
			}
			if !ctx.bound[v.Parent.Name] {
				return errf(r.Pos, "array %s dim %d: subindex %q used but super index %q has no value here",
					arr.Name, i+1, v.Name, v.Parent.Name)
			}
		case dim.Parent != nil && v.Parent != nil:
			if !sameRange(v.Parent, dim.Parent) {
				return errf(r.Pos, "array %s dim %d: subindex %q incompatible with declared subindex %q",
					arr.Name, i+1, v.Name, dim.Name)
			}
		default: // dim is a subindex, v is not
			return errf(r.Pos, "array %s dim %d: declared with subindex %q; reference must use a subindex",
				arr.Name, i+1, dim.Name)
		}
	}
	return nil
}

// refUsesSub reports whether the reference uses a subindex against a
// super-index dimension (i.e. touches a subblock rather than a block).
func (c *Checked) refUsesSub(r BlockRef) bool {
	arr := c.ArrayByName[r.Array]
	if arr == nil {
		return false
	}
	for i, name := range r.Idx {
		if i >= len(arr.Dims) {
			return false
		}
		v := c.IndexByName[name]
		if v != nil && v.Parent != nil && arr.Dims[i].Parent == nil {
			return true
		}
	}
	return false
}

// checkSameBlockShape requires two references to use the same index
// variables in the same order (so the blocks have identical shape with no
// permutation), as put/prepare do.
func (c *Checked) checkSameBlockShape(pos Pos, a, b BlockRef) error {
	if len(a.Idx) != len(b.Idx) {
		return errf(pos, "block shapes differ: %s(%d indices) vs %s(%d indices)", a.Array, len(a.Idx), b.Array, len(b.Idx))
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return errf(pos, "%s and %s must use the same index variables in the same order (%q vs %q at position %d)",
				a.Array, b.Array, a.Idx[i], b.Idx[i], i+1)
		}
	}
	return nil
}

func (c *Checked) checkBlockAssign(s *BlockAssign, ctx *checkCtx) error {
	dstArr := c.ArrayByName[s.Dst.Array]
	if dstArr == nil {
		return errf(s.Pos, "assignment to unknown array %q", s.Dst.Array)
	}
	switch dstArr.Kind {
	case KindTemp, KindLocal, KindStatic:
	default:
		return errf(s.Pos, "direct assignment to %s array %s; use put (distributed) or prepare (served)",
			dstArr.Kind, dstArr.Name)
	}
	if err := c.checkRefIndices(s.Dst, dstArr, ctx); err != nil {
		return err
	}
	if s.Kind == AssignMul {
		if _, ok := s.Expr.(*BlockFill); !ok {
			return errf(s.Pos, "*= requires a scalar right-hand side")
		}
	}
	switch e := s.Expr.(type) {
	case *BlockFill:
		return c.checkScalarExpr(e.Val, ctx)
	case *BlockCopy:
		if err := c.checkReadRef(e.Src, ctx); err != nil {
			return err
		}
		return c.checkCopyCompat(s.Pos, s.Dst, e.Src)
	case *BlockScale:
		if err := c.checkScalarExpr(e.Val, ctx); err != nil {
			return err
		}
		if err := c.checkReadRef(e.Src, ctx); err != nil {
			return err
		}
		return c.checkSameBlockShape(s.Pos, s.Dst, e.Src)
	case *BlockSum:
		if err := c.checkReadRef(e.A, ctx); err != nil {
			return err
		}
		if err := c.checkReadRef(e.B, ctx); err != nil {
			return err
		}
		if err := c.checkSameBlockShape(s.Pos, e.A, e.B); err != nil {
			return err
		}
		return c.checkSameBlockShape(s.Pos, s.Dst, e.A)
	case *BlockContract:
		if err := c.checkReadRef(e.A, ctx); err != nil {
			return err
		}
		if err := c.checkReadRef(e.B, ctx); err != nil {
			return err
		}
		return c.checkContraction(s.Pos, s.Dst, e.A, e.B)
	}
	return errf(s.Pos, "unhandled block expression")
}

// checkCopyCompat validates dst = src block copies: either the index
// lists are permutations of each other (pure copy or permutation), or one
// side uses subindices against the other's super indices (slice/insert)
// with identical index order.
func (c *Checked) checkCopyCompat(pos Pos, dst, src BlockRef) error {
	if len(dst.Idx) != len(src.Idx) {
		return errf(pos, "copy rank mismatch: %s has %d indices, %s has %d", dst.Array, len(dst.Idx), src.Array, len(src.Idx))
	}
	if c.refUsesSub(dst) || c.refUsesSub(src) {
		// Slice or insert: require same variables in the same order so
		// the region mapping is positional.
		for i := range dst.Idx {
			if dst.Idx[i] != src.Idx[i] {
				return errf(pos, "slice/insert assignment requires identical index lists; %q vs %q at position %d",
					dst.Idx[i], src.Idx[i], i+1)
			}
		}
		return nil
	}
	// Pure copy/permutation: same variable multiset.
	used := map[string]int{}
	dup := false
	for _, n := range src.Idx {
		used[n]++
		if used[n] > 1 {
			dup = true
		}
	}
	for _, n := range dst.Idx {
		if used[n] == 0 {
			return errf(pos, "copy: destination index %q does not appear in source %s%v", n, src.Array, src.Idx)
		}
		used[n]--
	}
	if dup {
		// With a repeated variable the permutation is ambiguous, so
		// require identical order (plain copy).
		for i := range dst.Idx {
			if dst.Idx[i] != src.Idx[i] {
				return errf(pos, "copy with repeated index %v: permutation is ambiguous; use distinct index variables", src.Idx)
			}
		}
	}
	return nil
}

// checkContraction validates dst = a * b: indices shared by a and b are
// contracted and must not appear in dst; every dst index must come from
// exactly one operand.
func (c *Checked) checkContraction(pos Pos, dst, a, b BlockRef) error {
	// Contraction labels are index variable names, so each operand and
	// the result must use distinct variables (a repeated variable would
	// mean a trace, which is not a SIAL super instruction).
	for _, ref := range []BlockRef{dst, a, b} {
		seen := map[string]bool{}
		for _, n := range ref.Idx {
			if seen[n] {
				return errf(pos, "contraction: index %q repeated within %s%v", n, ref.Array, ref.Idx)
			}
			seen[n] = true
		}
	}
	inA := map[string]bool{}
	for _, n := range a.Idx {
		inA[n] = true
	}
	inB := map[string]bool{}
	for _, n := range b.Idx {
		inB[n] = true
	}
	for _, n := range dst.Idx {
		if inA[n] && inB[n] {
			return errf(pos, "contraction: index %q is summed (appears in both operands) and cannot appear in the result", n)
		}
		if !inA[n] && !inB[n] {
			return errf(pos, "contraction: result index %q appears in neither operand", n)
		}
	}
	inDst := map[string]bool{}
	for _, n := range dst.Idx {
		inDst[n] = true
	}
	for _, n := range a.Idx {
		if !inB[n] && !inDst[n] {
			return errf(pos, "contraction: operand index %q is neither summed nor in the result", n)
		}
	}
	for _, n := range b.Idx {
		if !inA[n] && !inDst[n] {
			return errf(pos, "contraction: operand index %q is neither summed nor in the result", n)
		}
	}
	return nil
}

func (c *Checked) checkCond(cond *Cond, ctx *checkCtx) error {
	if err := c.checkScalarExpr(cond.L, ctx); err != nil {
		return err
	}
	return c.checkScalarExpr(cond.R, ctx)
}

// checkCondOverIndices validates a pardo where clause: operands may only
// be the pardo's own indices (idx), parameters and literals, so the
// master can evaluate the clause when enumerating the iteration space.
func (c *Checked) checkCondOverIndices(cond *Cond, idx []string) error {
	var checkSide func(e ScalarExpr) error
	checkSide = func(e ScalarExpr) error {
		switch e := e.(type) {
		case *NumLit:
			return nil
		case *ScalarRef:
			ix := c.IndexByName[e.Name]
			if ix == nil {
				if c.ParamByName[e.Name] != nil {
					return nil
				}
				return errf(e.Pos, "where clause: %q must be an index variable, parameter, or literal", e.Name)
			}
			if !slices.Contains(idx, e.Name) {
				return errf(e.Pos, "where clause: index %q is not a pardo index here", e.Name)
			}
			return nil
		case *BinExpr:
			if err := checkSide(e.L); err != nil {
				return err
			}
			return checkSide(e.R)
		default:
			return errf(cond.Pos, "where clause: only index comparisons are allowed")
		}
	}
	if err := checkSide(cond.L); err != nil {
		return err
	}
	return checkSide(cond.R)
}

func (c *Checked) checkScalarExpr(e ScalarExpr, ctx *checkCtx) error {
	switch e := e.(type) {
	case *NumLit:
		return nil
	case *ScalarRef:
		if c.ScalarByName[e.Name] != nil || c.ParamByName[e.Name] != nil {
			return nil
		}
		if ix := c.IndexByName[e.Name]; ix != nil {
			if !ctx.bound[e.Name] {
				return errf(e.Pos, "index %q has no value here", e.Name)
			}
			return nil
		}
		return errf(e.Pos, "unknown scalar %q", e.Name)
	case *IndexRef:
		if ix := c.IndexByName[e.Name]; ix == nil {
			return errf(e.Pos, "unknown index %q", e.Name)
		}
		if !ctx.bound[e.Name] {
			return errf(e.Pos, "index %q has no value here", e.Name)
		}
		return nil
	case *BinExpr:
		if err := c.checkScalarExpr(e.L, ctx); err != nil {
			return err
		}
		return c.checkScalarExpr(e.R, ctx)
	case *DotExpr:
		if err := c.checkReadRef(e.A, ctx); err != nil {
			return err
		}
		if err := c.checkReadRef(e.B, ctx); err != nil {
			return err
		}
		return c.checkSameBlockShape(e.Pos, e.A, e.B)
	}
	return fmt.Errorf("sial: unhandled scalar expression %T", e)
}
