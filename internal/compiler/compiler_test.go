package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

const paperSrc = `
sial ccsd_term
param norb = 4
param nocc = 2
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
pardo M, N, I, J
  tmpsum(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      compute_integrals V(M,N,L,S)
      tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
      tmpsum(M,N,I,J) += tmp(M,N,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = tmpsum(M,N,I,J)
endpardo M, N, I, J
sip_barrier
endsial
`

func compile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every compiled program must pass byte-code validation.
	if err := p.Validate(); err != nil {
		t.Fatalf("compiled program fails validation: %v\n%s", err, p.Disassemble())
	}
	return p
}

// ops extracts the opcode sequence.
func ops(p *bytecode.Program) []bytecode.Op {
	out := make([]bytecode.Op, len(p.Code))
	for i, in := range p.Code {
		out[i] = in.Op
	}
	return out
}

func TestCompilePaperExample(t *testing.T) {
	p := compile(t, paperSrc)
	if p.Name != "ccsd_term" {
		t.Fatalf("name %q", p.Name)
	}
	if len(p.Params) != 2 || len(p.Indices) != 6 || len(p.Arrays) != 5 {
		t.Fatalf("tables: %d params %d indices %d arrays", len(p.Params), len(p.Indices), len(p.Arrays))
	}
	if len(p.Pardos) != 1 || len(p.Pardos[0].Indices) != 4 {
		t.Fatalf("pardos: %+v", p.Pardos)
	}
	want := []bytecode.Op{
		bytecode.OpPardoStart,
		bytecode.OpPushLit, bytecode.OpBlockFill,
		bytecode.OpDoStart,
		bytecode.OpDoStart,
		bytecode.OpGet,
		bytecode.OpComputeIntegrals,
		bytecode.OpContract,
		bytecode.OpBlockCopy, // tmpsum += tmp compiles to copy with add mode
		bytecode.OpDoEnd,
		bytecode.OpDoEnd,
		bytecode.OpPut,
		bytecode.OpPardoEnd,
		bytecode.OpBarrier,
		bytecode.OpHalt,
	}
	got := ops(p)
	if len(got) != len(want) {
		t.Fatalf("code length %d, want %d:\n%s", len(got), len(want), p.Disassemble())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %s, want %s:\n%s", i, got[i], want[i], p.Disassemble())
		}
	}
	// Jump targets: pardo exit must be the instruction after PardoEnd.
	if p.Code[0].C != 13 {
		t.Fatalf("pardo exit = %d, want 13", p.Code[0].C)
	}
	if p.Code[12].B != 0 {
		t.Fatalf("pardo end start = %d, want 0", p.Code[12].B)
	}
	// += assign mode on the accumulate.
	if p.Code[8].B != bytecode.AssignAdd {
		t.Fatalf("accumulate mode = %d, want AssignAdd", p.Code[8].B)
	}
	// Contraction refs carry index ids usable as labels.
	c := p.Code[7]
	if len(c.R[1].Idx) != 4 || len(c.R[2].Idx) != 4 || len(c.R[0].Idx) != 4 {
		t.Fatalf("contract refs: %+v", c.R)
	}
}

func TestCompilePermutation(t *testing.T) {
	p := compile(t, `
sial perm
aoindex I = 1, 4
aoindex J = 1, 4
aoindex K = 1, 4
temp V1(K,J,I)
temp V2(I,J,K)
do I
do J
do K
  V1(K,J,I) = V2(I,J,K)
enddo
enddo
enddo
endsial`)
	var found bool
	for _, in := range p.Code {
		if in.Op == bytecode.OpBlockCopy {
			found = true
			// dst dims (K,J,I) map to src (I,J,K): perm = [2,1,0].
			if len(in.Aux) != 3 || in.Aux[0] != 2 || in.Aux[1] != 1 || in.Aux[2] != 0 {
				t.Fatalf("perm = %v, want [2 1 0]", in.Aux)
			}
		}
	}
	if !found {
		t.Fatal("no block copy emitted")
	}
}

func TestCompileSliceInsertModes(t *testing.T) {
	p := compile(t, `
sial subs
moaindex i = 1, 8
moaindex j = 1, 8
subindex ii of i
temp Xi(i,j)
temp Xii(ii,j)
do j
do i
do ii in i
  Xii(ii,j) = Xi(ii,j)
  Xi(ii,j) = Xii(ii,j)
enddo
enddo
enddo
endsial`)
	var modes []int
	for _, in := range p.Code {
		if in.Op == bytecode.OpBlockCopy {
			modes = append(modes, in.A)
		}
	}
	if len(modes) != 2 || modes[0] != bytecode.CopySlice || modes[1] != bytecode.CopyInsert {
		t.Fatalf("copy modes = %v, want [slice insert]", modes)
	}
}

func TestCompileWhere(t *testing.T) {
	p := compile(t, `
sial wh
param n = 8
aoindex I = 1, n
aoindex J = 1, n
pardo I, J where I <= J where I + 1 < n
endpardo
endsial`)
	// Each clause is its two sides and one cmp, in the pardo's own code.
	want := []bytecode.Instr{
		{Op: bytecode.OpPushIndex, A: 0}, {Op: bytecode.OpPushIndex, A: 1}, {Op: bytecode.OpCmp, A: bytecode.CmpLE},
		{Op: bytecode.OpPushIndex, A: 0}, {Op: bytecode.OpPushLit, F: 1}, {Op: bytecode.OpAdd},
		{Op: bytecode.OpPushParam, A: 0}, {Op: bytecode.OpCmp, A: bytecode.CmpLT},
	}
	w := p.Pardos[0].Where
	if len(w) != len(want) {
		t.Fatalf("where code %v, want %v", w, want)
	}
	for k := range want {
		if w[k].Op != want[k].Op || w[k].A != want[k].A || w[k].F != want[k].F {
			t.Fatalf("where code %d = %+v, want %+v", k, w[k], want[k])
		}
	}
	for _, in := range p.Code {
		if !in.Op.Super() {
			t.Fatalf("scalar op %s in the code array: where code belongs to the pardo", in.Op)
		}
	}
}

// TestCompileWhereForms compiles each form a where clause may take and
// checks the iterations its code passes against the same filter in Go.
func TestCompileWhereForms(t *testing.T) {
	const n = 6
	cases := []struct {
		where string
		keep  func(i, j float64) bool
	}{
		{"I <= 3", func(i, j float64) bool { return i <= 3 }},
		{"I < J", func(i, j float64) bool { return i < j }},
		{"J >= n - 1", func(i, j float64) bool { return j >= n-1 }},
		{"I + J > 7", func(i, j float64) bool { return i+j > 7 }},
		{"J - I == 2", func(i, j float64) bool { return j-i == 2 }},
		{"I * J != 6", func(i, j float64) bool { return i*j != 6 }},
		{"I / J < 0.5", func(i, j float64) bool { return i/j < 0.5 }}, // float division, as in if
		{"(I + 1) * 2 <= J * n / 3", func(i, j float64) bool { return (i+1)*2 <= j*n/3 }},
		{"I <= J where I + J > 6", func(i, j float64) bool { return i <= j && i+j > 6 }},
	}
	for _, tc := range cases {
		p := compile(t, fmt.Sprintf(`
sial wh
param n = %d
aoindex I = 1, n
aoindex J = 1, n
pardo I, J where %s
endpardo
endsial`, n, tc.where))
		if err := p.Validate(); err != nil {
			t.Fatalf("where %s: %v", tc.where, err)
		}
		pd := &p.Pardos[0]
		stack := make([]float64, 0, len(pd.Where))
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if got, want := pd.Passes([]int{i, j}, []int{n}, stack), tc.keep(float64(i), float64(j)); got != want {
					t.Errorf("where %s at I=%d J=%d: passes %v, want %v", tc.where, i, j, got, want)
				}
			}
		}
	}
}

func TestCompileIfElseJumps(t *testing.T) {
	p := compile(t, `
sial cond
scalar x = 1
scalar y
if x < 2
  y = 10
else
  y = 20
endif
endsial`)
	dis := p.Disassemble()
	if !strings.Contains(dis, "jump_if_false") || !strings.Contains(dis, "jump") {
		t.Fatalf("missing jumps:\n%s", dis)
	}
	// Execute mentally: find OpJumpIfFalse target points into else.
	var jf *bytecode.Instr
	for i := range p.Code {
		if p.Code[i].Op == bytecode.OpJumpIfFalse {
			jf = &p.Code[i]
		}
	}
	if jf == nil {
		t.Fatal("no jump_if_false")
	}
	// Target instruction must be the start of the else branch (a push).
	if p.Code[jf.A].Op != bytecode.OpPushLit {
		t.Fatalf("else target op = %s", p.Code[jf.A].Op)
	}
}

func TestCompileProcEntries(t *testing.T) {
	p := compile(t, `
sial procs
scalar s
proc a
  s = 1
endproc
proc b
  call a
endproc
call b
endsial`)
	if len(p.Procs) != 2 {
		t.Fatalf("procs = %d", len(p.Procs))
	}
	for _, pr := range p.Procs {
		if pr.Entry <= 0 || pr.Entry >= len(p.Code) {
			t.Fatalf("proc %s entry %d out of range", pr.Name, pr.Entry)
		}
	}
	// Code after Halt must contain the bodies followed by returns.
	var haltAt int
	for i, in := range p.Code {
		if in.Op == bytecode.OpHalt {
			haltAt = i
			break
		}
	}
	returns := 0
	for _, in := range p.Code[haltAt:] {
		if in.Op == bytecode.OpReturn {
			returns++
		}
	}
	if returns != 2 {
		t.Fatalf("returns after halt = %d, want 2", returns)
	}
}

func TestCompileExecuteArgs(t *testing.T) {
	p := compile(t, `
sial exe
aoindex I = 1, 4
temp a(I,I)
temp b(I,I)
scalar s
do I
  execute my_op a(I,I), b(I,I), s
enddo
endsial`)
	var ex *bytecode.Instr
	for i := range p.Code {
		if p.Code[i].Op == bytecode.OpExecute {
			ex = &p.Code[i]
		}
	}
	if ex == nil {
		t.Fatal("no execute emitted")
	}
	if ex.B != 2 || len(ex.Aux) != 1 {
		t.Fatalf("execute blocks=%d scalars=%v", ex.B, ex.Aux)
	}
	if p.Strings[ex.A] != "my_op" {
		t.Fatalf("execute name %q", p.Strings[ex.A])
	}
}

func TestCompileTooManyExecuteBlocks(t *testing.T) {
	_, err := CompileSource(`
sial exe
aoindex I = 1, 4
temp a(I,I)
do I
  execute my_op a(I,I), a(I,I), a(I,I), a(I,I)
enddo
endsial`)
	if err == nil || !strings.Contains(err.Error(), "at most 3") {
		t.Fatalf("expected block-arg limit error, got %v", err)
	}
}

func TestCompileSourceErrors(t *testing.T) {
	if _, err := CompileSource("not sial"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := CompileSource("sial x\ncall nothing\nendsial"); err == nil {
		t.Fatal("check error expected")
	}
}
