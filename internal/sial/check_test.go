package sial

import (
	"strings"
	"testing"

	"repro/internal/segment"
)

func mustCheck(t *testing.T, src string) *Checked {
	t.Helper()
	prog := mustParse(t, src)
	c, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return c
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed (want check error): %v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("expected check error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestCheckPaperExample(t *testing.T) {
	c := mustCheck(t, paperExample)
	if len(c.Indices) != 6 {
		t.Fatalf("indices = %d", len(c.Indices))
	}
	if len(c.Arrays) != 5 {
		t.Fatalf("arrays = %d", len(c.Arrays))
	}
	if c.ArrayByName["T"].Kind != KindDistributed {
		t.Fatal("T should be distributed")
	}
	if c.IndexByName["M"].Kind != segment.AO {
		t.Fatal("M should be aoindex")
	}
	if c.IndexByName["I"].Kind != segment.MO {
		t.Fatal("I should be moindex")
	}
}

func TestCheckSubindices(t *testing.T) {
	c := mustCheck(t, `
sial subs
moaindex i = 1, 8
subindex ii of i
moaindex j = 1, 8
temp Xi(i,j)
temp Xii(ii,j)
pardo j
  do i
    do ii in i
      Xii(ii,j) = Xi(ii,j)
      Xi(ii,j) = Xii(ii,j)
    enddo ii
  enddo i
endpardo j
endsial`)
	ii := c.IndexByName["ii"]
	if ii.Parent == nil || ii.Parent.Name != "i" {
		t.Fatalf("ii parent: %+v", ii)
	}
	if ii.Kind != segment.MOA {
		t.Fatalf("ii kind: %v (should inherit from parent)", ii.Kind)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup decl", "sial x\naoindex I = 1, 4\nscalar I\nendsial", "duplicate declaration"},
		{"unknown param", "sial x\naoindex I = 1, n\nendsial", "unknown parameter"},
		{"unknown index in array", "sial x\ndistributed D(Q,Q)\nendsial", "unknown index"},
		{"simple index dim", "sial x\nindex c = 1, 4\ndistributed D(c,c)\nendsial", "simple index"},
		{"sub of sub", "sial x\naoindex i = 1, 8\nsubindex ii of i\nsubindex iii of ii\nendsial", "itself a subindex"},
		{"sub of simple", "sial x\nindex c = 1, 8\nsubindex cc of c\nendsial", "simple index"},
		{"sub of unknown", "sial x\nsubindex ii of i\nendsial", "unknown super index"},
		{"nested pardo", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\npardo I\npardo J\nendpardo\nendpardo\nendsial", "may not be nested"},
		{"pardo subindex", "sial x\naoindex i = 1, 8\nsubindex ii of i\npardo ii\nendpardo\nendsial", "subindex"},
		{"rebinding do", "sial x\naoindex I = 1, 4\ndo I\ndo I\nenddo\nenddo\nendsial", "already bound"},
		{"do in non-sub", "sial x\naoindex i = 1, 8\naoindex j = 1, 8\ndo i\ndo j in i\nenddo\nenddo\nendsial", "not a subindex"},
		{"do in wrong super", "sial x\naoindex i = 1, 8\naoindex k = 1, 8\nsubindex ii of i\ndo k\ndo ii in k\nenddo\nenddo\nendsial", "subindex of"},
		{"do in unbound super", "sial x\naoindex i = 1, 8\nsubindex ii of i\ndo ii in i\nenddo\nendsial", "no value here"},
		{"get non-distributed", "sial x\naoindex I = 1, 4\ntemp A(I,I)\ndo I\nget A(I,I)\nenddo\nendsial", "requires a distributed array"},
		{"request non-served", "sial x\naoindex I = 1, 4\ndistributed A(I,I)\ndo I\nrequest A(I,I)\nenddo\nendsial", "requires a served array"},
		{"assign distributed", "sial x\naoindex I = 1, 4\ndistributed A(I,I)\ndo I\nA(I,I) = 0.0\nenddo\nendsial", "use put"},
		{"unbound index", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\ntemp A(I,J)\ndo I\nA(I,J) = 0.0\nenddo\nendsial", "no value here"},
		{"rank mismatch", "sial x\naoindex I = 1, 4\ntemp A(I,I)\ndo I\nA(I) = 0.0\nenddo\nendsial", "rank"},
		{"kind mismatch", "sial x\naoindex I = 1, 4\nmoindex P = 1, 4\ntemp A(I,I)\ndo I\ndo P\nA(I,P) = 0.0\nenddo\nenddo\nendsial", "incompatible"},
		{"range mismatch", "sial x\naoindex I = 1, 4\naoindex K = 1, 8\ntemp A(I,I)\ndo I\ndo K\nA(I,K) = 0.0\nenddo\nenddo\nendsial", "incompatible"},
		{"repeated index", "sial x\naoindex I = 1, 4\ntemp A(I,I)\ndo I\nA(I,I) = 0.0\nenddo\nendsial" /* ok */, ""},
		{"contraction bad result", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\naoindex K = 1, 4\ntemp A(I,K)\ntemp B(K,J)\ntemp C(I,K)\ndo I\ndo J\ndo K\nC(I,K) = A(I,K) * B(K,J)\nenddo\nenddo\nenddo\nendsial", "summed"},
		{"contraction dangling", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\naoindex K = 1, 4\naoindex Q = 1, 4\ntemp A(I,K)\ntemp B(K,J)\ntemp C(I,Q)\ndo I\ndo J\ndo K\ndo Q\nC(I,Q) = A(I,K) * B(K,J)\nenddo\nenddo\nenddo\nenddo\nendsial", "appears in neither"},
		{"contraction repeated", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\naoindex K = 1, 4\ntemp A(I,K)\ntemp B(K,J)\ntemp C(I,I)\ndo I\ndo J\ndo K\nC(I,I) = A(I,K) * B(K,J)\nenddo\nenddo\nenddo\nendsial", "repeated within"},
		{"collective in pardo", "sial x\naoindex I = 1, 4\nscalar e\npardo I\ncollective e\nendpardo\nendsial", "not allowed inside a pardo"},
		{"barrier in pardo", "sial x\naoindex I = 1, 4\npardo I\nsip_barrier\nendpardo\nendsial", "not allowed inside a pardo"},
		{"unknown proc", "sial x\ncall nothing\nendsial", "unknown procedure"},
		{"recursive proc", "sial x\nproc a\ncall a\nendproc\nendsial", "recursive"},
		{"unknown scalar", "sial x\ne = 1\nendsial", "undeclared scalar"},
		{"where non-index", "sial x\naoindex I = 1, 4\nscalar s\npardo I where s < 2\nendpardo\nendsial", "must be an index variable"},
		{"where unbound index", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\npardo I where J < 2\nendpardo\nendsial", "not a pardo index"},
		{"where enclosing do index", whereEnclosingDoIndex, `index "I" is not a pardo index`},
		{"put shape mismatch", "sial x\naoindex I = 1, 4\naoindex J = 1, 4\ndistributed D(I,J)\ntemp A(I,J)\npardo I, J\nput D(I,J) = A(J,I)\nendpardo\nendsial", "same index variables"},
		{"compute on distributed", "sial x\naoindex I = 1, 4\ndistributed D(I,I)\ndo I\ncompute_integrals D(I,I)\nenddo\nendsial", "must be temp or local"},
		{"blocks_to_list temp", "sial x\naoindex I = 1, 4\ntemp A(I,I)\nblocks_to_list A\nendsial", "must be distributed"},
	}
	for _, tc := range cases {
		if tc.want == "" {
			mustCheck(t, tc.src)
			continue
		}
		t.Run(tc.name, func(t *testing.T) { checkErr(t, tc.src, tc.want) })
	}
}

func TestCheckMutualRecursion(t *testing.T) {
	checkErr(t, `
sial x
proc a
call b
endproc
proc b
call a
endproc
endsial`, "recursive")
}

func TestCheckProcWithPardoCalledInPardo(t *testing.T) {
	checkErr(t, `
sial x
aoindex I = 1, 4
aoindex J = 1, 4
proc p
pardo J
endpardo
endproc
pardo I
call p
endpardo
endsial`, "may not be called inside a pardo")
}

func TestCheckProcUsesCallSiteBindings(t *testing.T) {
	// A proc may reference indices it does not bind itself; the call
	// site provides them.
	mustCheck(t, `
sial x
aoindex I = 1, 4
temp A(I,I)
proc zero_a
  A(I,I) = 0.0
endproc
do I
  call zero_a
enddo I
endsial`)
}

func TestCheckDifferentVarsSameRangeOK(t *testing.T) {
	// M and N both range over 1..norb; T declared with (L,S) accepts
	// (M,N).
	mustCheck(t, `
sial x
param norb = 4
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
distributed T(L,S)
temp A(M,N)
pardo M, N
  get T(M,N)
  A(M,N) = T(M,N)
endpardo
endsial`)
}

func TestCheckPermutedCopyOK(t *testing.T) {
	mustCheck(t, `
sial x
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
}

func TestCheckCopyUnrelatedVarsRejected(t *testing.T) {
	checkErr(t, `
sial x
aoindex I = 1, 4
aoindex J = 1, 4
temp A(I,I)
temp B(J,J)
do I
do J
  A(I,I) = B(J,J)
enddo
enddo
endsial`, "does not appear in source")
}

// whereEnclosingDoIndex names, in a where clause, an index bound by an
// enclosing do loop rather than by the pardo: the master enumerating the
// pardo's iterations knows no value for it.
const whereEnclosingDoIndex = `sial x
param n = 4
aoindex I = 1, n
aoindex M = 1, n
scalar s
do I
pardo M where M <= I
s += 1.0
endpardo
enddo
collective s
endsial`
