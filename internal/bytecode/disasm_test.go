package bytecode_test

// External test package so the disassembler can be exercised on real
// compiled programs (importing the compiler from the internal test
// package would be an import cycle).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/compiler"
)

// TestDisassembleAllChemPrograms pushes every generated SIAL program
// through the disassembler; each exercises different instruction
// renderings (contractions, served ops, executes, where clauses, procs).
func TestDisassembleAllChemPrograms(t *testing.T) {
	programs := map[string]string{
		"ccsd_term":   chem.CCSDTermProgram(),
		"mp2_energy":  chem.MP2EnergyProgram(),
		"fock_build":  chem.FockBuildProgram(),
		"ccsd_energy": chem.CCSDEnergyProgram(),
		"triples":     chem.TriplesProgram(),
	}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			prog, err := compiler.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			dis := prog.Disassemble()
			// Every instruction line must render something after the
			// opcode column; spot-check a few mandatory fragments.
			if len(strings.Split(dis, "\n")) < len(prog.Code) {
				t.Fatalf("disassembly shorter than code:\n%s", dis)
			}
			for _, want := range []string{"program " + prog.Name, "code:", "halt"} {
				if !strings.Contains(dis, want) {
					t.Fatalf("missing %q in:\n%s", want, dis)
				}
			}
		})
	}
}

func TestDisassembleRendersEveryOpKind(t *testing.T) {
	src := `
sial everything
param n = 8
aoindex I = 1, n
aoindex J = 1, n
moaindex p = 1, n
subindex pp of p
distributed D(I,J)
served S(I,J)
static F(I,J)
temp t(I,J)
temp u(I,J)
temp c(I,J)
scalar e = 1.5
scalar f
proc helper
  f = f + 1
endproc
do I
do J
  t(I,J) = 0.0
  u(I,J) = 2.0 * t(I,J)
  c(I,J) = t(I,J) + u(I,J)
  c(I,J) -= u(I,J)
  e += dot(t(I,J), u(I,J))
enddo
enddo
pardo I, J where I <= J
  get D(I,J)
  t(I,J) = D(I,J)
  put D(I,J) += t(I,J)
  request S(I,J)
  prepare S(I,J) = t(I,J)
  compute_integrals u(I,J)
  execute trace t(I,J), e
endpardo
sip_barrier
server_barrier
collective e
if e < 10
  f = 1
else
  f = 2
endif
call helper
print "value:", e
print e
blocks_to_list D
list_to_blocks D
endsial
`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{
		"block_fill", "block_scale", "block_sum", "dot", "get", "put",
		"request", "prepare", "compute_integrals", "execute", "barrier",
		"collective", "jump_if_false", "call", "print",
		"blocks_to_list", "list_to_blocks", "pardo 0: (I,J) where: push_index I, push_index J, cmp <=",
		"proc helper", "server", "sip", "\"value:\"",
	} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// TestDisassembleWhereCode shows each pardo's where code, the code the
// master runs, beside the source clause it came from.
func TestDisassembleWhereCode(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "sial", "fock_build.sial"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{
		"pardo 0: (L,S)\n",
		"pardo 1: (M,N) where: push_index M, push_index N, cmp <=\n",
	} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}
