package sip

import (
	"math"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
)

func TestBuiltinTraceAndFrobenius(t *testing.T) {
	src := `
sial builtins
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar tr
scalar fro
do I
  a(I,I) = 3.0
  execute trace a(I,I), tr
  execute frobenius a(I,I), fro
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	// 2 blocks of 2x2 all-3s: trace contributes 2*3 each => 12.
	if res.Scalars["tr"] != 12 {
		t.Fatalf("tr = %g, want 12", res.Scalars["tr"])
	}
	// frobenius: 4 els * 9 per block * 2 blocks = 72.
	if res.Scalars["fro"] != 72 {
		t.Fatalf("fro = %g, want 72", res.Scalars["fro"])
	}
}

func TestBuiltinSymmetrizeInProgram(t *testing.T) {
	src := `
sial symdemo
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar base = 1.5
scalar asym
do I
  execute fill_seq a(I,I), base
  execute symmetrize a(I,I)
  execute antisym_norm a(I,I), asym
enddo I
endsial
`
	// Custom super instruction measuring |a - a^T| to verify symmetry.
	asymNorm := func(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
		b := blocks[0]
		d := b.Dims()
		for i := 0; i < d[0]; i++ {
			for j := 0; j < d[1]; j++ {
				*scalars[0] += math.Abs(b.At(i, j) - b.At(j, i))
			}
		}
		return nil
	}
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2),
		Super: map[string]SuperFunc{"antisym_norm": asymNorm}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["asym"] != 0 {
		t.Fatalf("asymmetry after symmetrize = %g, want 0", res.Scalars["asym"])
	}
}

func TestBuiltinDiagOps(t *testing.T) {
	src := `
sial diag
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar v = 5.0
scalar two = 2.0
scalar tr
do I
  a(I,I) = 1.0
  execute set_diag a(I,I), v
  execute scale_diag a(I,I), two
  execute trace a(I,I), tr
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	// One 4x4 block: diag set to 5, scaled by 2 -> trace 40.
	if res.Scalars["tr"] != 40 {
		t.Fatalf("tr = %g, want 40", res.Scalars["tr"])
	}
}

func TestBuiltinInvertAndMaxAbs(t *testing.T) {
	src := `
sial inv
param n = 2
aoindex I = 1, n
temp a(I,I)
scalar m
do I
  a(I,I) = 4.0
  execute invert_elements a(I,I)
  execute max_abs a(I,I), m
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["m"] != 0.25 {
		t.Fatalf("m = %g, want 0.25", res.Scalars["m"])
	}
}

func TestUserOverridesBuiltin(t *testing.T) {
	src := `
sial override
param n = 2
aoindex I = 1, n
temp a(I,I)
scalar s
do I
  a(I,I) = 1.0
  execute trace a(I,I), s
enddo I
endsial
`
	custom := func(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
		*scalars[0] = -1
		return nil
	}
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2),
		Super: map[string]SuperFunc{"trace": custom}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["s"] != -1 {
		t.Fatalf("user override ignored: s = %g", res.Scalars["s"])
	}
}

func TestBuiltinArityErrors(t *testing.T) {
	src := `
sial badarity
param n = 2
aoindex I = 1, n
temp a(I,I)
do I
  a(I,I) = 1.0
  execute trace a(I,I)
enddo I
endsial
`
	_, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err == nil || !strings.Contains(err.Error(), "want 1 block(s) and 1 scalar(s)") {
		t.Fatalf("expected arity error, got %v", err)
	}
}

func TestBuiltinShapeErrors(t *testing.T) {
	src := `
sial badshape
param n = 4
param m = 2
aoindex I = 1, n
aoindex J = 1, m
temp a(I,J)
scalar s
do I
do J
  a(I,J) = 1.0
  execute trace a(I,J), s
enddo
enddo
endsial
`
	_, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(4)})
	if err == nil || !strings.Contains(err.Error(), "square rank-2") {
		t.Fatalf("expected shape error, got %v", err)
	}
}

func TestBuiltinsExported(t *testing.T) {
	b := Builtins()
	if len(b) < 9 {
		t.Fatalf("builtins = %d, want >= 9", len(b))
	}
	// Mutating the returned map must not affect the registry.
	delete(b, "trace")
	if _, ok := builtinSuper["trace"]; !ok {
		t.Fatal("Builtins() aliased the internal registry")
	}
}

// TestExecuteCommunicatedArgIsACopy: execute hands a super instruction a
// copy of a distributed block, drawn from the block pool and returned to
// it after the call, so a function that writes its argument changes
// neither the cached block nor the home's.
func TestExecuteCommunicatedArgIsACopy(t *testing.T) {
	src := `
sial execcopy
param n = 4
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp a(I,J)
scalar g
scalar h
pardo I, J
  a(I,J) = 1.0
  put D(I,J) = a(I,J)
endpardo I, J
sip_barrier
pardo I, J
  get D(I,J)
  execute poison D(I,J)
  g += dot(D(I,J), D(I,J))
endpardo I, J
sip_barrier
pardo I, J
  get D(I,J)
  h += dot(D(I,J), D(I,J))
endpardo I, J
collective g
collective h
endsial
`
	poison := func(_ *ExecCtx, blocks []*block.Block, _ []*float64) error {
		blocks[0].Fill(math.NaN())
		return nil
	}
	for _, workers := range []int{1, 2} {
		res, err := RunSource(src, Config{Workers: workers, Seg: bytecode.DefaultSegConfig(2),
			Super: map[string]SuperFunc{"poison": poison}})
		if err != nil {
			t.Fatal(err)
		}
		if g, h := res.Scalars["g"], res.Scalars["h"]; g != 16 || h != 16 {
			t.Errorf("workers=%d: g = %g, h = %g, want 16: execute wrote through to a communicated block", workers, g, h)
		}
	}
}
