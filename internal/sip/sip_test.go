package sip

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/segment"
)

// elemFn computes a deterministic element value from global indices.
type elemFn func(idx []int) float64

// presetFrom builds a PresetFunc filling blocks from an element function.
func presetFrom(f elemFn) PresetFunc {
	return func(coord segment.Coord, lo, hi []int) *block.Block {
		dims := make([]int, len(lo))
		for d := range lo {
			dims[d] = hi[d] - lo[d] + 1
		}
		b := block.New(dims...)
		data := b.Data()
		idx := make([]int, len(dims))
		for off := range data {
			rem := off
			for d := len(dims) - 1; d >= 0; d-- {
				idx[d] = rem%dims[d] + lo[d]
				rem /= dims[d]
			}
			data[off] = f(idx)
		}
		return b
	}
}

// tElem is the synthetic T-amplitude element function used across tests.
func tElem(idx []int) float64 {
	s := 0
	for d, v := range idx {
		s += (d*7 + 3) * v
	}
	return float64(s%13)*0.25 - 1.0
}

// vElem evaluates the default integral generator at one point.
func vElem(idx []int) float64 {
	return DefaultIntegrals("", idx, idx).Data()[0]
}

// dense assembles gathered blocks into a flat row-major array over the
// full element space of the shape.
func dense(t *testing.T, shape segment.Shape, blocks []ArrayBlock) []float64 {
	t.Helper()
	full := make([]float64, shape.NumElements())
	// Full-array dims and strides in element space.
	dims := make([]int, shape.Rank())
	los := make([]int, shape.Rank())
	for d, ix := range shape.Dims {
		dims[d] = ix.N()
		los[d] = ix.Lo
	}
	strides := make([]int, len(dims))
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = st
		st *= dims[i]
	}
	for _, ab := range blocks {
		coord := shape.CoordOf(ab.Ord)
		lo, hi := shape.BlockBounds(coord)
		bdims := make([]int, len(lo))
		for d := range lo {
			bdims[d] = hi[d] - lo[d] + 1
		}
		idx := make([]int, len(bdims))
		for off, v := range ab.Data {
			rem := off
			for d := len(bdims) - 1; d >= 0; d-- {
				idx[d] = rem % bdims[d]
				rem /= bdims[d]
			}
			pos := 0
			for d := range idx {
				pos += (lo[d] - los[d] + idx[d]) * strides[d]
			}
			full[pos] = v
		}
	}
	return full
}

func layoutFor(t *testing.T, src string, cfg Config) (*bytecode.Program, *bytecode.Layout) {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seg.Default == 0 {
		cfg.Seg = bytecode.DefaultSegConfig(4)
	}
	layout, err := prog.Resolve(cfg.Params, cfg.Seg)
	if err != nil {
		t.Fatal(err)
	}
	return prog, layout
}

const paperProgram = `
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

// runPaperProgram executes the paper's §IV-D example and checks the
// result against a direct dense evaluation of equation (2).
func runPaperProgram(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Params = map[string]int{"norb": 4, "nocc": 2}
	if cfg.Seg.Default == 0 {
		cfg.Seg = bytecode.DefaultSegConfig(2)
	}
	cfg.Preset = map[string]PresetFunc{"T": presetFrom(tElem)}
	cfg.GatherArrays = true
	res, err := RunSource(paperProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, layout := layoutFor(t, paperProgram, cfg)
	prog, _ := compiler.CompileSource(paperProgram)
	rShape := layout.Shapes[prog.ArrayID("R")]
	got := dense(t, rShape, res.Arrays["R"])

	const norb, nocc = 4, 2
	want := make([]float64, norb*norb*nocc*nocc)
	pos := 0
	for m := 1; m <= norb; m++ {
		for n := 1; n <= norb; n++ {
			for i := 1; i <= nocc; i++ {
				for j := 1; j <= nocc; j++ {
					var sum float64
					for l := 1; l <= norb; l++ {
						for s := 1; s <= norb; s++ {
							sum += vElem([]int{m, n, l, s}) * tElem([]int{l, s, i, j})
						}
					}
					want[pos] = sum
					pos++
				}
			}
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("R[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	return res
}

func TestPaperExampleSingleWorker(t *testing.T) {
	runPaperProgram(t, Config{Workers: 1})
}

func TestPaperExampleManyWorkers(t *testing.T) {
	runPaperProgram(t, Config{Workers: 5})
}

func TestPaperExampleWithPrefetch(t *testing.T) {
	res := runPaperProgram(t, Config{Workers: 3, PrefetchWindow: 2})
	if res.Profile.Prefetches() == 0 {
		t.Fatal("expected prefetches with PrefetchWindow > 0")
	}
}

func TestPaperExampleRaggedSegments(t *testing.T) {
	// Segment size 3 over ranges of 4 and 2 exercises short tail blocks.
	runPaperProgram(t, Config{Workers: 2, Seg: bytecode.DefaultSegConfig(3)})
}

func TestResultIdenticalAcrossWorkerCounts(t *testing.T) {
	var first []float64
	for _, workers := range []int{1, 2, 7} {
		cfg := Config{Workers: workers, Params: map[string]int{"norb": 4, "nocc": 2},
			Seg: bytecode.DefaultSegConfig(2), GatherArrays: true,
			Preset: map[string]PresetFunc{"T": presetFrom(tElem)}}
		res, err := RunSource(paperProgram, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog, layout := layoutFor(t, paperProgram, cfg)
		got := dense(t, layout.Shapes[prog.ArrayID("R")], res.Arrays["R"])
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("workers=%d: R[%d] = %g, differs from single-worker %g", workers, i, got[i], first[i])
			}
		}
	}
}

func TestScalarCollectiveEnergy(t *testing.T) {
	src := `
sial energy
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed T(I,J)
scalar e
pardo I, J
  get T(I,J)
  e += dot(T(I,J), T(I,J))
endpardo
sip_barrier
collective e
print "energy", e
endsial
`
	var out bytes.Buffer
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), Output: &out,
		Preset: map[string]PresetFunc{"T": presetFrom(tElem)}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 6; j++ {
			v := tElem([]int{i, j})
			want += v * v
		}
	}
	if math.Abs(res.Scalars["e"]-want) > 1e-12 {
		t.Fatalf("e = %g, want %g", res.Scalars["e"], want)
	}
	if !strings.Contains(out.String(), "energy") {
		t.Fatalf("print output missing: %q", out.String())
	}
}

func TestWhereClauseSymmetry(t *testing.T) {
	src := `
sial sym
param n = 8
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp one(I,J)
pardo I, J where I <= J
  one(I,J) = 1.0
  put D(I,J) = one(I,J)
endpardo
sip_barrier
endsial
`
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(4), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	shape := layout.Shapes[prog.ArrayID("D")]
	written := map[int]bool{}
	for _, ab := range res.Arrays["D"] {
		written[ab.Ord] = true
	}
	shape.EachCoord(func(c segment.Coord) {
		ord := shape.Ordinal(c)
		wantWritten := c[0] <= c[1]
		if written[ord] != wantWritten {
			t.Errorf("block %v written=%v, want %v", c, written[ord], wantWritten)
		}
	})
}

func TestPermutationThroughPut(t *testing.T) {
	src := `
sial permput
param n = 4
aoindex I = 1, n
aoindex J = 1, n
distributed A(I,J)
distributed B(J,I)
temp tmp(J,I)
pardo I, J
  get A(I,J)
  tmp(J,I) = A(I,J)
  put B(J,I) = tmp(J,I)
endpardo
sip_barrier
endsial
`
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2), GatherArrays: true,
		Preset: map[string]PresetFunc{"A": presetFrom(tElem)}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	b := dense(t, layout.Shapes[prog.ArrayID("B")], res.Arrays["B"])
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			got := b[(j-1)*4+(i-1)]
			want := tElem([]int{i, j})
			if got != want {
				t.Fatalf("B[%d,%d] = %g, want %g", j, i, got, want)
			}
		}
	}
}

func TestServedArrayRoundTrip(t *testing.T) {
	src := `
sial served_rt
param n = 8
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
distributed D(I,J)
temp t(I,J)
pardo I, J
  get D(I,J)
  prepare S(I,J) = D(I,J)
endpardo
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = 2.0 * S(I,J)
  prepare S(I,J) = t(I,J)
endpardo
server_barrier
endsial
`
	// Server cache of 2 blocks forces disk write-back traffic.
	cfg := Config{Workers: 3, Servers: 2, ServerCacheBlocks: 2,
		Seg: bytecode.DefaultSegConfig(4), GatherArrays: true,
		Preset: map[string]PresetFunc{"D": presetFrom(tElem)}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	s := dense(t, layout.Shapes[prog.ArrayID("S")], res.Served["S"])
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			got := s[(i-1)*8+(j-1)]
			want := 2 * tElem([]int{i, j})
			if got != want {
				t.Fatalf("S[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestServedAccumulate(t *testing.T) {
	src := `
sial served_acc
param n = 4
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp one(I,J)
pardo I, J
  one(I,J) = 1.0
  prepare S(I,J) += one(I,J)
endpardo
server_barrier
pardo I, J
  one(I,J) = 0.5
  prepare S(I,J) += one(I,J)
endpardo
server_barrier
endsial
`
	cfg := Config{Workers: 2, Servers: 1, Seg: bytecode.DefaultSegConfig(2), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	s := dense(t, layout.Shapes[prog.ArrayID("S")], res.Served["S"])
	for _, v := range s {
		if v != 1.5 {
			t.Fatalf("accumulated value %g, want 1.5", v)
		}
	}
}

func TestDistributedAccumulate(t *testing.T) {
	// Atomic += puts from all (I,J) iterations into block (1,1) without
	// barriers between them (paper: accumulates need no barrier).
	src := `
sial acc
param n = 4
aoindex I = 1, n
aoindex J = 1, n
aoindex K = 1, 1
distributed D(K,K)
temp one(K,K)
pardo I, J
  do K
    one(K,K) = 1.0
    put D(K,K) += one(K,K)
  enddo K
endpardo
sip_barrier
endsial
`
	cfg := Config{Workers: 4, Seg: bytecode.DefaultSegConfig(1), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.Arrays["D"]
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(blocks))
	}
	if got := blocks[0].Data[0]; got != 16 {
		t.Fatalf("accumulated %g, want 16 (4x4 iterations)", got)
	}
}

func TestSubindexSliceInsert(t *testing.T) {
	src := `
sial subidx
param n = 8
moaindex i = 1, n
moaindex j = 1, n
subindex ii of i
local Xi(i,j)
temp Xii(ii,j)
scalar total
pardo j
  do i
    Xi(i,j) = 1.0
    do ii in i
      Xii(ii,j) = Xi(ii,j)
      Xii(ii,j) *= 3.0
      Xi(ii,j) = Xii(ii,j)
    enddo ii
    total += dot(Xi(i,j), Xi(i,j))
  enddo i
endpardo j
collective total
endsial
`
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(4)}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every element becomes 3; total = sum over 8x8 of 9.
	if got := res.Scalars["total"]; got != 64*9 {
		t.Fatalf("total = %g, want %g", got, float64(64*9))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := `
sial ckpt
param n = 4
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp t(I,J)
pardo I, J
  t(I,J) = 7.0
  put D(I,J) = t(I,J)
endpardo
sip_barrier
blocks_to_list D
pardo I, J
  t(I,J) = 0.0
  put D(I,J) = t(I,J)
endpardo
sip_barrier
list_to_blocks D
sip_barrier
endsial
`
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	d := dense(t, layout.Shapes[prog.ArrayID("D")], res.Arrays["D"])
	for i, v := range d {
		if v != 7 {
			t.Fatalf("restored D[%d] = %g, want 7", i, v)
		}
	}
}

func TestExecuteCustomSuperInstruction(t *testing.T) {
	src := `
sial custom
param n = 4
aoindex I = 1, n
temp t(I,I)
scalar tr
do I
  t(I,I) = 2.0
  execute trace_add t(I,I), tr
enddo I
endsial
`
	traceAdd := func(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
		b := blocks[0]
		d := b.Dims()
		for i := 0; i < d[0] && i < d[1]; i++ {
			*scalars[0] += b.At(i, i)
		}
		return nil
	}
	cfg := Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2),
		Super: map[string]SuperFunc{"trace_add": traceAdd}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 blocks of 2x2 diag each contributing 2*2 = 8 total.
	if got := res.Scalars["tr"]; got != 8 {
		t.Fatalf("tr = %g, want 8", got)
	}
}

func TestIfElseAndScalarOps(t *testing.T) {
	src := `
sial cond
scalar x = 3
scalar y
if x < 2
  y = 10
else
  y = 20
endif
y = y + x * 2
endsial
`
	res, err := RunSource(src, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["y"] != 26 {
		t.Fatalf("y = %g, want 26", res.Scalars["y"])
	}
}

func TestProcCall(t *testing.T) {
	src := `
sial procs
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar s
proc fill_and_count
  a(I,I) = 1.0
  s += dot(a(I,I), a(I,I))
endproc
do I
  call fill_and_count
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["s"] != 8 { // 2 blocks x 4 elements x 1
		t.Fatalf("s = %g, want 8", res.Scalars["s"])
	}
	// Per-procedure profiling (paper §VI-B): 2 calls recorded.
	if len(res.Profile.Procs) != 1 || res.Profile.Procs[0].Count != 2 {
		t.Fatalf("proc stats: %+v", res.Profile.Procs)
	}
	if !strings.Contains(res.Profile.String(), "proc 0: 2 calls") {
		t.Fatalf("profile text lacks proc stats:\n%s", res.Profile)
	}
}

func TestGetWithoutFetchErrors(t *testing.T) {
	src := `
sial bad
param n = 4
aoindex I = 1, n
distributed D(I,I)
temp t(I,I)
pardo I
  t(I,I) = D(I,I)
endpardo
endsial
`
	_, err := RunSource(src, Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2)})
	if err == nil || !strings.Contains(err.Error(), "without get") {
		t.Fatalf("expected 'without get' error, got %v", err)
	}
}

func TestTwoPardosNoBarrier(t *testing.T) {
	// Two pardo loops touching disjoint arrays may overlap (paper
	// §IV-B); they must still produce correct results.
	src := `
sial twopardo
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed A(I,J)
distributed B(I,J)
temp t(I,J)
pardo I, J
  t(I,J) = 1.0
  put A(I,J) = t(I,J)
endpardo
pardo I, J
  t(I,J) = 2.0
  put B(I,J) = t(I,J)
endpardo
sip_barrier
endsial
`
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(3), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range res.Arrays["A"] {
		for _, v := range ab.Data {
			if v != 1 {
				t.Fatalf("A element %g, want 1", v)
			}
		}
	}
	for _, ab := range res.Arrays["B"] {
		for _, v := range ab.Data {
			if v != 2 {
				t.Fatalf("B element %g, want 2", v)
			}
		}
	}
}

func TestCCSDStyleIteration(t *testing.T) {
	// A do loop around a pardo (repeated pardo executions, like CCSD
	// iterations) with a distributed array read-modify-written across
	// barriers.
	src := `
sial iterate
param n = 4
param iters = 3
index it = 1, iters
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp t(I,J)
do it
  pardo I, J
    get D(I,J)
    t(I,J) = D(I,J)
    t(I,J) += D(I,J)
    put D(I,J) = t(I,J)
  endpardo
  sip_barrier
enddo it
endsial
`
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), GatherArrays: true,
		Preset: map[string]PresetFunc{"D": presetFrom(func(idx []int) float64 { return 1 })}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each iteration doubles: 1 -> 2 -> 4 -> 8.
	for _, ab := range res.Arrays["D"] {
		for _, v := range ab.Data {
			if v != 8 {
				t.Fatalf("D element %g, want 8", v)
			}
		}
	}
}

func TestBlockSumAndScale(t *testing.T) {
	src := `
sial ops
param n = 4
aoindex I = 1, n
temp a(I,I)
temp b(I,I)
temp c(I,I)
scalar alpha = 0.25
scalar total
do I
  a(I,I) = 2.0
  b(I,I) = alpha * a(I,I)
  c(I,I) = a(I,I) + b(I,I)
  c(I,I) -= b(I,I)
  c(I,I) *= 3.0
  total += dot(c(I,I), a(I,I))
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	// c = ((2 + 0.5) - 0.5) * 3 = 6; dot(c,a) per block = 4 els * 12 = 48; 2 blocks.
	if res.Scalars["total"] != 96 {
		t.Fatalf("total = %g, want 96", res.Scalars["total"])
	}
}

// TestBlockOpsOnTheirOwnDestination: an assignment recycles the temp
// block it replaces and an accumulation reads its source in place, so
// every block op must stay right when source and destination are the
// same block.
func TestBlockOpsOnTheirOwnDestination(t *testing.T) {
	src := `
sial alias
param n = 4
aoindex I = 1, n
aoindex J = 1, n
temp a(I,J)
scalar total
do I
  do J
    a(I,J) = 2.0
    a(I,J) = a(I,J)
    a(I,J) += a(I,J)
    a(I,J) = 0.5 * a(I,J)
    a(I,J) = a(I,J) + a(I,J)
    a(I,J) -= 0.25 * a(I,J)
    total += dot(a(I,J), a(I,J))
  enddo J
enddo I
endsial
`
	res, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	// a = 2, 2, 4, 2, 4, 3; dot per block = 4 els * 9; 4 blocks.
	if res.Scalars["total"] != 144 {
		t.Fatalf("total = %g, want 144", res.Scalars["total"])
	}
}

func TestProfileReport(t *testing.T) {
	res := runPaperProgram(t, Config{Workers: 2})
	p := res.Profile
	if p.Ops[bytecode.OpContract] == nil || p.Ops[bytecode.OpContract].Count == 0 {
		t.Fatal("no contraction stats recorded")
	}
	if p.Flops == 0 {
		t.Fatal("no flops recorded")
	}
	if len(p.Pardos) != 1 || p.Pardos[0].Iterations == 0 {
		t.Fatalf("pardo stats missing: %+v", p.Pardos)
	}
	s := p.String()
	if !strings.Contains(s, "contract") || !strings.Contains(s, "pardo 0") {
		t.Fatalf("profile report incomplete:\n%s", s)
	}
}

func TestStaticArrayReplication(t *testing.T) {
	src := `
sial stat
param n = 4
aoindex I = 1, n
static F(I,I)
distributed D(I,I)
temp t(I,I)
do I
  F(I,I) = 5.0
enddo I
pardo I
  t(I,I) = F(I,I)
  put D(I,I) = t(I,I)
endpardo
sip_barrier
endsial
`
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), GatherArrays: true}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range res.Arrays["D"] {
		for _, v := range ab.Data {
			if v != 5 {
				t.Fatalf("D element %g, want 5", v)
			}
		}
	}
}

func TestDryRunConfigErrors(t *testing.T) {
	if _, err := RunSource(paperProgram, Config{Workers: 0}); err == nil {
		t.Fatal("expected error for zero workers")
	}
	cfg := Config{Workers: 1, Params: map[string]int{"nope": 1}}
	if _, err := RunSource(paperProgram, cfg); err == nil || !strings.Contains(err.Error(), "no parameter") {
		t.Fatalf("expected unknown-parameter error, got %v", err)
	}
}

func TestServedRequiresServers(t *testing.T) {
	src := `
sial nosrv
param n = 4
aoindex I = 1, n
served S(I,I)
temp t(I,I)
pardo I
  t(I,I) = 1.0
  prepare S(I,I) = t(I,I)
endpardo
server_barrier
endsial
`
	_, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2)})
	if err == nil || !strings.Contains(fmt.Sprint(err), "no I/O servers") {
		t.Fatalf("expected no-servers error, got %v", err)
	}
}
