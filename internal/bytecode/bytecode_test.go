package bytecode

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segment"
)

// tinyProgram builds a small program by hand for table/serialization
// tests, lowered as the compiler would leave it.
func tinyProgram() *Program {
	p := &Program{
		Name:   "tiny",
		Params: []Param{{Name: "n", Default: 8, HasDefault: true}},
		Indices: []IndexInfo{
			{Name: "I", Kind: segment.AO, Lo: LitVal(1), Hi: ParamVal(0), Parent: -1},
			{Name: "II", Kind: segment.AO, Lo: LitVal(1), Hi: ParamVal(0), Parent: 0},
			{Name: "c", Kind: segment.Simple, Lo: LitVal(1), Hi: LitVal(3), Parent: -1},
		},
		Arrays: []ArrayInfo{
			{Name: "D", Kind: ArrayDistributed, Dims: []int{0, 0}},
			{Name: "S", Kind: ArrayServed, Dims: []int{0, 0}},
		},
		Scalars: []ScalarInfo{{Name: "e", Init: 1.5}},
		Strings: []string{"hello"},
		Pardos: []PardoInfo{{
			Indices: []int{0},
			Where: []Instr{
				{Op: OpPushIndex, A: 0},
				{Op: OpPushParam, A: 0},
				{Op: OpCmp, A: CmpLE},
			},
		}},
		Procs: []ProcInfo{{Name: "p", Entry: 3}},
		Code: []Instr{
			{Op: OpPardoStart, A: 0, C: 2},
			{Op: OpPardoEnd, A: 0, B: 0},
			{Op: OpHalt},
			{Op: OpReturn},
		},
	}
	p.Lower()
	return p
}

func TestResolve(t *testing.T) {
	p := tinyProgram()
	l, err := p.Resolve(nil, DefaultSegConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if l.ParamVal(0) != 8 {
		t.Fatalf("param = %d, want default 8", l.ParamVal(0))
	}
	if l.Indices[0].NumSegments() != 2 {
		t.Fatalf("I segments = %d, want 2", l.Indices[0].NumSegments())
	}
	// Subindex II: 2 subsegments per segment by default -> seg 2.
	if l.Indices[1].Seg != 2 {
		t.Fatalf("II seg = %d, want 2", l.Indices[1].Seg)
	}
	// Simple index: seg forced to 1.
	if l.Indices[2].Seg != 1 {
		t.Fatalf("c seg = %d, want 1", l.Indices[2].Seg)
	}
	lo, hi := l.IndexRange(0)
	if lo != 1 || hi != 2 {
		t.Fatalf("I range = [%d,%d], want [1,2] (segments)", lo, hi)
	}
	lo, hi = l.IndexRange(2)
	if lo != 1 || hi != 3 {
		t.Fatalf("c range = [%d,%d], want [1,3] (elements)", lo, hi)
	}
	if l.Shapes[0].NumBlocks() != 4 {
		t.Fatalf("D blocks = %d, want 4", l.Shapes[0].NumBlocks())
	}
}

func TestResolveOverrideAndErrors(t *testing.T) {
	p := tinyProgram()
	l, err := p.Resolve(map[string]int{"n": 16}, DefaultSegConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if l.Indices[0].NumSegments() != 4 {
		t.Fatalf("I segments = %d, want 4", l.Indices[0].NumSegments())
	}
	if _, err := p.Resolve(map[string]int{"bogus": 1}, DefaultSegConfig(4)); err == nil {
		t.Fatal("unknown parameter should error")
	}
	if _, err := p.Resolve(nil, SegConfig{Default: 0}); err == nil {
		t.Fatal("zero segment size should error")
	}
	// Parameter without default and without value.
	p2 := tinyProgram()
	p2.Params[0].HasDefault = false
	if _, err := p2.Resolve(nil, DefaultSegConfig(4)); err == nil {
		t.Fatal("missing parameter value should error")
	}
}

func TestResolvePerKindSegments(t *testing.T) {
	p := tinyProgram()
	cfg := DefaultSegConfig(4)
	cfg.PerKind = map[segment.Kind]int{segment.AO: 8}
	l, err := p.Resolve(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Indices[0].Seg != 8 {
		t.Fatalf("AO seg = %d, want 8", l.Indices[0].Seg)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	p := tinyProgram()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.Code) != len(p.Code) || len(q.Indices) != 3 {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	if !reflect.DeepEqual(q.Pardos[0].Where, p.Pardos[0].Where) {
		t.Fatalf("where code %v, want %v after round trip", q.Pardos[0].Where, p.Pardos[0].Where)
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Fatal("bad magic should error")
	}
	// A stream of the previous format is refused by its header, whatever
	// gob would make of its body.
	old := append([]byte("SIABC1\n"), data[len("SIABC2\n"):]...)
	if _, err := Unmarshal(old); err == nil || !strings.Contains(err.Error(), `"SIABC1"`) {
		t.Fatalf("SIABC1 stream: err %v, want one naming the version", err)
	}
}

func TestDisassemble(t *testing.T) {
	p := tinyProgram()
	s := p.Disassemble()
	for _, want := range []string{"program tiny", "param 0: n = 8", "subindex II of I",
		"distributed D(I,I)", "scalar 0: e = 1.5", "pardo 0", "proc p @ 3",
		"pardo_start", "halt"} {
		if !strings.Contains(s, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func TestLookups(t *testing.T) {
	p := tinyProgram()
	if p.ParamID("n") != 0 || p.ParamID("x") != -1 {
		t.Fatal("ParamID wrong")
	}
	if p.ArrayID("S") != 1 || p.ArrayID("x") != -1 {
		t.Fatal("ArrayID wrong")
	}
	if p.ScalarID("e") != 0 || p.ScalarID("x") != -1 {
		t.Fatal("ScalarID wrong")
	}
	if p.IndexID("II") != 1 || p.IndexID("x") != -1 {
		t.Fatal("IndexID wrong")
	}
}

func TestEvalCmpAndPasses(t *testing.T) {
	cases := []struct {
		code int
		l, r float64
		want bool
	}{
		{CmpLT, 1, 2, true}, {CmpLT, 2, 2, false},
		{CmpLE, 2, 2, true}, {CmpGT, 3, 2, true},
		{CmpGE, 2, 3, false}, {CmpEQ, 2, 2, true}, {CmpNE, 2, 2, false},
	}
	for _, tc := range cases {
		if got := EvalCmp(tc.code, tc.l, tc.r); got != tc.want {
			t.Errorf("EvalCmp(%d, %g, %g) = %v", tc.code, tc.l, tc.r, got)
		}
	}
	// where (I + 2) * 3 == 18 passes only at I = 4; index 7 is the
	// pardo's second index, so I is read from vals[1].
	pd := PardoInfo{Indices: []int{3, 7}, Where: []Instr{
		{Op: OpPushIndex, A: 7}, {Op: OpPushLit, F: 2}, {Op: OpAdd},
		{Op: OpPushLit, F: 3}, {Op: OpMul},
		{Op: OpPushLit, F: 18}, {Op: OpCmp, A: CmpEQ},
	}}
	stack := make([]float64, 0, len(pd.Where))
	for i := 1; i <= 6; i++ {
		if got := pd.Passes([]int{9, i}, nil, stack); got != (i == 4) {
			t.Errorf("I = %d: passes = %v", i, got)
		}
	}
}

func TestBlockBytes(t *testing.T) {
	p := tinyProgram()
	l, err := p.Resolve(nil, DefaultSegConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.BlockBytes(0, segment.Coord{1, 1}); got != 4*4*8 {
		t.Fatalf("BlockBytes = %d, want 128", got)
	}
}

// TestSuperClassifiesEveryOp pins Op.Super for every opcode: the profile
// times super instructions and only counts the rest, so an opcode added
// without a row here fails instead of being timed by accident.
func TestSuperClassifiesEveryOp(t *testing.T) {
	want := map[string]bool{
		"nop": false, "push_lit": false, "push_scalar": false,
		"push_index": false, "push_param": false, "add": false, "sub": false,
		"mul": false, "div": false, "cmp": false, "store_scalar": false,
		"jump": false, "jump_if_false": false,

		"dot": true, "do_start": true, "do_end": true, "do_in_start": true,
		"do_in_end": true, "pardo_start": true, "pardo_end": true,
		"call": true, "return": true, "halt": true, "block_fill": true,
		"block_copy": true, "block_scale": true, "block_sum": true,
		"contract": true, "get": true, "put": true, "request": true,
		"prepare": true, "compute_integrals": true, "execute": true,
		"barrier": true, "collective": true, "print": true,
		"blocks_to_list": true, "list_to_blocks": true,
	}
	named := 0
	for o := Op(0); o < 255; o++ {
		name, ok := opNames[o]
		if !ok {
			continue
		}
		named++
		super, listed := want[name]
		if !listed {
			t.Errorf("opcode %s is not classified in this test", name)
			continue
		}
		if o.Super() != super {
			t.Errorf("%s.Super() = %v, want %v", name, o.Super(), super)
		}
	}
	if named != len(want) {
		t.Errorf("%d named opcodes, %d classified", named, len(want))
	}
}
