package bytecode

import (
	"strings"
	"testing"
)

func TestValidateTinyProgram(t *testing.T) {
	if err := tinyProgram().Validate(); err != nil {
		t.Fatalf("tiny program should validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"no name", func(p *Program) { p.Name = "" }, "no name"},
		{"param no name", func(p *Program) { p.Params[0].Name = "" }, "param 0"},
		{"index no name", func(p *Program) { p.Indices[0].Name = "" }, "index 0"},
		{"bad param ref", func(p *Program) { p.Indices[0].Hi = ParamVal(9) }, "parameter 9"},
		{"sub before super", func(p *Program) { p.Indices[1].Parent = 2 }, "before its super"},
		{"array bad kind", func(p *Program) { p.Arrays[0].Kind = 256 }, "unknown kind"},
		{"array no dims", func(p *Program) { p.Arrays[0].Dims = nil }, "no dimensions"},
		{"array bad index", func(p *Program) { p.Arrays[0].Dims = []int{7} }, "out of range"},
		{"array simple index", func(p *Program) { p.Arrays[0].Dims = []int{2} }, "simple index"},
		{"pardo no indices", func(p *Program) { p.Pardos[0].Indices = nil }, "no indices"},
		{"pardo bad index", func(p *Program) { p.Pardos[0].Indices = []int{9} }, "out of range"},
		{"where underflow", func(p *Program) {
			p.Pardos[0].Where = []Instr{{Op: OpPushIndex, A: 0}, {Op: OpAdd}}
		}, "add underflows"},
		{"where cmp underflow", func(p *Program) { p.Pardos[0].Where[1] = Instr{Op: OpNop} }, "nop not allowed"},
		{"where leftover value", func(p *Program) {
			p.Pardos[0].Where = append(p.Pardos[0].Where, Instr{Op: OpPushLit, F: 1})
		}, "leaves 1 value(s)"},
		{"where leftover under cmp", func(p *Program) {
			p.Pardos[0].Where = append([]Instr{{Op: OpPushLit, F: 1}}, p.Pardos[0].Where...)
		}, "cmp leaves 1 value(s)"},
		{"where push_scalar", func(p *Program) { p.Pardos[0].Where[1] = Instr{Op: OpPushScalar, A: 0} }, "push_scalar not allowed"},
		{"where non-pardo index", func(p *Program) { p.Pardos[0].Where[0].A = 2 }, "index c is not an index of this pardo"},
		{"where index out of range", func(p *Program) { p.Pardos[0].Where[0].A = 99 }, "index 99 out of range"},
		{"where bad param", func(p *Program) { p.Pardos[0].Where[1].A = 9 }, "param 9 out of range"},
		{"where bad cmp", func(p *Program) { p.Pardos[0].Where[2].A = 42 }, "bad comparison"},
		{"where jump", func(p *Program) { p.Pardos[0].Where[2] = Instr{Op: OpJump, A: 0} }, "jump not allowed"},
		{"empty code", func(p *Program) { p.Code = nil }, "empty code"},
		{"proc bad entry", func(p *Program) { p.Procs[0].Entry = 99 }, "out of range"},
		{"bad jump", func(p *Program) {
			p.Code[0] = Instr{Op: OpJump, A: 1000}
		}, "jump target"},
		{"bad pardo id", func(p *Program) { p.Code[0].A = 5 }, "pardo 5"},
		{"bad ref arity", func(p *Program) {
			p.Code[0] = Instr{Op: OpGet, R: [3]Ref{{Arr: 0, Idx: []int{0}}}}
		}, "indices"},
		{"bad ref array", func(p *Program) {
			p.Code[0] = Instr{Op: OpGet, R: [3]Ref{{Arr: 5, Idx: []int{0, 0}}}}
		}, "array 5"},
		{"bad scalar", func(p *Program) {
			p.Code[0] = Instr{Op: OpPushScalar, A: 4}
		}, "scalar 4"},
		{"bad assign mode", func(p *Program) {
			p.Code[0] = Instr{Op: OpStoreScalar, A: 0, B: 9}
		}, "assign mode"},
		{"bad execute count", func(p *Program) {
			p.Code[0] = Instr{Op: OpExecute, A: 0, B: 7}
		}, "block count"},
		{"unknown opcode", func(p *Program) {
			p.Code[0] = Instr{Op: Op(250)}
		}, "unknown opcode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProgram()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	for _, mutate := range []func(*Program){
		func(p *Program) { p.Code[0] = Instr{Op: OpJump, A: 1 << 20} },
		// Where code reading an index the pardo does not bind: the master
		// has no value for it.
		func(p *Program) { p.Pardos[0].Where[0].A = 1 },
	} {
		p := tinyProgram()
		mutate(p)
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "invalid program") {
			t.Fatalf("corrupt program accepted: %v", err)
		}
	}
}

// An operand slot an opcode does not use is neither checked nor lowered,
// so whatever a byte-code file puts there cannot crash the loader.
func TestReadIgnoresUnusedOperandSlots(t *testing.T) {
	good := Ref{Arr: 0, Idx: []int{0, 0}}
	junk := []Ref{
		{Arr: -1, Idx: []int{0, 0}},
		{Arr: 0, Idx: []int{0, 99}},
		{Arr: 0, Idx: []int{-3}},
		{Arr: 1, Idx: []int{0, 0, 0, 0}},
	}
	for _, bad := range junk {
		for _, in := range []Instr{
			{Op: OpGet, R: [3]Ref{good, bad, bad}},
			{Op: OpPut, R: [3]Ref{good, good, bad}},
			{Op: OpDot, R: [3]Ref{bad, good, good}},
			{Op: OpExecute, A: 0, B: 1, R: [3]Ref{good, bad, bad}},
			{Op: OpExecute, A: 0, B: 0, R: [3]Ref{bad, bad, bad}},
			{Op: OpHalt, R: [3]Ref{bad, bad, bad}},
		} {
			p := tinyProgram()
			p.Code[2] = in
			data, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			q, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("%s with unused slots %+v: %v", in.Op, bad, err)
			}
			for r := range q.Code[2].R {
				if in.refSlots()&(1<<r) != 0 && q.Code[2].R[r].Kind() != ArrayDistributed {
					t.Fatalf("%s slot %d not lowered", in.Op, r)
				}
			}
		}
	}
}
