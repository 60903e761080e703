package bytecode

import (
	"bytes"
	"strings"
	"testing"
)

// regionProgram has one whole-block and one region reference to the
// same distributed array D(I,I): II is a subindex of I.
func regionProgram() *Program {
	p := tinyProgram()
	p.Code = []Instr{
		{Op: OpGet, R: [3]Ref{{Arr: 0, Idx: []int{0, 0}}}},
		{Op: OpGet, R: [3]Ref{{Arr: 0, Idx: []int{1, 0}}}},
		{Op: OpRequest, R: [3]Ref{{Arr: 1, Idx: []int{0, 0}}}},
		{Op: OpHalt},
	}
	p.lowered = false
	return p
}

// TestLowerFixesKindAndRegion: Lower records the array kind and whether
// a subindex is read against a super dimension, and writes nothing a
// serialized program carries: the .siox bytes of a program are the same
// lowered or not, and Read lowers what it decodes.
func TestLowerFixesKindAndRegion(t *testing.T) {
	p := regionProgram()
	before, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve(nil, DefaultSegConfig(4)); err == nil || !strings.Contains(err.Error(), "not lowered") {
		t.Fatalf("Resolve of a program not lowered: %v, want refused", err)
	}
	p.Lower()
	after, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("lowering changed the serialized program")
	}
	read, err := Unmarshal(after)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind   ArrayKind
		region bool
	}{{ArrayDistributed, false}, {ArrayDistributed, true}, {ArrayServed, false}}
	for _, q := range []*Program{p, read} {
		for pc, w := range want {
			if r := q.Code[pc].R[0]; r.Kind() != w.kind || r.Region() != w.region {
				t.Errorf("pc %d: kind %s region %v, want %s %v", pc, r.Kind(), r.Region(), w.kind, w.region)
			}
		}
	}
}

// TestLocalBlockInjectiveAtLimits: the one-word key of a worker's own
// block keeps every (array, ordinal) pair apart up to the limits Resolve
// enforces, including at the edges where the two fields meet.
func TestLocalBlockInjectiveAtLimits(t *testing.T) {
	arrs := []int{0, 1, MaxArrays/2 - 1, MaxArrays / 2, MaxArrays - 2, MaxArrays - 1}
	ords := []int{0, 1, MaxBlocks/2 - 1, MaxBlocks / 2, MaxBlocks - 2, MaxBlocks - 1}
	seen := map[LocalKey][2]int{}
	for _, a := range arrs {
		for _, o := range ords {
			k := LocalBlock(a, o)
			if prev, dup := seen[k]; dup {
				t.Fatalf("LocalBlock(%d, %d) = LocalBlock(%d, %d) = %#x", a, o, prev[0], prev[1], k)
			}
			seen[k] = [2]int{a, o}
		}
	}
	if LocalBlock(MaxArrays-1, MaxBlocks-1) != ^LocalKey(0) {
		t.Errorf("the largest key is %#x, want every bit used", LocalBlock(MaxArrays-1, MaxBlocks-1))
	}
}

// TestResolveRefusesPastPackingLimits: a program with more arrays than
// MaxArrays, or an array with more than MaxBlocks blocks, does not
// resolve; an array with exactly MaxBlocks does.
func TestResolveRefusesPastPackingLimits(t *testing.T) {
	p := tinyProgram()
	// D(I,I) at seg 1 with n = 2^24 has (2^24)^2 = 2^48 = MaxBlocks blocks.
	side := 1 << 24
	if side*side != MaxBlocks {
		t.Fatalf("test assumes MaxBlocks = 2^48, is %d", MaxBlocks)
	}
	if _, err := p.Resolve(map[string]int{"n": side}, SegConfig{Default: 1, SubSegments: 1}); err != nil {
		t.Fatalf("%d blocks: %v, want resolved", MaxBlocks, err)
	}
	_, err := p.Resolve(map[string]int{"n": side + 1}, SegConfig{Default: 1, SubSegments: 1})
	if err == nil || !strings.Contains(err.Error(), "array D has more than") {
		t.Fatalf("%d blocks: %v, want refused", (side+1)*(side+1), err)
	}
	// So is one whose block count, 2^64, wraps a 64-bit int to 0.
	_, err = p.Resolve(map[string]int{"n": 1 << 32}, SegConfig{Default: 1, SubSegments: 1})
	if err == nil || !strings.Contains(err.Error(), "array D has more than") {
		t.Fatalf("2^64 blocks: %v, want refused", err)
	}

	q := tinyProgram()
	for len(q.Arrays) <= MaxArrays {
		q.Arrays = append(q.Arrays, ArrayInfo{Name: "x", Kind: ArrayTemp, Dims: []int{2}})
	}
	if _, err := q.Resolve(nil, DefaultSegConfig(4)); err == nil || !strings.Contains(err.Error(), "arrays, at most") {
		t.Fatalf("%d arrays: %v, want refused", len(q.Arrays), err)
	}
	q.Arrays = q.Arrays[:MaxArrays]
	if _, err := q.Resolve(nil, DefaultSegConfig(4)); err != nil {
		t.Fatalf("%d arrays: %v, want resolved", MaxArrays, err)
	}
}
