package sip

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/segment"
)

// segmentLocate is the reference a lowered locate must agree with: the
// block a reference names, derived per dimension from the index tables
// and the segment package (CheckCoord, Ordinal, BlockDims and the
// subindex's segment bounds), with no lowered fact used.
func segmentLocate(l *bytecode.Layout, ref bytecode.Ref, val []int, bound []bool) (loc refLoc, err error) {
	p := l.Prog
	arr := p.Arrays[ref.Arr]
	c := make(segment.Coord, len(ref.Idx))
	for i, id := range ref.Idx {
		parent := p.Indices[id].Parent
		sub := parent >= 0 && p.Indices[arr.Dims[i]].Parent < 0
		if !bound[id] || sub && !bound[parent] {
			return loc, fmt.Errorf("index %s has no value", p.Indices[id].Name)
		}
		c[i] = val[id]
		if sub {
			loc.region = true
			c[i] = val[parent]
			blockLo, _ := l.Indices[parent].SegBounds(c[i])
			subLo, subHi := l.Indices[id].SegBounds(val[id])
			loc.rlo[i], loc.rext[i] = subLo-blockLo, subHi-subLo+1
		}
	}
	shape := l.Shapes[ref.Arr]
	if err := shape.CheckCoord(c); err != nil {
		return loc, err
	}
	loc.key = blockKey{job: 3, arr: ref.Arr, ord: shape.Ordinal(c)}
	loc.rank = len(c)
	copy(loc.coord[:], c)
	copy(loc.dims[:], shape.BlockDims(c))
	for i := range c {
		if loc.rext[i] == 0 {
			loc.rext[i] = loc.dims[i]
		}
	}
	return loc, nil
}

// TestLoweredLocateMatchesSegment: for every block reference of every
// example program at four segment sizes, locate gives the key, dims,
// region and error the segment reference gives: at index values inside
// the range, with a coordinate below or above it, and with an index (or
// a subindex's parent) unbound.  The element bounds ElemBounds lends
// are BlockBounds'.
func TestLoweredLocateMatchesSegment(t *testing.T) {
	files, err := filepath.Glob("../../examples/sial/*.sial")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	regions := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		// Seg 3 leaves short trailing segments; a subindex splits a
		// segment in two where it can, else into single elements.
		for _, seg := range []int{1, 2, 3, 4} {
			nsub := 2
			if seg%2 != 0 {
				nsub = seg
			}
			layout, err := prog.Resolve(nil, bytecode.SegConfig{Default: seg, SubSegments: nsub})
			if err != nil {
				t.Fatalf("%s at seg %d: %v", file, seg, err)
			}
			t.Run(fmt.Sprintf("%s/seg%d", filepath.Base(file), seg), func(t *testing.T) {
				regions += checkLocateAgainstSegment(t, layout)
			})
		}
	}
	if regions == 0 {
		t.Error("no reference names a region: the subindex path went unchecked")
	}
}

// checkLocateAgainstSegment checks every reference of layout's program
// and returns how many of them name a region.
func checkLocateAgainstSegment(t *testing.T, layout *bytecode.Layout) (regions int) {
	prog := layout.Prog
	c := &interp{rt: &runtime{prog: prog, layout: layout, job: 3},
		idxVal: make([]int, len(prog.Indices)), idxBound: make([]bool, len(prog.Indices))}
	rng := rand.New(rand.NewSource(1))
	inRange := func() {
		for id := range prog.Indices {
			lo, hi := layout.IndexRange(id)
			c.idxVal[id], c.idxBound[id] = lo+rng.Intn(hi-lo+1), true
		}
	}
	var loc refLoc
	refs, cases := 0, 0
	check := func(pc int, ref bytecode.Ref, what string) {
		cases++
		want, wantErr := segmentLocate(layout, ref, c.idxVal, c.idxBound)
		// A stale region in the location must not survive the locate.
		loc.region, loc.rext = true, [maxRank]int{7, 7, 7, 7, 7, 7, 7, 7}
		err := c.locate(ref, &loc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("pc %d %s (%s): error %v, want %v", pc, prog.Arrays[ref.Arr].Name, what, err, wantErr)
		}
		if err != nil {
			return
		}
		// Only the first rank entries of a location mean anything.
		r := want.rank
		if loc.key != want.key || loc.rank != r || loc.region != want.region ||
			!slices.Equal(loc.coord[:r], want.coord[:r]) || !slices.Equal(loc.dims[:r], want.dims[:r]) {
			t.Fatalf("pc %d %s (%s): located %v at %v dims %v region %v, want %v at %v dims %v region %v",
				pc, prog.Arrays[ref.Arr].Name, what, loc.key, loc.coord[:loc.rank], loc.dims[:loc.rank], loc.region,
				want.key, want.coord[:r], want.dims[:r], want.region)
		}
		if want.region && (!slices.Equal(loc.rlo[:r], want.rlo[:r]) || !slices.Equal(loc.rext[:r], want.rext[:r])) {
			t.Fatalf("pc %d %s (%s): region %v+%v, want %v+%v", pc, prog.Arrays[ref.Arr].Name, what,
				loc.rlo[:r], loc.rext[:r], want.rlo[:r], want.rext[:r])
		}
		shape := layout.Shapes[ref.Arr]
		var lo, hi [maxRank]int
		shape.ElemBounds(loc.coord[:loc.rank], loc.blockDims(), lo[:loc.rank], hi[:loc.rank])
		wantLo, wantHi := shape.BlockBounds(loc.coord[:loc.rank])
		if !slices.Equal(lo[:loc.rank], wantLo) || !slices.Equal(hi[:loc.rank], wantHi) {
			t.Fatalf("pc %d %s: element bounds %v..%v, want %v..%v", pc, prog.Arrays[ref.Arr].Name,
				lo[:loc.rank], hi[:loc.rank], wantLo, wantHi)
		}
	}
	for pc := range prog.Code {
		for _, ref := range prog.Code[pc].R {
			if !ref.Valid() || len(ref.Idx) != len(prog.Arrays[ref.Arr].Dims) {
				continue
			}
			refs++
			if ref.Region() {
				regions++
			}
			if ref.Kind() != prog.Arrays[ref.Arr].Kind {
				t.Fatalf("pc %d: lowered kind %s, array %s is %s", pc, ref.Kind(), prog.Arrays[ref.Arr].Name, prog.Arrays[ref.Arr].Kind)
			}
			for range 20 {
				inRange()
				check(pc, ref, "in range")
			}
			for i, id := range ref.Idx {
				parent := prog.Indices[id].Parent
				sub := parent >= 0 && prog.Indices[prog.Arrays[ref.Arr].Dims[i]].Parent < 0
				if !sub {
					// Segment bounds of a subindex are only asked of
					// values its loops can take; a coordinate is checked.
					_, hi := layout.IndexRange(id)
					for _, v := range []int{0, hi + 1} {
						inRange()
						c.idxVal[id] = v
						check(pc, ref, fmt.Sprintf("%s = %d", prog.Indices[id].Name, v))
					}
				}
				inRange()
				c.idxBound[id] = false
				check(pc, ref, prog.Indices[id].Name+" unbound")
				if sub {
					inRange()
					c.idxBound[parent] = false
					check(pc, ref, prog.Indices[parent].Name+" unbound")
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("no block references: the check is vacuous")
	}
	t.Logf("%d references (%d regions), %d cases", refs, regions, cases)
	return regions
}

// tinyJob is a pool job small enough that its cost is the per-job set-up:
// a few temp blocks, an execute and a collective.
const tinyJob = `
sial tiny_job
param n = 4
aoindex I = 1, n
aoindex J = 1, n
temp v(I,J)
temp t(I,J)
scalar e
pardo I, J
  compute_integrals v(I,J)
  t(I,J) = 2.0 * v(I,J)
  execute frobenius t(I,J), e
endpardo I, J
collective e
endsial
`

// TestPoolJobAllocs: what the interpreter derives from a program is
// derived with the program, and its scratch and blocks are recycled, so
// neither lowering nor the job's temps and integral blocks add to what a
// pool job allocates.  The bound is what this job allocates once its
// blocks come from the process-wide allocator (164; 191 when each worker
// had a pool of its own), plus the one allocation of slack the bound had
// before.
func TestPoolJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops what sync.Pool recycles")
	}
	prog, err := compiler.CompileSource(tinyJob)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(PoolConfig{Workers: 2, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cfg := Config{Seg: bytecode.DefaultSegConfig(2), Output: &bytes.Buffer{}}
	const bound = 165
	n := testing.AllocsPerRun(50, func() {
		if _, err := p.RunJob(prog, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a pool job allocates %.1f times", n)
	if n > bound {
		t.Errorf("a pool job allocates %.1f times, want <= %d", n, bound)
	}
}

// TestExecCtxBlock: ExecCtx.Block gives each argument's coordinate and
// element range, and nothing for an argument the call was not given,
// even after an earlier execute that had it.
func TestExecCtxBlock(t *testing.T) {
	src := `
sial probe
param n = 5
aoindex I = 1, n
aoindex J = 1, n
temp t(I,J)
temp u(J)
do I
  do J
    t(I,J) = 1.0
    u(J) = 1.0
    execute probe t(I,J), u(J)
    execute probe u(J)
  enddo J
enddo I
endsial
`
	calls := 0
	probe := func(ctx *ExecCtx, blocks []*block.Block, _ []*float64) error {
		calls++
		for i := range blocks {
			coord, lo, hi := ctx.Block(i)
			for d, n := range blocks[i].Dims() {
				if c := coord[d]; lo[d] != 1+2*(c-1) || hi[d]-lo[d]+1 != n {
					return fmt.Errorf("block %d dim %d: coord %d, range [%d,%d], %d elements", i, d, c, lo[d], hi[d], n)
				}
			}
		}
		for i := len(blocks); i < 3; i++ {
			if coord, lo, hi := ctx.Block(i); len(coord)+len(lo)+len(hi) != 0 {
				return fmt.Errorf("%d blocks given, Block(%d) = %v %v %v", len(blocks), i, coord, lo, hi)
			}
		}
		return nil
	}
	_, err := RunSource(src, Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2),
		Super: map[string]SuperFunc{"probe": probe}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*3*3 {
		t.Fatalf("probe ran %d times, want %d", calls, 2*3*3)
	}
}
