package segment

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ix(name string, kind Kind, lo, hi, seg int) Index {
	return Index{Name: name, Kind: kind, Lo: lo, Hi: hi, Seg: seg}
}

func TestIndexSegmentation(t *testing.T) {
	// Paper §IV-E: seg 16 over 1..64 gives segments [1:16], [17:32], ...
	i := ix("i", AO, 1, 64, 16)
	if got := i.NumSegments(); got != 4 {
		t.Fatalf("NumSegments = %d, want 4", got)
	}
	lo, hi := i.SegBounds(2)
	if lo != 17 || hi != 32 {
		t.Fatalf("SegBounds(2) = [%d,%d], want [17,32]", lo, hi)
	}
	if n := i.SegLen(4); n != 16 {
		t.Fatalf("SegLen(4) = %d, want 16", n)
	}
}

func TestIndexRaggedTail(t *testing.T) {
	i := ix("i", AO, 1, 10, 4) // segments: [1,4] [5,8] [9,10]
	if got := i.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3", got)
	}
	if n := i.SegLen(3); n != 2 {
		t.Fatalf("SegLen(3) = %d, want 2", n)
	}
	lo, hi := i.SegBounds(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("SegBounds(3) = [%d,%d], want [9,10]", lo, hi)
	}
}

func TestIndexNonUnitLo(t *testing.T) {
	i := ix("v", MO, 5, 14, 3) // elements 5..14: [5,7] [8,10] [11,13] [14,14]
	if got := i.NumSegments(); got != 4 {
		t.Fatalf("NumSegments = %d, want 4", got)
	}
	lo, hi := i.SegBounds(4)
	if lo != 14 || hi != 14 {
		t.Fatalf("SegBounds(4) = [%d,%d], want [14,14]", lo, hi)
	}
}

func TestIndexSegBoundsPanics(t *testing.T) {
	i := ix("i", AO, 1, 8, 4)
	for _, s := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SegBounds(%d) should panic", s)
				}
			}()
			i.SegBounds(s)
		}()
	}
}

func TestIndexValidate(t *testing.T) {
	cases := []struct {
		ix   Index
		ok   bool
		name string
	}{
		{ix("i", AO, 1, 8, 4), true, "valid"},
		{ix("", AO, 1, 8, 4), false, "empty name"},
		{ix("i", AO, 8, 1, 4), false, "empty range"},
		{ix("i", AO, 1, 8, 0), false, "zero seg"},
		{Index{Name: "ii", Kind: Sub, Lo: 1, Hi: 8, Seg: 2}, false, "sub without parent"},
		{Index{Name: "ii", Kind: Sub, Lo: 1, Hi: 8, Seg: 2, Parent: "i"}, true, "sub with parent"},
	}
	for _, tc := range cases {
		err := tc.ix.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSubIndex(t *testing.T) {
	// Paper example: i over 1..64 with seg 16; 4 subsegments per segment.
	i := ix("i", MOA, 1, 64, 16)
	ii, err := i.SubIndex("ii", 4)
	if err != nil {
		t.Fatal(err)
	}
	if ii.Seg != 4 || ii.Kind != Sub || ii.Parent != "i" {
		t.Fatalf("subindex = %+v", ii)
	}
	if got := ii.NumSegments(); got != 16 {
		t.Fatalf("subindex NumSegments = %d, want 16", got)
	}
	// Subsegments inside parent segment 2 ([17,32]) are 5..8.
	lo, hi := i.SubSegments(ii, 2)
	if lo != 5 || hi != 8 {
		t.Fatalf("SubSegments(2) = [%d,%d], want [5,8]", lo, hi)
	}
}

func TestSubIndexIndivisible(t *testing.T) {
	i := ix("i", MOA, 1, 64, 16)
	if _, err := i.SubIndex("ii", 5); err == nil {
		t.Fatal("expected error for indivisible subsegment count")
	}
	if _, err := i.SubIndex("ii", 0); err == nil {
		t.Fatal("expected error for nsub=0")
	}
}

func TestShapeBlockCounts(t *testing.T) {
	a := ix("a", AO, 1, 20, 5) // 4 segments
	b := ix("b", MO, 1, 9, 3)  // 3 segments
	s := MustShape(a, b)
	if s.NumBlocks() != 12 {
		t.Fatalf("NumBlocks = %d, want 12", s.NumBlocks())
	}
	if s.NumElements() != 180 {
		t.Fatalf("NumElements = %d, want 180", s.NumElements())
	}
	if s.MaxBlockElems() != 15 {
		t.Fatalf("MaxBlockElems = %d, want 15", s.MaxBlockElems())
	}
}

func TestShapeOrdinalRoundTrip(t *testing.T) {
	s := MustShape(
		ix("a", AO, 1, 20, 5),
		ix("b", MO, 1, 9, 3),
		ix("c", MOA, 1, 8, 4),
	)
	seen := map[int]bool{}
	s.EachCoord(func(c Coord) {
		ord := s.Ordinal(c)
		if seen[ord] {
			t.Fatalf("duplicate ordinal %d for %v", ord, c)
		}
		seen[ord] = true
		back := s.CoordOf(ord)
		if !back.Equal(c) {
			t.Fatalf("CoordOf(Ordinal(%v)) = %v", c, back)
		}
	})
	if len(seen) != s.NumBlocks() {
		t.Fatalf("visited %d blocks, want %d", len(seen), s.NumBlocks())
	}
}

func TestShapeOrdinalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		dims := make([]Index, rank)
		for d := range dims {
			n := 1 + rng.Intn(30)
			seg := 1 + rng.Intn(n)
			dims[d] = ix("d", AO, 1, n, seg)
		}
		s := MustShape(dims...)
		ord := rng.Intn(s.NumBlocks())
		return s.Ordinal(s.CoordOf(ord)) == ord
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeBlockDims(t *testing.T) {
	s := MustShape(
		ix("a", AO, 1, 10, 4), // segs of len 4,4,2
		ix("b", MO, 1, 6, 6),  // one seg of len 6
	)
	dims := s.BlockDims(Coord{3, 1})
	if dims[0] != 2 || dims[1] != 6 {
		t.Fatalf("BlockDims = %v, want [2 6]", dims)
	}
	if n := s.BlockElems(Coord{3, 1}); n != 12 {
		t.Fatalf("BlockElems = %d, want 12", n)
	}
	lo, hi := s.BlockBounds(Coord{3, 1})
	if lo[0] != 9 || hi[0] != 10 || lo[1] != 1 || hi[1] != 6 {
		t.Fatalf("BlockBounds = %v %v", lo, hi)
	}
}

// TestShapeLocate: the non-allocating path agrees with Ordinal and
// BlockDims on every block of a shape with ragged tails, rejects what
// CheckCoord rejects, and allocates nothing.
func TestShapeLocate(t *testing.T) {
	s := MustShape(
		ix("a", AO, 1, 10, 4), // segs of len 4,4,2
		ix("b", MO, 3, 9, 3),  // 3,3,1 from a non-unit Lo
		ix("c", Simple, 1, 2, 1),
	)
	dims := make([]int, s.Rank())
	s.EachCoord(func(c Coord) {
		ord, err := s.Locate(c, dims)
		if err != nil || ord != s.Ordinal(c) || !Coord(dims).Equal(s.BlockDims(c)) {
			t.Fatalf("Locate(%v) = %d %v %v, want %d %v", c, ord, dims, err, s.Ordinal(c), s.BlockDims(c))
		}
	})
	for _, bad := range []Coord{{1, 1}, {0, 1, 1}, {4, 1, 1}, {1, 4, 1}, {1, 1, 3}} {
		if _, err := s.Locate(bad, dims); err == nil {
			t.Errorf("Locate(%v) accepted a coordinate CheckCoord rejects (%v)", bad, s.CheckCoord(bad))
		}
	}
	var c [3]int // on the stack: Locate must not make it escape
	if n := testing.AllocsPerRun(100, func() {
		c = [3]int{3, 2, 1}
		if _, err := s.Locate(c[:], dims); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Locate allocates %v times per call, want 0", n)
	}
}

// TestShapeOrdinalDims: the dims of a block by its ordinal agree with
// BlockDims(CoordOf(ord)) on every block of a ragged shape, and cost no
// allocation.
func TestShapeOrdinalDims(t *testing.T) {
	s := MustShape(
		ix("a", AO, 1, 10, 4), // segs of len 4,4,2
		ix("b", MO, 3, 9, 3),  // 3,3,1 from a non-unit Lo
		ix("c", Simple, 1, 2, 1),
	)
	var dims [3]int
	for ord := range s.NumBlocks() {
		s.OrdinalDims(ord, dims[:])
		if want := s.BlockDims(s.CoordOf(ord)); !Coord(dims[:]).Equal(want) {
			t.Fatalf("OrdinalDims(%d) = %v, want %v", ord, dims, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.OrdinalDims(s.NumBlocks()-1, dims[:]) }); n != 0 {
		t.Errorf("OrdinalDims allocates %v times per call, want 0", n)
	}
}

func TestShapeCheckCoord(t *testing.T) {
	s := MustShape(ix("a", AO, 1, 10, 4))
	if err := s.CheckCoord(Coord{1, 2}); err == nil {
		t.Fatal("rank mismatch should fail")
	}
	if err := s.CheckCoord(Coord{4}); err == nil {
		t.Fatal("out-of-range segment should fail")
	}
	if err := s.CheckCoord(Coord{3}); err != nil {
		t.Fatalf("valid coord rejected: %v", err)
	}
}

func TestShapeElementsSumOverBlocks(t *testing.T) {
	// Invariant: sum of BlockElems over all blocks == NumElements.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(3)
		dims := make([]Index, rank)
		for d := range dims {
			n := 1 + rng.Intn(25)
			dims[d] = ix("d", AO, 1+rng.Intn(5), 0, 1+rng.Intn(8))
			dims[d].Hi = dims[d].Lo + n - 1
		}
		s := MustShape(dims...)
		total := 0
		s.EachCoord(func(c Coord) { total += s.BlockElems(c) })
		return total == s.NumElements()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if AO.String() != "aoindex" || Simple.String() != "index" || Sub.String() != "subindex" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
	if Simple.Segmented() || !AO.Segmented() {
		t.Fatal("Segmented wrong")
	}
}

func TestCoordHelpers(t *testing.T) {
	c := Coord{1, 2, 3}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone aliases")
	}
	if c.Equal(d) || !c.Equal(Coord{1, 2, 3}) || c.Equal(Coord{1, 2}) {
		t.Fatal("Equal wrong")
	}
	if c.String() != "(1,2,3)" {
		t.Fatalf("String = %q", c.String())
	}
}
