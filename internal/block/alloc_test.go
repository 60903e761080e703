package block

import (
	"runtime"
	"sync"
	"testing"
)

// drain empties every free list: a sync.Pool survives one collection in
// its victim cache and is gone after the second.
func drain() {
	runtime.GC()
	runtime.GC()
}

// The race detector makes sync.Pool drop Puts at random, so a test that
// expects a particular block back skips under it.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
}

func TestGetPutReusesSameShape(t *testing.T) {
	skipUnderRace(t)
	drain()
	var n Tally
	b1 := n.Get(2, 3)
	b1.Fill(7)
	Put(b1)
	b2 := n.Get(2, 3)
	if b2 != b1 {
		t.Fatal("same-shape block not reused")
	}
	if n.Fresh != 1 || n.Reused != 1 {
		t.Fatalf("fresh=%d reused=%d, want 1 and 1", n.Fresh, n.Reused)
	}
	if b2.At(1, 2) != 7 {
		t.Fatal("a reused block is handed out as it was put, not zeroed")
	}
}

func TestGetNoReuseAcrossShapesOfEqualSize(t *testing.T) {
	skipUnderRace(t)
	drain()
	var n Tally
	Put(New(2, 3))   // 6 elements
	b := n.Get(3, 2) // also 6 elements, another shape
	c := n.Get(6)    // and another rank
	d := n.Get(1, 6) // and another shape of rank 2
	if n.Reused != 0 || n.Fresh != 3 {
		t.Fatalf("fresh=%d reused=%d: a block of another shape was reused", n.Fresh, n.Reused)
	}
	for _, x := range []struct {
		b    *Block
		want []int
	}{{b, []int{3, 2}}, {c, []int{6}}, {d, []int{1, 6}}} {
		if !x.b.SameShape(New(x.want...)) {
			t.Errorf("got dims %v, want %v", x.b.Dims(), x.want)
		}
	}
}

func TestGetPutEveryRank(t *testing.T) {
	skipUnderRace(t)
	drain()
	for rank := 1; rank <= maxRank; rank++ {
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 1 + i%3
		}
		var n Tally
		b := n.Get(dims...)
		if b.Rank() != rank {
			t.Fatalf("rank %d: got a rank-%d block", rank, b.Rank())
		}
		Put(b)
		if n.Get(dims...) != b || n.Reused != 1 {
			t.Errorf("rank %d: block not reused", rank)
		}
	}
	// Above maxRank nothing is recycled, and nothing breaks.
	dims := []int{1, 1, 1, 1, 1, 1, 1, 1, 2}
	var n Tally
	b := n.Get(dims...)
	Put(b)
	if n.Get(dims...) == b || n.Reused != 0 {
		t.Error("a block above rank 8 was recycled")
	}
}

// TestIdlePoolEmptiedByGC: the free lists have no cap; an idle one is
// emptied by the garbage collector within two cycles instead.
func TestIdlePoolEmptiedByGC(t *testing.T) {
	skipUnderRace(t)
	drain()
	for i := 0; i < 200; i++ {
		Put(New(5, 7))
	}
	var n Tally
	n.Get(5, 7)
	if n.Reused != 1 {
		t.Fatal("a put block was not handed out again")
	}
	drain()
	for i := 0; i < 10; i++ {
		n.Get(5, 7)
	}
	if n.Reused != 1 {
		t.Fatalf("%d blocks survived two collections of an idle pool", n.Reused-1)
	}
}

// TestGetPutConcurrent runs Get and Put from 8 goroutines over shared
// shapes, each checking that no one else writes a block while it holds
// it; run it with -race.
func TestGetPutConcurrent(t *testing.T) {
	shapes := [][]int{{4, 4}, {2, 8}, {3, 3, 3}, {16}}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				dims := shapes[(g+i)%len(shapes)]
				b := Get(dims...)
				v := float64(g*10000 + i)
				b.Fill(v)
				runtime.Gosched()
				for _, x := range b.Data() {
					if x != v {
						errs <- "a block was written while another goroutine held it"
						return
					}
				}
				if !b.SameShape(New(dims...)) {
					errs <- "Get returned a block of another shape"
					return
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkGetPut is the cost of one recycled block: a Get and its Put.
func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	Put(New(4, 4, 4, 4))
	for i := 0; i < b.N; i++ {
		Put(Get(4, 4, 4, 4))
	}
}
