package block

import (
	"slices"
	"sync"
	"sync/atomic"
)

// class is the free list of one block shape.
type class struct {
	dims []int
	free sync.Pool
}

// classes is a copy-on-write table of classes, which Get and Put scan
// without a lock or a hash; a new shape replaces it under classMu.
var (
	classes atomic.Pointer[[]*class]
	classMu sync.Mutex
)

func init() { classes.Store(new([]*class)) }

// classOf returns the class of dims, added if add is set, or nil (always
// above maxRank).
func classOf(dims []int, add bool) *class {
	for _, c := range *classes.Load() {
		if slices.Equal(c.dims, dims) {
			return c
		}
	}
	if !add || len(dims) > maxRank {
		return nil
	}
	classMu.Lock()
	defer classMu.Unlock()
	c := classOf(dims, false)
	if c == nil {
		c = &class{dims: slices.Clone(dims)}
		t := append(slices.Clip(*classes.Load()), c)
		classes.Store(&t)
	}
	return c
}

// Get returns a block with the given dims, as the SIP's memory manager
// does: "The memory in each SIP worker is managed by dividing it into
// several stacks of preallocated blocks of memory of various sizes"
// (paper §V-B).  The stacks are per-shape sync.Pools shared by the whole
// process (workers, servers, pool jobs, generators): per-P, lock-free,
// and emptied by the GC after two idle cycles, so no cap and no knob.
// The block holds whatever it held when Put: every caller overwrites it,
// or zeroes it first.  Get panics on a non-positive dimension.
func Get(dims ...int) *Block {
	var t Tally
	return t.Get(dims...)
}

// Put gives b back to the allocator, under the ownership rule of the
// package doc.  A block above maxRank is left to the garbage collector.
func Put(b *Block) {
	if c := classOf(b.dims, true); c != nil {
		c.free.Put(b)
	}
}

// Tally counts one holder's gets: the blocks it had to allocate and the
// ones a Put gave back.
type Tally struct{ Fresh, Reused int64 }

// Get is block.Get, counted in t.
func (t *Tally) Get(dims ...int) *Block {
	if c := classOf(dims, false); c != nil {
		if b, _ := c.free.Get().(*Block); b != nil {
			t.Reused++
			return b
		}
	}
	t.Fresh++
	return New(dims...)
}
