package sip

import (
	"slices"

	"repro/internal/block"
)

// blockPool recycles worker block storage, mirroring the SIP's memory
// manager: "The memory in each SIP worker is managed by dividing it into
// several stacks of preallocated blocks of memory of various sizes"
// (paper §V-B).  Instruction results are popped from a per-size free
// stack; temps are pushed back when overwritten or at the end of their
// pardo iteration, so steady-state execution allocates nothing.
type blockPool struct {
	free map[int][]*block.Block // keyed by element count

	allocs int64 // blocks newly allocated
	reuses int64 // blocks served from a free stack
}

func newBlockPool() *blockPool {
	return &blockPool{free: map[int][]*block.Block{}}
}

// get returns a block with the given dims, reusing pooled storage of the
// same size class when the shape matches.  A reused block holds whatever
// it held last: every caller overwrites it, or zeros it first.
func (p *blockPool) get(dims []int) *block.Block {
	size := 1
	for _, d := range dims {
		size *= d
	}
	stack := p.free[size]
	for i := len(stack) - 1; i >= 0; i-- {
		b := stack[i]
		if slices.Equal(b.Dims(), dims) {
			p.free[size] = append(stack[:i], stack[i+1:]...)
			p.reuses++
			return b
		}
	}
	p.allocs++
	return block.New(dims...)
}

// put returns a block to its size stack.  The caller must not use the
// block afterwards.
func (p *blockPool) put(b *block.Block) {
	size := b.Size()
	// Bound each stack so pathological programs do not hoard memory.
	if len(p.free[size]) >= 64 {
		return
	}
	p.free[size] = append(p.free[size], b)
}
