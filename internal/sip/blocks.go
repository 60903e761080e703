package sip

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/block"
	"repro/internal/mpi"
)

// blockKey identifies one block of one array of one job.  job namespaces
// the key inside a world: two jobs' arrays with the same ids never
// collide in worker stores, server caches, disk files, or dedup ledgers.
// A batch run is job 0; a pool numbers its tenants from 1.
type blockKey struct {
	job int
	arr int
	ord int
}

func (k blockKey) String() string {
	return fmt.Sprintf("j%d/a%d/b%d", k.job, k.arr, k.ord)
}

// store is the thread-safe home storage for the blocks of distributed
// arrays a worker owns (and for an I/O server's persistent state).
// Blocks are allocated only when actually filled with data (paper §V-B);
// reads of absent blocks yield zeros.
type store struct {
	mu     sync.Mutex
	blocks map[blockKey]*block.Block
}

func newStore() *store {
	return &store{blocks: map[blockKey]*block.Block{}}
}

// getCopy returns a copy of the block, or a zero block with the given
// dims when absent.
func (s *store) getCopy(k blockKey, dims []int) *block.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blocks[k]; ok {
		return b.Clone()
	}
	return block.New(dims...)
}

// put replaces or accumulates a block.  The store takes ownership of b.
func (s *store) put(k blockKey, b *block.Block, acc bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if acc {
		if cur, ok := s.blocks[k]; ok {
			cur.AddScaled(1, b)
			return
		}
	}
	s.blocks[k] = b
}

// each calls fn for every stored block while holding the lock.
func (s *store) each(fn func(k blockKey, b *block.Block)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, b := range s.blocks {
		fn(k, b)
	}
}

// len returns the number of allocated blocks.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// delete removes all blocks of the given array (used by checkpoint
// restore).
func (s *store) deleteArray(arr int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blocks {
		if k.arr == arr {
			delete(s.blocks, k)
		}
	}
}

// cacheEntry is one slot of a worker's remote-block cache.  A nil block
// with a non-nil request means the fetch is still in flight; the
// interpreter completes the receive when it touches the entry.
type cacheEntry struct {
	key  blockKey
	b    *block.Block
	req  *mpi.Request
	elem *list.Element
}

// poll attempts to complete an in-flight fetch without blocking.
func (e *cacheEntry) poll() {
	if e.b != nil || e.req == nil {
		return
	}
	if m, done := e.req.Test(); done {
		e.b = m.Data.(*block.Block)
		e.req = nil
	}
}

// pending reports whether the fetch is still in flight.
func (e *cacheEntry) pending() bool {
	e.poll()
	return e.b == nil && e.req != nil
}

// blockCache is the worker-side cache of fetched distributed and served
// blocks with LRU replacement (paper §V-A: a block "may be available ...
// because it is still available in the block cache from a recent use").
// It is used only by the worker's interpreter goroutine.
type blockCache struct {
	capacity int
	entries  map[blockKey]*cacheEntry
	lru      *list.List // front = most recent

	hits      int64
	misses    int64
	evictions int64
}

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{
		capacity: capacity,
		entries:  map[blockKey]*cacheEntry{},
		lru:      list.New(),
	}
}

// lookup returns the entry for k, if cached, and marks it recently used.
func (c *blockCache) lookup(k blockKey) *cacheEntry {
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e
}

// insertPending registers an in-flight fetch and returns its entry.
func (c *blockCache) insertPending(k blockKey, req *mpi.Request) *cacheEntry {
	e := &cacheEntry{key: k, req: req}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.evictIfNeeded()
	return e
}

// insertReady inserts an already-available block.
func (c *blockCache) insertReady(k blockKey, b *block.Block) *cacheEntry {
	e := &cacheEntry{key: k, b: b}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.evictIfNeeded()
	return e
}

// invalidate drops a cached block (used at barriers: conflicting writes
// may have changed remote blocks).
func (c *blockCache) invalidate(k blockKey) {
	if e, ok := c.entries[k]; ok {
		c.lru.Remove(e.elem)
		delete(c.entries, k)
	}
}

// invalidateAll empties the cache, keeping pending entries (their data is
// still owed to the requester).
func (c *blockCache) invalidateAll() {
	for k, e := range c.entries {
		if e.pending() {
			continue
		}
		c.lru.Remove(e.elem)
		delete(c.entries, k)
	}
}

// evictIfNeeded enforces the capacity bound, never evicting pending
// entries (a pending eviction would lose an in-flight reply).
func (c *blockCache) evictIfNeeded() {
	for len(c.entries) > c.capacity {
		// Walk from the back (least recently used).
		el := c.lru.Back()
		evicted := false
		for el != nil {
			e := el.Value.(*cacheEntry)
			prev := el.Prev()
			if !e.pending() {
				c.lru.Remove(el)
				delete(c.entries, e.key)
				c.evictions++
				evicted = true
				break
			}
			el = prev
		}
		if !evicted {
			return // everything pending; let the cache overflow
		}
	}
}
