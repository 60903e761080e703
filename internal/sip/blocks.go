package sip

import (
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

// copyInto overwrites dst, a block of the right dims, with the block, or
// with zeros when it is absent (never written).
func (s *store) copyInto(k blockKey, dst *block.Block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blocks[k]; ok {
		dst.CopyFrom(b)
	} else {
		dst.Fill(0)
	}
}

// put replaces or accumulates a block.  The store takes ownership of b;
// a b added to the block already there, and the block b replaces, go back
// to the allocator.  The store owns its blocks alone: a get's reply, a
// gather and a save copy out of them.
func (s *store) put(k blockKey, b *block.Block, acc bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.blocks[k]
	switch {
	case ok && acc:
		cur.AddScaled(1, b)
		block.Put(b)
		return
	case ok:
		block.Put(cur)
	}
	s.blocks[k] = b
}

// copyOut copies out the blocks whose keys match, by array.
func (s *store) copyOut(match func(blockKey) bool) map[int][]ArrayBlock {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[int][]ArrayBlock{}
	for k, b := range s.blocks {
		if match(k) {
			out[k.arr] = append(out[k.arr], ArrayBlock{Ord: k.ord, Data: append([]float64(nil), b.Data()...)})
		}
	}
	return out
}

// drop removes the blocks whose keys match and gives them back to the
// allocator: an array's before a checkpoint restore, and all of them when
// the worker's service loop ends.  That loop is the store's last user:
// the interpreter's reads copy out, and end before the master's shutdown.
func (s *store) drop(match func(blockKey) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, b := range s.blocks {
		if match(k) {
			block.Put(b)
			delete(s.blocks, k)
		}
	}
}

// effectLedger is the dedup ledger of put/prepare effect seqs at a
// destination: a replayed effect whose seq it holds is acknowledged but
// not applied again.  It keeps two epochs and rotates at the holder's seal
// (a worker's sync release, a job's server flush).  Clearing it there
// would race a faster survivor's next-phase effects, which can arrive
// before the seal and land in the epoch about to rotate; so that epoch
// stays live for one more phase, and only entries two seals old go —
// their phase the master's sealed chunk ledger can no longer order
// replayed.  The ledger holds two phases of effects, not the whole run's.
// The zero value is ready to use; the holder provides the locking.
type effectLedger struct {
	cur, prev map[uint64]bool
}

// mark records seq, reporting false when either live epoch holds it.
func (l *effectLedger) mark(seq uint64) bool {
	if l.cur[seq] || l.prev[seq] {
		return false
	}
	if l.cur == nil {
		l.cur = map[uint64]bool{}
	}
	l.cur[seq] = true
	return true
}

// rotate retires the previous epoch, returning how many seqs it held, and
// makes the current one the previous.
func (l *effectLedger) rotate() (retired int) {
	retired = len(l.prev)
	l.prev, l.cur = l.cur, nil
	return retired
}

// cacheEntry is one slot of a worker's remote-block cache: a block, or
// (while b is nil) the request of a fetch still in flight, which the
// interpreter completes when it touches the entry.  The request lives in
// the entry, which the cache recycles, so a fetch allocates neither.
// ahead marks a block look-ahead requested that the program has not
// asked for yet.
type cacheEntry struct {
	key        blockKey
	b          *block.Block
	req        mpi.Request
	ahead      bool
	prev, next *cacheEntry // LRU ring; next alone chains the free list
}

// complete installs the reply of the entry's fetch.
func (e *cacheEntry) complete(m mpi.Message) {
	e.b = m.Data.(*block.Block)
}

// pending reports whether the fetch is still in flight, after receiving
// the reply if it has arrived.
func (e *cacheEntry) pending() bool {
	if e.b == nil {
		if m, done := e.req.Test(); done {
			e.complete(m)
		}
	}
	return e.b == nil
}

// blockCache is the worker-side cache of fetched distributed and served
// blocks with LRU replacement (paper §V-A: a block "may be available ...
// because it is still available in the block cache from a recent use").
// It is used only by the worker's interpreter goroutine and owns its
// blocks (a reply is a copy made for the requester): no instruction keeps
// a cached block by pointer, so a dropped entry's block goes back to the
// block allocator.
type blockCache struct {
	capacity int
	entries  map[blockKey]*cacheEntry
	lru      cacheEntry  // ring sentinel: lru.next is the most recent entry
	free     *cacheEntry // recycled entries
	// stale holds entries dropped while in flight.  Their replies are
	// still received (the posted receive and its tag are consumed) and
	// recycled unread: data requested before a barrier is never served
	// after it.
	stale  []*cacheEntry
	nAhead int // entries with ahead set: the look-ahead budget in use

	hits, misses, evictions int64
}

func newBlockCache(capacity int) *blockCache {
	c := &blockCache{capacity: max(capacity, 1), entries: map[blockKey]*cacheEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// lookup returns the entry for k, if cached, and marks it recently used
// and asked for by the program.
func (c *blockCache) lookup(k blockKey) *cacheEntry {
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	if e.ahead {
		e.ahead = false
		c.nAhead--
	}
	e.prev.next, e.next.prev = e.next, e.prev
	c.pushFront(e)
	return e
}

func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// insert caches a block that is ready (b) or in flight (b nil, req).
// When room finds nothing to evict the cache overflows; look-ahead asks
// room first and never causes that.
func (c *blockCache) insert(k blockKey, b *block.Block, req mpi.Request, ahead bool) {
	c.room()
	e := c.free
	if e == nil {
		e = &cacheEntry{}
	} else {
		c.free = e.next
	}
	*e = cacheEntry{key: k, b: b, req: req, ahead: ahead}
	if ahead {
		c.nAhead++
	}
	c.pushFront(e)
	c.entries[k] = e
}

// room receives what has arrived for the stale entries, then makes space
// for one more entry and reports whether it could.  It evicts the least
// recently used entry that is neither in flight (the reply would be lost)
// nor awaited by look-ahead (a farther prefetch must not push out a
// nearer one).
func (c *blockCache) room() bool {
	live := c.stale[:0]
	for _, e := range c.stale {
		if e.pending() {
			live = append(live, e)
		} else {
			c.recycle(e)
		}
	}
	c.stale = live
	for e := c.lru.prev; len(c.entries) >= c.capacity && e != &c.lru; {
		victim := e
		e = e.prev
		if !victim.ahead && !victim.pending() {
			c.drop(victim)
			c.evictions++
		}
	}
	return len(c.entries) < c.capacity
}

// drop removes an entry from the cache.
func (c *blockCache) drop(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.entries, e.key)
	if e.ahead {
		c.nAhead--
	}
	if e.pending() {
		c.stale = append(c.stale, e)
	} else {
		c.recycle(e)
	}
}

// recycle gives a dropped entry's block back to the block allocator and
// the entry to the free list.
func (c *blockCache) recycle(e *cacheEntry) {
	if e.b != nil {
		block.Put(e.b)
	}
	*e = cacheEntry{next: c.free}
	c.free = e
}

// invalidate drops a cached block the worker has just overwritten.
func (c *blockCache) invalidate(k blockKey) {
	if e, ok := c.entries[k]; ok {
		c.drop(e)
	}
}

// invalidateAll empties the cache (barriers, snapshot install:
// conflicting writes may have changed remote blocks).
func (c *blockCache) invalidateAll() {
	for _, e := range c.entries {
		c.drop(e)
	}
}

// settle forgets which entries look-ahead is waiting for: the loop they
// were requested for has ended without asking for them, so they are
// ordinary entries that LRU may evict.
func (c *blockCache) settle() {
	for e := c.lru.next; e != &c.lru && c.nAhead > 0; e = e.next {
		if e.ahead {
			e.ahead = false
			c.nAhead--
		}
	}
}
