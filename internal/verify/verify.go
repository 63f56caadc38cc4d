// Package verify provides the concurrent signature-verification pipeline:
// a bounded, internally-synchronized LRU cache of ed25519 verification
// verdicts plus a parallel-for worker pool sized to the machine.
//
// The production hot path of a validator (paper §7) is dominated by
// ed25519 verification and SHA-256 hashing. Both are embarrassingly
// parallel and, across the life of a transaction, highly redundant: the
// same (message, signature, key) triple is verified when the tx arrives
// from the overlay, again per nomination candidate, and once more at
// apply time. The cache collapses those repeats to one ed25519.Verify;
// the pool fans the remaining cold checks across runtime.NumCPU()
// goroutines.
//
// Determinism: the cache memoizes a pure function (signature validity
// never changes for a fixed triple), so consulting it can never alter a
// verdict — only skip recomputing it. Both positive and negative verdicts
// are cached; a forged signature stays forged. The pool is only ever used
// for side-effect-free prework (warming the cache, hashing immutable
// buckets), never for state mutation, so scheduling order cannot leak
// into ledger contents.
package verify

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
)

// DefaultCacheSize bounds the cache when the caller does not choose one.
// A verdict costs about 80 bytes (TestCacheBytesPerVerdict holds it under
// 110: a 44-byte slot plus a map entry of 12 bytes at the load the runtime
// keeps), so a full default cache is about 5 MB. It is a ceiling, not what
// keeps a ledger's pending verdicts resident: an applied transaction's
// verdicts leave at the close of its ledger (Forget), so a validator's
// cache holds its pool's verdicts and its envelopes', and only the envelope
// verdicts wait for the LRU to reuse their slots.
const DefaultCacheSize = 1 << 16

// Cache is a bounded LRU map from (message, signature, public key) to the
// verification verdict. It is safe for concurrent use. Entries are keyed
// by an injective hash of the triple, so the cache stores 32-byte keys
// regardless of message size.
//
// The verdicts live in one slab, linked into exact LRU order by slot
// numbers, and are found through a map from the first eight bytes of the
// key to the slot number. Neither holds a pointer, so the garbage collector
// never looks inside the cache however full it is. The eight bytes only
// locate a slot: a verdict is returned only when the slot's full key
// matches, and two keys that share them merely displace each other. The
// slots Forget frees are chained through next into a free list, which a
// new verdict takes from before the slab grows.
type Cache struct {
	mu    sync.Mutex
	max   int
	index map[uint64]uint32
	slots []slot // grows to max, then the least recently used is reused
	head  uint32 // most recently used; noSlot when empty
	tail  uint32 // least recently used
	free  uint32 // first freed slot; noSlot when none

	hits   atomic.Uint64
	misses atomic.Uint64
}

// slot is one cached verdict and its place in the LRU order.
type slot struct {
	key        stellarcrypto.Hash
	prev, next uint32 // towards head, towards tail; noSlot at the ends
	ok         bool
}

const noSlot = ^uint32(0)

// NewCache returns a cache bounded to max entries. max <= 0 selects
// DefaultCacheSize.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		max:   max,
		index: make(map[uint64]uint32),
		head:  noSlot,
		tail:  noSlot,
		free:  noSlot,
	}
}

// Key derives the injective cache key for a verification triple: one
// SHA-256 over it. HashConcat length-prefixes each part, so distinct (msg,
// sig, key) splits can never collide.
func Key(pk stellarcrypto.PublicKey, msg, sig []byte) stellarcrypto.Hash {
	return stellarcrypto.HashConcat(msg, sig, pk.Bytes())
}

// locator is the part of a key the index is keyed by.
func locator(key stellarcrypto.Hash) uint64 { return binary.LittleEndian.Uint64(key[:8]) }

// find returns the slot holding key. The caller holds mu.
func (c *Cache) find(key stellarcrypto.Hash) (uint32, bool) {
	i, ok := c.index[locator(key)]
	return i, ok && c.slots[i].key == key
}

// unlink takes slot i out of the LRU order. The caller holds mu.
func (c *Cache) unlink(i uint32) {
	s := &c.slots[i]
	if s.prev == noSlot {
		c.head = s.next
	} else {
		c.slots[s.prev].next = s.next
	}
	if s.next == noSlot {
		c.tail = s.prev
	} else {
		c.slots[s.next].prev = s.prev
	}
}

// pushFront makes slot i the most recently used. The caller holds mu.
func (c *Cache) pushFront(i uint32) {
	s := &c.slots[i]
	s.prev, s.next = noSlot, c.head
	if c.head == noSlot {
		c.tail = i
	} else {
		c.slots[c.head].prev = i
	}
	c.head = i
}

// touch moves slot i to the front of the LRU order. The caller holds mu.
func (c *Cache) touch(i uint32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// lookup returns the cached verdict for key, if present.
func (c *Cache) lookup(key stellarcrypto.Hash) (ok, found bool) {
	c.mu.Lock()
	i, found := c.find(key)
	if found {
		c.touch(i)
		ok = c.slots[i].ok
	}
	c.mu.Unlock()
	if found {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok, found
}

// store records a verdict, evicting the least recently used entry when
// the cache is full.
func (c *Cache) store(key stellarcrypto.Hash, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc := locator(key)
	i, exists := c.index[loc]
	switch {
	case exists:
		// The key itself, or one sharing its locator, which it replaces.
		c.unlink(i)
	case c.free != noSlot:
		i = c.free
		c.free = c.slots[i].next
	case len(c.slots) < c.max:
		if len(c.slots) == cap(c.slots) {
			// Double, but never past the bound: append would overshoot it.
			grown := make([]slot, len(c.slots), min(c.max, max(64, 2*cap(c.slots))))
			copy(grown, c.slots)
			c.slots = grown
		}
		i = uint32(len(c.slots))
		c.slots = c.slots[:i+1]
	default:
		i = c.tail
		c.unlink(i)
		delete(c.index, locator(c.slots[i].key))
	}
	c.slots[i].key, c.slots[i].ok = key, ok
	c.index[loc] = i
	c.pushFront(i)
}

// Verify reports whether sig is a valid signature of msg under pk,
// consulting the cache first. Both outcomes are memoized.
func (c *Cache) Verify(pk stellarcrypto.PublicKey, msg, sig []byte) bool {
	return c.VerifyKey(Key(pk, msg, sig), pk, msg, sig)
}

// VerifyKey is Verify for a caller that holds the triple's Key already and
// wants it for Forget later.
func (c *Cache) VerifyKey(key stellarcrypto.Hash, pk stellarcrypto.PublicKey, msg, sig []byte) bool {
	if ok, found := c.lookup(key); found {
		return ok
	}
	ok := pk.Verify(msg, sig)
	c.store(key, ok)
	return ok
}

// Forget drops the verdicts cached under keys: those no check will ask for
// again, such as an applied transaction's, whose sequence number is spent.
// Keys not cached are skipped. A missing verdict costs a cold verify, never
// a different answer.
func (c *Cache) Forget(keys []stellarcrypto.Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		i, found := c.find(key)
		if !found {
			continue
		}
		c.unlink(i)
		delete(c.index, locator(key))
		c.slots[i] = slot{next: c.free}
		c.free = i
	}
}

// Contains reports whether the verdict for the triple is already cached,
// without counting a hit or miss. Tests use it to assert cache warmth.
func (c *Cache) Contains(pk stellarcrypto.PublicKey, msg, sig []byte) bool {
	key := Key(pk, msg, sig)
	c.mu.Lock()
	_, found := c.find(key)
	c.mu.Unlock()
	return found
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// HitRate returns hits/(hits+misses), or 0 with no lookups yet.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the hit/miss counters and current size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.index)
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: n,
	}
}

// Pool is a parallel-for runner. It spawns up to Workers goroutines per
// Run call and joins them before returning, so it holds no background
// goroutines between calls — nothing to close, nothing to leak, and a
// deterministic quiesce point for callers that need one (the simnet event
// loop resumes only after Run returns).
type Pool struct {
	workers int
	tasks   atomic.Uint64
}

// NewPool returns a pool running fn on up to workers goroutines.
// workers <= 0 selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Workers returns the configured parallelism.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run invokes fn(i) for every i in [0, n), distributing indices over the
// pool's workers via an atomic counter (work stealing by contention:
// cheap tasks drain fast, expensive ones don't stall a fixed stripe).
// It returns only after every call has finished. A nil pool or a
// single-worker pool runs inline.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p != nil {
		p.tasks.Add(uint64(n))
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// PoolStats is a point-in-time snapshot of pool utilization.
type PoolStats struct {
	Workers int
	Tasks   uint64
}

// Stats snapshots the task counter.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{Workers: 1}
	}
	return PoolStats{
		Workers: p.workers,
		Tasks:   p.tasks.Load(),
	}
}

// Verifier bundles the cache and pool that together form the
// verification pipeline. A single Verifier is shared by a node's ledger
// state, bucket list, and overlay envelope checks so all layers feed the
// same cache.
type Verifier struct {
	Cache *Cache
	Pool  *Pool

	ins *instruments
}

// New builds a Verifier with the given pool width and cache bound.
// workers <= 0 selects runtime.NumCPU(); cacheSize <= 0 selects
// DefaultCacheSize.
func New(workers, cacheSize int) *Verifier {
	return &Verifier{
		Cache: NewCache(cacheSize),
		Pool:  NewPool(workers),
	}
}

// Verify checks one signature through the cache. A nil Verifier falls
// back to a direct uncached check, so call sites need no guards. The
// registry counters are not touched here: the per-ledger FlushObs in
// ledger.ApplyTxSet publishes them, and the hot path stays one cache
// mutex per signature.
func (v *Verifier) Verify(pk stellarcrypto.PublicKey, msg, sig []byte) bool {
	if v == nil {
		return pk.Verify(msg, sig)
	}
	return v.Cache.Verify(pk, msg, sig)
}

// instruments holds the registry-bound metrics; resolved once in SetObs.
type instruments struct {
	hits    *obs.Counter
	misses  *obs.Counter
	entries *obs.Gauge
	tasks   *obs.Counter

	mu   sync.Mutex
	last CacheStats
	pool PoolStats
}

// SetObs registers the pipeline's metrics on reg: cache hits/misses and
// resident entries, and cumulative pool tasks. Counters are
// advanced by delta against the last snapshot so SetObs may be called
// after the verifier has already been in use.
func (v *Verifier) SetObs(reg *obs.Registry) {
	if v == nil || reg == nil {
		return
	}
	v.ins = &instruments{
		hits:    reg.Counter("verify_cache_hits_total", "Signature verification cache hits."),
		misses:  reg.Counter("verify_cache_misses_total", "Signature verification cache misses."),
		entries: reg.Gauge("verify_cache_entries", "Resident signature verification cache entries."),
		tasks:   reg.Counter("verify_pool_tasks_total", "Tasks executed by the verification pool."),
	}
	v.ins.observe(v)
}

// observe folds the current counters into the registry. The snapshots are
// taken under ins.mu: the cache and pool counters only grow, so snapshots
// ordered by the lock never yield a negative (uint64-wrapping) delta,
// which two observers snapshotting before the lock could.
func (ins *instruments) observe(v *Verifier) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	cs := v.Cache.Stats()
	ps := v.Pool.Stats()
	ins.hits.Add(float64(cs.Hits - ins.last.Hits))
	ins.misses.Add(float64(cs.Misses - ins.last.Misses))
	ins.entries.Set(float64(cs.Entries))
	ins.tasks.Add(float64(ps.Tasks - ins.pool.Tasks))
	ins.last = cs
	ins.pool = ps
}

// FlushObs pushes the latest counter values into the registry. Callers
// that drive the pool directly (bucket merges) call this after a batch.
func (v *Verifier) FlushObs() {
	if v == nil || v.ins == nil {
		return
	}
	v.ins.observe(v)
}
