package verify

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
)

func TestCacheVerdictsAgree(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-test")
	other := stellarcrypto.KeyPairFromString("verify-test-other")
	msg := []byte("hello ledger")
	sig := kp.Secret.Sign(msg)

	c := NewCache(16)
	// Cold and warm verdicts must match the direct check, for both the
	// valid and the forged case.
	for i := 0; i < 3; i++ {
		if !c.Verify(kp.Public, msg, sig) {
			t.Fatalf("pass %d: valid signature rejected", i)
		}
		if c.Verify(other.Public, msg, sig) {
			t.Fatalf("pass %d: signature accepted under wrong key", i)
		}
		if c.Verify(kp.Public, []byte("tampered"), sig) {
			t.Fatalf("pass %d: signature accepted over wrong message", i)
		}
	}
	st := c.Stats()
	// 3 distinct triples, each looked up 3 times: 3 misses, 6 hits.
	if st.Misses != 3 || st.Hits != 6 {
		t.Fatalf("stats = %+v, want 3 misses / 6 hits", st)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v, want ~2/3", got)
	}
}

func TestCacheBounded(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-bound")
	c := NewCache(8)
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		c.Verify(kp.Public, msg, kp.Secret.Sign(msg))
	}
	if st := c.Stats(); st.Entries > 8 {
		t.Fatalf("cache grew to %d entries, bound is 8", st.Entries)
	}
	// The most recent entry survived; the oldest was evicted.
	last := []byte("msg-99")
	if !c.Contains(kp.Public, last, kp.Secret.Sign(last)) {
		t.Fatalf("most recent entry evicted")
	}
	first := []byte("msg-0")
	if c.Contains(kp.Public, first, kp.Secret.Sign(first)) {
		t.Fatalf("oldest entry still resident past the bound")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-lru")
	sign := func(i int) ([]byte, []byte) {
		msg := []byte(fmt.Sprintf("m%d", i))
		return msg, kp.Secret.Sign(msg)
	}
	c := NewCache(2)
	m0, s0 := sign(0)
	m1, s1 := sign(1)
	m2, s2 := sign(2)
	c.Verify(kp.Public, m0, s0)
	c.Verify(kp.Public, m1, s1)
	c.Verify(kp.Public, m0, s0) // touch 0 → 1 is now LRU
	c.Verify(kp.Public, m2, s2) // evicts 1
	if !c.Contains(kp.Public, m0, s0) {
		t.Fatalf("recently-used entry evicted")
	}
	if c.Contains(kp.Public, m1, s1) {
		t.Fatalf("least-recently-used entry survived eviction")
	}
}

func TestCacheConcurrent(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-conc")
	c := NewCache(64)
	msgs := make([][]byte, 32)
	sigs := make([][]byte, 32)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent-%d", i))
		sigs[i] = kp.Secret.Sign(msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(msgs)
				if !c.Verify(kp.Public, msgs[k], sigs[k]) {
					t.Errorf("valid signature rejected under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		p := NewPool(workers)
		const n = 1000
		var mu sync.Mutex
		seen := make(map[int]int, n)
		p.Run(n, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != n {
			t.Fatalf("workers=%d: covered %d of %d indices", workers, len(seen), n)
		}
		for i, count := range seen {
			if count != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, count)
			}
		}
	}
}

func TestPoolRunEmpty(t *testing.T) {
	p := NewPool(4)
	p.Run(0, func(int) { t.Fatalf("fn called for n=0") })
	var nilPool *Pool
	ran := 0
	nilPool.Run(3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d of 3 tasks", ran)
	}
}

func TestVerifierNilFallback(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-nil")
	msg := []byte("nil verifier")
	sig := kp.Secret.Sign(msg)
	var v *Verifier
	if !v.Verify(kp.Public, msg, sig) {
		t.Fatalf("nil verifier rejected valid signature")
	}
	if v.Verify(kp.Public, msg, sig[:32]) {
		t.Fatalf("nil verifier accepted truncated signature")
	}
}

func TestVerifierObs(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("verify-obs")
	msg := []byte("metrics")
	sig := kp.Secret.Sign(msg)

	v := New(2, 16)
	reg := obs.NewRegistry()
	v.SetObs(reg)
	v.Verify(kp.Public, msg, sig) // miss
	v.Verify(kp.Public, msg, sig) // hit
	v.Pool.Run(4, func(int) {})
	v.FlushObs()

	if got := reg.Counter("verify_cache_hits_total", "").Value(); got != 1 {
		t.Fatalf("verify_cache_hits_total = %v, want 1", got)
	}
	if got := reg.Counter("verify_cache_misses_total", "").Value(); got != 1 {
		t.Fatalf("verify_cache_misses_total = %v, want 1", got)
	}
	if got := reg.Gauge("verify_cache_entries", "").Value(); got != 1 {
		t.Fatalf("verify_cache_entries = %v, want 1", got)
	}
	if got := reg.Counter("verify_pool_tasks_total", "").Value(); got != 4 {
		t.Fatalf("verify_pool_tasks_total = %v, want 4", got)
	}
}

// TestVerifierObsConcurrent drives Verify and FlushObs from many
// goroutines at once (run under -race): the registry counters must never
// decrease — an out-of-order snapshot would wrap the uint64 delta — and
// must end at exactly one lookup per Verify call.
func TestVerifierObsConcurrent(t *testing.T) {
	const workers, calls = 8, 400
	kp := stellarcrypto.KeyPairFromString("verify-obs-concurrent")
	msgs := make([][]byte, 16)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		sigs[i] = kp.Secret.Sign(msgs[i])
	}

	v := New(2, 64)
	reg := obs.NewRegistry()
	v.SetObs(reg)
	hits := reg.Counter("verify_cache_hits_total", "")
	misses := reg.Counter("verify_cache_misses_total", "")

	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var lastHits, lastMisses float64
		for {
			h, m := hits.Value(), misses.Value()
			if h < lastHits || m < lastMisses || h+m > workers*calls {
				t.Errorf("counters went backwards or wrapped: hits %v -> %v, misses %v -> %v", lastHits, h, lastMisses, m)
				return
			}
			lastHits, lastMisses = h, m
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := (g + i) % len(msgs)
				if !v.Verify(kp.Public, msgs[k], sigs[k]) {
					t.Errorf("valid signature rejected")
					return
				}
				v.FlushObs()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-watched
	v.FlushObs()
	if got := hits.Value() + misses.Value(); got != workers*calls {
		t.Fatalf("hits + misses = %v, want %d", got, workers*calls)
	}
}

// testKey is a distinct, well-spread cache key per i, without the cost of
// signing anything.
func testKey(i int) stellarcrypto.Hash {
	return stellarcrypto.HashBytes([]byte(fmt.Sprintf("slab-key-%d", i)))
}

// TestCacheChurn stores twice the capacity and checks after every store
// that the slab, the index and the LRU list still describe the same set:
// exactly the most recent max keys, in order of use.
func TestCacheChurn(t *testing.T) {
	const max = 64
	c := NewCache(max)
	for i := 0; i < 2*max; i++ {
		c.store(testKey(i), i%2 == 0)
		if i%3 == 0 && i > 0 {
			c.lookup(testKey(i - 1)) // reorder: the previous key becomes the newest
		}
		want := min(i+1, max)
		if len(c.index) != want || len(c.slots) != want {
			t.Fatalf("after %d stores: %d index entries, %d slots, want %d", i+1, len(c.index), len(c.slots), want)
		}
		n := 0
		for j, prev := c.head, noSlot; j != noSlot; j, prev = c.slots[j].next, j {
			if c.slots[j].prev != prev {
				t.Fatalf("after %d stores: slot %d links back to %d, reached from %d", i+1, j, c.slots[j].prev, prev)
			}
			if got, ok := c.find(c.slots[j].key); !ok || got != j {
				t.Fatalf("after %d stores: listed slot %d is not indexed", i+1, j)
			}
			if n++; n > want {
				t.Fatalf("after %d stores: LRU list longer than the cache", i+1)
			}
		}
		if n != want {
			t.Fatalf("after %d stores: LRU list holds %d of %d entries", i+1, n, want)
		}
	}
	if cap(c.slots) != max {
		t.Fatalf("slab capacity %d, want exactly the bound %d", cap(c.slots), max)
	}
	for i := 0; i < 2*max; i++ {
		ok, found := c.lookup(testKey(i))
		if found != (i >= max) {
			t.Fatalf("key %d: found=%v after churn to %d", i, found, 2*max)
		}
		if found && ok != (i%2 == 0) {
			t.Fatalf("key %d: verdict flipped", i)
		}
	}
}

// TestCacheLocatorCollision: two keys that agree on the eight bytes the
// index is keyed by displace each other and never answer for each other.
func TestCacheLocatorCollision(t *testing.T) {
	a, b := testKey(1), testKey(2)
	copy(b[:8], a[:8])
	c := NewCache(8)
	c.store(a, true)
	if _, found := c.lookup(b); found {
		t.Fatal("a key answered for another with the same locator")
	}
	c.store(b, false)
	if ok, found := c.lookup(b); !found || ok {
		t.Fatalf("stored key: found=%v ok=%v", found, ok)
	}
	if _, found := c.lookup(a); found {
		t.Fatal("displaced key still answers")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries, want 1", st.Entries)
	}
}

// TestCacheAllocs: a hit allocates nothing, and a store at most one object
// amortised (index growth while filling, nothing once full).
func TestCacheAllocs(t *testing.T) {
	const max = 1024
	keys := make([]stellarcrypto.Hash, 2*max+2) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = testKey(i)
	}
	c := NewCache(max)
	i := 0
	fill := testing.AllocsPerRun(max, func() { c.store(keys[i], true); i++ })
	if fill > 1 {
		t.Errorf("store while filling: %.2f allocs per call, want <= 1", fill)
	}
	churn := testing.AllocsPerRun(max, func() { c.store(keys[i], true); i++ })
	if churn > 1 {
		t.Errorf("store at capacity: %.2f allocs per call, want <= 1", churn)
	}
	key := keys[i-1]
	if hit := testing.AllocsPerRun(100, func() { c.lookup(key) }); hit != 0 {
		t.Errorf("hit: %.2f allocs per call, want 0", hit)
	}
}

// TestCacheBytesPerVerdict bounds what a full default-size cache holds.
func TestCacheBytesPerVerdict(t *testing.T) {
	keys := make([]stellarcrypto.Hash, DefaultCacheSize)
	for i := range keys {
		keys[i] = testKey(i)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	c := NewCache(0)
	for _, k := range keys {
		c.store(k, true)
	}
	after := heap()
	if st := c.Stats(); st.Entries != DefaultCacheSize {
		t.Fatalf("%d entries, want %d", st.Entries, DefaultCacheSize)
	}
	per := float64(after-before) / DefaultCacheSize
	t.Logf("%.1f bytes per verdict at %d entries", per, DefaultCacheSize)
	if per > 110 {
		t.Fatalf("%.1f bytes per verdict, want <= 110", per)
	}
	runtime.KeepAlive(keys)
}

// TestCacheForgetReusesSlots: a forgotten verdict no longer answers, the
// others still do in LRU order, and new verdicts fill the freed slots before
// the slab grows — a cache whose verdicts are forgotten as fast as they are
// stored stays at its high-water mark however many pass through it.
func TestCacheForgetReusesSlots(t *testing.T) {
	c := NewCache(1024)
	var keys []stellarcrypto.Hash
	for i := 0; i < 100; i++ {
		keys = append(keys, testKey(i))
		c.store(keys[i], i%2 == 0)
	}
	slab := len(c.slots)
	c.Forget(append(keys[:50:50], testKey(-1))) // one key never stored
	if st := c.Stats(); st.Entries != 50 {
		t.Fatalf("%d entries after forgetting 50 of 100, want 50", st.Entries)
	}
	for i, k := range keys {
		ok, found := c.lookup(k)
		if found != (i >= 50) || found && ok != (i%2 == 0) {
			t.Fatalf("key %d: found=%v ok=%v", i, found, ok)
		}
	}
	for round := 0; round < 20; round++ {
		var batch []stellarcrypto.Hash
		for i := 0; i < 50; i++ {
			k := testKey(1000 + round*50 + i)
			c.store(k, true)
			batch = append(batch, k)
		}
		c.Forget(batch)
	}
	if len(c.slots) != slab {
		t.Fatalf("slab grew from %d to %d slots with every new verdict forgotten", slab, len(c.slots))
	}
	// The LRU order survives the reuse: filling to the bound evicts the
	// oldest survivors first.
	for i := 0; i < 1024-50+1; i++ {
		c.store(testKey(5000+i), true)
	}
	if _, found := c.lookup(keys[50]); found {
		t.Fatal("the least recently used verdict was not the one evicted at the bound")
	}
	if _, found := c.lookup(keys[51]); !found {
		t.Fatal("a verdict newer than the evicted one is gone")
	}
}
