package verify

import (
	"fmt"
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
	if got := reg.Gauge("verify_pool_workers", "").Value(); got != 2 {
		t.Fatalf("verify_pool_workers = %v, want 2", got)
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
