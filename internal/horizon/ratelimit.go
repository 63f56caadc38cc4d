package horizon

import (
	"math"
	"sync"
	"time"
)

// Token-bucket rate limiting for the submit pipeline (DESIGN.md §8).
// One limiter instance covers one key space — the server runs two, keyed
// by remote IP (pre-decode, the cheap outer gate) and by source account
// (post-decode, what a fee actually spends). Buckets refill continuously
// at rate tokens/second up to burst; an empty bucket reports how long
// until the next token, which becomes the 429's Retry-After.

// maxBuckets bounds the limiter's per-key state. When a new key would
// exceed it, fully refilled (idle) buckets are swept; a sweep that frees
// nothing means every key is genuinely active and the map stays at its
// high-water mark rather than growing unboundedly under key-churn abuse.
const maxBuckets = 1 << 16

type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket
	now     func() time.Time // injectable for tests
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter builds a limiter, or nil (allow-everything) when the
// rate is unlimited.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
}

// allow consumes one token for key. When the bucket is empty it reports
// the wait until the next token frees up. A nil limiter allows all.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.sweep(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// sweep drops buckets that have fully refilled — keys idle long enough
// that forgetting them loses nothing.
func (l *rateLimiter) sweep(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}
