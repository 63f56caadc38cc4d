package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Loop is the real-time implementation of simnet.Env backing one local
// node. Where the simulator serializes all handlers on a single thread,
// the loop serializes them under one mutex: every event — an inbound
// packet decoded by a connection's reader, a timer firing, an HTTP request
// reading node state — runs while holding it, so the herder keeps its
// single-threaded worldview over real concurrent I/O.
//
// The clock is anchored to the Unix epoch rather than process start, so
// independent processes agree on proposed close times without exchanging
// clock offsets (ordinary NTP-level skew is inside the herder's close-time
// tolerance).
type Loop struct {
	mu       sync.Mutex
	deferred []func()
	closed   bool

	self    simnet.Addr
	handler simnet.Handler
	// ov is the handler when it is an overlay, as herder.New registers it
	// (TestLoopDropsSeenFloodsBeforeDecode holds that): its seen set is
	// what connection readers ask before they decode a frame (Receive).
	// Read without the loop lock, hence atomic.
	ov atomic.Pointer[overlay.Overlay]

	// send is installed by the Manager; nil sends are dropped (a node with
	// no transport yet simply reaches no one, like an unwired overlay).
	send func(from, to simnet.Addr, msg any, size int)
}

var _ simnet.Env = (*Loop)(nil)

// NewLoop creates an idle loop; attach a node with AddNode (the herder
// constructor does this) and a Manager to give it a wire.
func NewLoop() *Loop { return &Loop{} }

// Now returns nanoseconds since the Unix epoch as a duration.
func (l *Loop) Now() time.Duration { return time.Duration(time.Now().UnixNano()) }

// AddNode registers the local node. One loop hosts exactly one node — a
// process is one validator.
func (l *Loop) AddNode(addr simnet.Addr, h simnet.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.handler != nil && l.self != addr {
		panic("transport: one node per loop")
	}
	l.self, l.handler = addr, h
	if ov, ok := h.(*overlay.Overlay); ok {
		l.ov.Store(ov)
	}
}

// Receive hands the local node one inbound packet frame's payload from
// peer from, on the calling connection reader's goroutine. A flooded
// envelope or transaction the overlay has seen already costs one hash of
// its flooded body (floodKey) and one look in the overlay's seen set, which
// counts it as suppressed, and is dropped undecoded; anything else is
// decoded and delivered as one loop event, a fresh flooded payload keeping
// that hash as its id. The error is the decoder's, for a frame dropped as
// undecodable.
func (l *Loop) Receive(from simnet.Addr, payload []byte) error {
	var id stellarcrypto.Hash
	flooded := false
	if ov := l.ov.Load(); ov != nil {
		if id, flooded = floodKey(payload); flooded && ov.Seen(id) {
			return nil
		}
	}
	pkt, err := DecodePacket(payload)
	if err != nil {
		return err
	}
	if flooded {
		switch {
		case pkt.Envelope != nil:
			pkt.Envelope.KeepID(id)
		case pkt.Tx != nil:
			pkt.Tx.KeepEnvelopeHash(id)
		}
	}
	l.Run(func() {
		if l.handler != nil {
			l.handler.HandleMessage(from, pkt, len(payload))
		}
	})
	return nil
}

// Self returns the local node's address ("" before AddNode).
func (l *Loop) Self() simnet.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.self
}

// Send routes a message through the manager's connections. Unlike the
// simulator this is called with the loop lock already held (from inside an
// event), so it must not re-enter the loop; the manager only touches
// per-peer queues.
func (l *Loop) Send(from, to simnet.Addr, msg any, size int) {
	if l.send != nil {
		l.send(from, to, msg, size)
	}
}

// After schedules fn on the wall clock. The returned timer's fields are
// only touched under the loop lock, mirroring the simulator's contract.
func (l *Loop) After(owner simnet.Addr, d time.Duration, fn func()) *simnet.Timer {
	t := &simnet.Timer{}
	time.AfterFunc(d, func() {
		l.Run(func() {
			if t.Cancelled() {
				return
			}
			t.MarkFired()
			fn()
		})
	})
	return t
}

// Defer queues fn to run when the current event finishes, preserving the
// simulator's re-entrancy-breaking semantics. Must be called from inside
// an event (the lock held).
func (l *Loop) Defer(fn func()) {
	l.deferred = append(l.deferred, fn)
}

// Run executes fn as one loop event: under the lock, followed by any
// work it deferred. This is the single entry point for everything that
// touches node state from outside — connection readers, timers, shutdown.
func (l *Loop) Run(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	fn()
	l.drainDeferred()
}

// drainDeferred runs deferred work to fixpoint; the lock must be held.
func (l *Loop) drainDeferred() {
	for len(l.deferred) > 0 {
		fn := l.deferred[0]
		l.deferred = l.deferred[1:]
		fn()
	}
}

// Close stops the loop: subsequent and in-flight-but-unstarted events are
// dropped. Timers already created fire into the closed loop and do
// nothing.
func (l *Loop) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.deferred = nil
}

// Locker returns a lock whose critical sections count as loop events:
// Unlock first drains work the caller's actions deferred. HTTP handlers
// reading or mutating node state hold this lock.
func (l *Loop) Locker() sync.Locker { return loopLocker{l} }

type loopLocker struct{ l *Loop }

func (k loopLocker) Lock() { k.l.mu.Lock() }

func (k loopLocker) Unlock() {
	if !k.l.closed {
		k.l.drainDeferred()
	}
	k.l.mu.Unlock()
}
