// Package simnet is a deterministic discrete-event network simulator. The
// paper's controlled experiments (§7.3) ran up to 43 validators on EC2; this
// simulator lets a laptop reproduce the same runs by modelling message
// latency with a virtual clock while node handlers execute as real code.
//
// The simulation is single-threaded and fully deterministic for a given
// seed: events (message deliveries and timer firings) are processed in
// virtual-time order, with ties broken by scheduling order. Node handlers
// run synchronously and may send further messages or set timers, which are
// queued as future events.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Addr identifies a host. On the simulated network it is an arbitrary
// label; real transports use the validator's node ID (its public key
// address), so the same value addresses a peer on either backend.
type Addr string

// Env is the node-facing surface of a network environment: sending
// messages, scheduling timers, and reading the clock. The discrete-event
// simulator implements it with a virtual clock; the TCP overlay transport
// (internal/transport) implements it with the wall clock and real
// connections. Nodes written against Env run unchanged on either backend.
type Env interface {
	// Now returns the environment's current time. The simulator's clock
	// starts at zero; real-time environments may anchor it to the Unix
	// epoch so that independent processes agree on close times.
	Now() time.Duration
	// After schedules fn to run at now+d on behalf of owner, returning a
	// cancellable handle.
	After(owner Addr, d time.Duration, fn func()) *Timer
	// Defer schedules fn to run immediately after the current event
	// completes (breaks re-entrancy).
	Defer(fn func())
	// Send transmits msg from one node to another; size approximates the
	// wire size for bandwidth accounting.
	Send(from, to Addr, msg any, size int)
	// AddNode registers a host's message handler.
	AddNode(addr Addr, h Handler)
}

// Handler receives messages delivered to a node.
type Handler interface {
	// HandleMessage is invoked when a message arrives. size is the wire
	// size in bytes used for bandwidth accounting.
	HandleMessage(from Addr, msg any, size int)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg any, size int)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from Addr, msg any, size int) { f(from, msg, size) }

// LatencyModel computes one-way delivery latency for a message.
type LatencyModel func(from, to Addr, rng *rand.Rand) time.Duration

// ConstantLatency returns a model with fixed one-way latency.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(from, to Addr, rng *rand.Rand) time.Duration { return d }
}

// UniformLatency returns a model with latency uniform in [min, max].
func UniformLatency(min, max time.Duration) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return func(from, to Addr, rng *rand.Rand) time.Duration {
		if max == min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
}

// event is a scheduled occurrence: either a message delivery or a timer.
type event struct {
	at      time.Duration
	seq     uint64 // tie-break: FIFO among same-time events
	deliver func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Stats accumulates network-wide counters. MessagesDropped is the total;
// the Dropped* fields break it down by cause so fault-injection tests can
// verify the accounting (a message lost to a partition must show up under
// DroppedCut, not vanish).
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	BytesDelivered    uint64
	TimersFired       uint64

	// Drop causes; they sum to MessagesDropped.
	DroppedDown   uint64 // sender or receiver crashed
	DroppedCut    uint64 // link partitioned (at send or while in flight)
	DroppedLoss   uint64 // random loss (global or per-link drop rate)
	DroppedNoDest uint64 // destination never registered
}

// Network is a simulated network of nodes joined by latency-modelled links.
type Network struct {
	now      time.Duration
	seq      uint64
	queue    eventHeap
	rng      *rand.Rand
	nodes    map[Addr]Handler
	latency  LatencyModel
	dropRate float64
	linkDrop map[[2]Addr]float64
	downed   map[Addr]bool
	cut      map[[2]Addr]bool
	stats    Stats

	// PerNode tracks per-destination delivered bytes for bandwidth
	// accounting (experiment E8).
	perNodeBytes map[Addr]uint64

	// procCost models receiver-side CPU per message (signature checks,
	// protocol processing): each node is a busy server that handles one
	// message at a time, so deliveries queue behind earlier ones. Zero
	// disables the model.
	procCost  time.Duration
	busyUntil map[Addr]time.Duration
}

var _ Env = (*Network)(nil)

// New creates an empty network with the given deterministic seed and a
// default constant 1 ms latency.
func New(seed int64) *Network {
	return &Network{
		rng:          rand.New(rand.NewSource(seed)),
		nodes:        make(map[Addr]Handler),
		latency:      ConstantLatency(time.Millisecond),
		linkDrop:     make(map[[2]Addr]float64),
		downed:       make(map[Addr]bool),
		cut:          make(map[[2]Addr]bool),
		perNodeBytes: make(map[Addr]uint64),
		busyUntil:    make(map[Addr]time.Duration),
	}
}

// SetLatency installs the latency model for subsequent sends. Safe to call
// mid-run (from a fault schedule): messages already in flight keep the
// delay they were assigned at send time.
func (n *Network) SetLatency(m LatencyModel) { n.latency = m }

// Latency returns the current latency model, so fault injectors can wrap
// it for a spike window and restore it afterwards.
func (n *Network) Latency() LatencyModel { return n.latency }

// SetDropRate sets the probability in [0,1) that any message is lost.
// Safe to call mid-run; it applies to subsequent sends only.
func (n *Network) SetDropRate(p float64) { n.dropRate = p }

// DropRate returns the current global loss probability.
func (n *Network) DropRate() float64 { return n.dropRate }

// SetLinkDropRate sets the loss probability for messages from one node to
// another; the higher of the global and per-link rate applies. The link is
// directional, modelling asymmetric degradation (a saturated uplink loses
// outbound traffic while inbound flows fine). p ≤ 0 clears the link's
// extra loss.
func (n *Network) SetLinkDropRate(from, to Addr, p float64) {
	if p <= 0 {
		delete(n.linkDrop, [2]Addr{from, to})
		return
	}
	n.linkDrop[[2]Addr{from, to}] = p
}

// SetProcessingCost installs the per-message receiver CPU cost: messages
// arriving while a node is busy queue behind the in-progress one. This is
// how the simulation reproduces the paper's load-dependent latencies
// (Fig 11): protocol structure alone is latency-bound, but real validators
// pay per-message verification and processing time.
func (n *Network) SetProcessingCost(d time.Duration) { n.procCost = d }

// AddNode registers a host. Re-registering an address replaces its handler.
func (n *Network) AddNode(addr Addr, h Handler) {
	n.nodes[addr] = h
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Rand exposes the deterministic RNG so co-simulated components (load
// generators, fault injectors) share one seed.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats { return n.stats }

// BytesDeliveredTo reports total bytes delivered to addr.
func (n *Network) BytesDeliveredTo(addr Addr) uint64 { return n.perNodeBytes[addr] }

// SetDown marks a node as crashed: messages to and from it are dropped and
// its timers do not fire. Use SetUp to revive it.
func (n *Network) SetDown(addr Addr) { n.downed[addr] = true }

// SetUp revives a crashed node.
func (n *Network) SetUp(addr Addr) { delete(n.downed, addr) }

// Partition cuts the bidirectional link between a and b. Safe to call
// mid-run: messages in flight on the link when the cut lands are lost
// (deliver re-checks the cut), as on a real network.
func (n *Network) Partition(a, b Addr) {
	n.cut[[2]Addr{a, b}] = true
	n.cut[[2]Addr{b, a}] = true
}

// PartitionGroups cuts every link between nodes of different groups,
// leaving links within a group intact. Nodes absent from every group keep
// all their links.
func (n *Network) PartitionGroups(groups ...[]Addr) {
	for i, g := range groups {
		for _, a := range g {
			for j, h := range groups {
				if i == j {
					continue
				}
				for _, b := range h {
					n.cut[[2]Addr{a, b}] = true
				}
			}
		}
	}
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b Addr) {
	delete(n.cut, [2]Addr{a, b})
	delete(n.cut, [2]Addr{b, a})
}

// HealAll restores every partitioned link.
func (n *Network) HealAll() { clear(n.cut) }

// dropped records one lost message under its cause counter.
func (n *Network) dropped(cause *uint64) {
	n.stats.MessagesDropped++
	*cause++
}

// Send schedules delivery of msg from one node to another. size should
// approximate the wire size for bandwidth accounting; pass 0 if unknown.
func (n *Network) Send(from, to Addr, msg any, size int) {
	n.stats.MessagesSent++
	if n.downed[from] || n.downed[to] {
		n.dropped(&n.stats.DroppedDown)
		return
	}
	if n.cut[[2]Addr{from, to}] {
		n.dropped(&n.stats.DroppedCut)
		return
	}
	loss := n.dropRate
	if p, ok := n.linkDrop[[2]Addr{from, to}]; ok && p > loss {
		loss = p
	}
	if loss > 0 && n.rng.Float64() < loss {
		n.dropped(&n.stats.DroppedLoss)
		return
	}
	delay := n.latency(from, to, n.rng)
	if delay < 0 {
		delay = 0
	}
	at := n.now + delay
	n.push(at, func() { n.deliver(from, to, msg, size) })
}

// deliver hands a message to its destination, modelling receiver CPU as a
// busy server when a processing cost is configured.
func (n *Network) deliver(from, to Addr, msg any, size int) {
	if n.downed[to] {
		n.dropped(&n.stats.DroppedDown)
		return
	}
	if n.cut[[2]Addr{from, to}] {
		// The link was cut after the message left: in flight, now lost.
		n.dropped(&n.stats.DroppedCut)
		return
	}
	h, ok := n.nodes[to]
	if !ok {
		n.dropped(&n.stats.DroppedNoDest)
		return
	}
	if n.procCost > 0 {
		if busy := n.busyUntil[to]; busy > n.now {
			// Receiver is mid-message: requeue at its free time.
			n.push(busy, func() { n.deliver(from, to, msg, size) })
			return
		}
		n.busyUntil[to] = n.now + n.procCost
	}
	n.stats.MessagesDelivered++
	n.stats.BytesDelivered += uint64(size)
	n.perNodeBytes[to] += uint64(size)
	h.HandleMessage(from, msg, size)
}

// Timer is a cancellable scheduled callback.
type Timer struct {
	cancelled bool
	fired     bool
}

// Cancel prevents the timer from firing; safe after firing.
func (t *Timer) Cancel() { t.cancelled = true }

// Fired reports whether the callback has run.
func (t *Timer) Fired() bool { return t.fired }

// Cancelled reports whether Cancel was called. Exported so other Env
// implementations (internal/transport's real-time loop) can honor
// cancellation of the timers they hand out; all accesses must happen under
// the environment's serialization (the simulator's single thread, or the
// real-time loop's mutex).
func (t *Timer) Cancelled() bool { return t.cancelled }

// MarkFired records that the callback ran, for external Env
// implementations. Same serialization requirement as Cancelled.
func (t *Timer) MarkFired() { t.fired = true }

// After schedules fn to run at now+d on behalf of owner (timers of downed
// nodes are suppressed). It returns a cancellable handle.
func (n *Network) After(owner Addr, d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{}
	n.push(n.now+d, func() {
		if t.cancelled || n.downed[owner] {
			return
		}
		t.fired = true
		n.stats.TimersFired++
		fn()
	})
	return t
}

// Defer schedules fn to run immediately after the current event completes,
// still in deterministic order. Useful for breaking re-entrancy.
func (n *Network) Defer(fn func()) {
	n.push(n.now, fn)
}

func (n *Network) push(at time.Duration, fn func()) {
	n.seq++
	heap.Push(&n.queue, &event{at: at, seq: n.seq, deliver: fn})
}

// Step processes the single next event. It reports false when the queue is
// empty.
func (n *Network) Step() bool {
	if n.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&n.queue).(*event)
	if e.at > n.now {
		n.now = e.at
	}
	e.deliver()
	return true
}

// RunUntil processes events until virtual time exceeds deadline or the queue
// drains. Events at exactly deadline are processed.
func (n *Network) RunUntil(deadline time.Duration) {
	for n.queue.Len() > 0 && n.queue[0].at <= deadline {
		n.Step()
	}
	if n.now < deadline {
		n.now = deadline
	}
}

// RunFor advances virtual time by d.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.now + d) }

// RunUntilIdle processes events until none remain or maxEvents is hit,
// returning the number processed. A maxEvents of 0 means no limit.
func (n *Network) RunUntilIdle(maxEvents int) int {
	count := 0
	for n.Step() {
		count++
		if maxEvents > 0 && count >= maxEvents {
			break
		}
	}
	return count
}

// Pending returns the number of queued events.
func (n *Network) Pending() int { return n.queue.Len() }

// String summarizes the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%v nodes=%d pending=%d sent=%d delivered=%d dropped=%d}",
		n.now, len(n.nodes), n.queue.Len(), n.stats.MessagesSent,
		n.stats.MessagesDelivered, n.stats.MessagesDropped)
}
