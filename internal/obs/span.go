package obs

import (
	"sort"
	"sync"
	"time"
)

// Causal span tracing. Where the event Recorder answers "what did the
// protocol do on slot N", the Tracer answers "where did the time go":
// hierarchical spans follow a transaction through its whole lifecycle
// (submit → pending queue → nomination candidate → balloting → apply →
// bucket merge → archive) and a slot through its consensus phases. The
// store exports as a stellar-trace-export/v1 document (spanctx.go), which
// collect.Merge renders as Chrome trace-event JSON for Perfetto.
//
// Design constraints:
//
//   - Zero overhead when disabled. A nil *Tracer yields nil *Proc and nil
//     *Span handles whose methods return immediately; the consensus hot
//     path calls them unconditionally.
//   - Clock injection. The simulation stamps spans with simnet virtual
//     time; stellar-node uses wall time. Real-compute phases inside a
//     virtually-instantaneous handler (apply, bucket merge) are recorded
//     with explicitly measured wall durations via CompleteChild/EndAfter
//     and laid out sequentially inside their parent.
//   - Bounded memory. The tracer stops recording new spans past its
//     limit and counts the drops instead of growing without bound.

// Span names used by the herder/ledger instrumentation. Keeping them in
// one place makes the trace schema greppable.
const (
	SpanSlot         = "slot"           // nomination start → ledger applied
	SpanTrigger      = "trigger"        // trigger timer fire → scp.Nominate returns (wall-measured)
	SpanNomination   = "nomination"     // nomination start → first prepare
	SpanBalloting    = "balloting"      // first prepare → externalize
	SpanPrepare      = "ballot-prepare" // first prepare → accept commit
	SpanCommit       = "ballot-commit"  // accept commit → externalize
	SpanApply        = "apply"          // externalize → state/bucket/archive done
	SpanSigPrepass   = "sig-prepass"    // parallel signature verification prepass
	SpanTxApply      = "tx-apply"       // transaction execution
	SpanBucketMerge  = "bucket-merge"   // bucket list ingestion + spills
	SpanArchive      = "archive"        // history archive writes
	SpanTx           = "tx"             // per-transaction root: submit → applied
	SpanTxSubmit     = "submit"         // client submission
	SpanTxAdmit      = "admit"          // mempool admission decision marker
	SpanTxPending    = "pending"        // pending pool wait until candidate selection
	SpanTxConsensus  = "consensus"      // candidate selection → externalize
	SpanTxApplied    = "applied"        // the tx's share of the apply phase
	SpanRecvEnvelope = "recv-envelope"  // a peer's SCP envelope for an open slot arrived
	SpanRecvTxSet    = "recv-txset"     // a peer's tx-set reference arrived
)

// DefaultSpanCapacity bounds a tracer's memory (~120 B/span).
const DefaultSpanCapacity = 1 << 17

// spanRec is one finished (or force-flushed) span.
type spanRec struct {
	id, parent uint64
	// trace is the causal tree the span belongs to: the id of the root
	// span that started it, carried across process boundaries so a
	// cluster merge can group one transaction's spans from every node.
	trace uint64
	// remoteParent is the id of a parent span recorded by ANOTHER
	// process's tracer (propagated over the overlay wire); 0 when the
	// parent is local or the span is a true root. origin names the node
	// that owns the remote parent.
	remoteParent uint64
	origin       string
	proc         int
	track        string
	name         string
	start, end   time.Duration
	args         []spanArg
	open         bool // still running at export time
}

type spanArg struct{ key, value string }

type flowRec struct{ from, to uint64 }

// Tracer records spans from any number of processes (nodes). All methods
// are safe for concurrent use and safe on a nil receiver (the disabled
// fast path).
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Duration
	limit   int
	idBase  uint64
	nextID  uint64
	done    []spanRec
	open    map[uint64]*Span
	flows   []flowRec
	dropped uint64
	procs   []string
	procIdx map[string]int
	// epochUnix anchors the tracer's clock to absolute wall time (unix
	// nanoseconds at clock zero); 0 means the clock is virtual and spans
	// from this tracer cannot be skew-aligned against other processes.
	epochUnix int64
}

// NewTracer creates a tracer stamping spans with the given clock (nil
// selects a wall clock anchored at construction; that anchor is recorded
// as the tracer's absolute epoch so independent processes can be merged).
func NewTracer(clock func() time.Duration) *Tracer {
	var epochUnix int64
	if clock == nil {
		epoch := time.Now()
		epochUnix = epoch.UnixNano()
		clock = func() time.Duration { return time.Since(epoch) }
	}
	return &Tracer{
		clock:     clock,
		limit:     DefaultSpanCapacity,
		open:      make(map[uint64]*Span),
		procIdx:   make(map[string]int),
		epochUnix: epochUnix,
	}
}

// SetIDBase namespaces this tracer's span ids by OR-ing base into every
// id it allocates. Independent processes whose traces will be merged into
// one cluster trace must use distinct bases (derived from the node's
// public key), so span ids — and therefore parent and flow references —
// stay unique across the merged set. In-process multi-node tracers (the
// simulator shares one tracer) need no base and keep small sequential
// ids, preserving byte-identical trace output for seeded runs.
func (t *Tracer) SetIDBase(base uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idBase = base
}

// SetLimit bounds the number of recorded spans (≤ 0 restores the default).
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultSpanCapacity
	}
	t.limit = n
}

// Dropped reports how many spans were discarded at the capacity limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Now exposes the tracer's clock (zero on a nil tracer).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Proc registers (or finds) a named process — one traced node. A nil
// tracer returns a nil Proc whose methods all no-op.
func (t *Tracer) Proc(name string) *Proc {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.procIdx[name]
	if !ok {
		idx = len(t.procs)
		t.procs = append(t.procs, name)
		t.procIdx[name] = idx
	}
	return &Proc{t: t, idx: idx}
}

// Proc is a span factory bound to one process.
type Proc struct {
	t   *Tracer
	idx int
}

// Tracer returns the owning tracer (nil for a nil proc).
func (p *Proc) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.t
}

// Span starts a root span on the given track. Tracks become Perfetto
// threads; spans sharing a track should nest in time.
func (p *Proc) Span(track, name string) *Span {
	if p == nil {
		return nil
	}
	return p.t.start(p.idx, 0, nil, track, name)
}

// RemoteSpan starts a local root span that continues a causal tree begun
// by another process: ctx carries the originating trace id and the parent
// span id extracted from an overlay packet. The new span joins ctx's
// trace, and exports (single-process and merged) render the remote parent
// link as a cross-process flow arrow wherever both endpoints are present.
func (p *Proc) RemoteSpan(track, name string, ctx TraceContext) *Span {
	if p == nil {
		return nil
	}
	return p.t.startCtx(p.idx, 0, nil, track, name, ctx)
}

// Span is one in-progress interval. All methods are nil-safe.
type Span struct {
	t        *Tracer
	parentSp *Span
	rec      spanRec
	// frontier is the furthest end time among finished children, used to
	// lay out explicitly-measured children sequentially and to keep the
	// parent's end past its children's.
	frontier time.Duration
	ended    bool
}

func (t *Tracer) start(proc int, parent uint64, parentSp *Span, track, name string) *Span {
	return t.startCtx(proc, parent, parentSp, track, name, TraceContext{})
}

// startCtx is start plus a remote trace context: when ctx carries a
// parent from another process, the new span becomes a local root that
// remembers its cross-process ancestry.
func (t *Tracer) startCtx(proc int, parent uint64, parentSp *Span, track, name string, ctx TraceContext) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.done)+len(t.open) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	id := t.idBase | t.nextID
	trace := ctx.Trace
	if parentSp != nil {
		trace = parentSp.rec.trace
	}
	if trace == 0 {
		trace = id // a true root starts its own causal tree
	}
	start := t.clock()
	s := &Span{
		t:        t,
		parentSp: parentSp,
		rec: spanRec{
			id: id, parent: parent, trace: trace,
			remoteParent: ctx.Parent, origin: ctx.Origin,
			proc: proc, track: track, name: name, start: start,
		},
		frontier: start,
	}
	t.open[s.rec.id] = s
	return s
}

// ID returns the span id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.id
}

// Child starts a sub-span on the same track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s.rec.proc, s.rec.id, s, s.rec.track, name)
}

// ChildOn starts a sub-span on another track of the same process (the
// exporter draws a flow arrow for cross-track parent links).
func (s *Span) ChildOn(track, name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s.rec.proc, s.rec.id, s, track, name)
}

// Arg attaches a key/value annotation.
func (s *Span) Arg(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.rec.args = append(s.rec.args, spanArg{key, value})
	s.t.mu.Unlock()
}

// CompleteChild records an already-measured child of dur length, laid out
// at the parent's frontier (after the last finished child). This is how
// real-compute phases inside a virtually-instantaneous event are traced:
// the caller measures wall-clock durations and the spans stack up
// sequentially from the parent's start, mirroring execution order.
func (s *Span) CompleteChild(name string, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.done)+len(t.open) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	start := s.frontier
	rec := spanRec{
		id: t.idBase | t.nextID, parent: s.rec.id, trace: s.rec.trace,
		proc:  s.rec.proc,
		track: s.rec.track, name: name, start: start, end: start + dur,
	}
	s.frontier = rec.end
	t.done = append(t.done, rec)
	return &Span{t: t, rec: rec, ended: true}
}

// End finishes the span at the clock (never before its children).
func (s *Span) End() { s.endAt(-1) }

// EndAfter finishes the span dur after its start — for spans whose real
// duration was measured on a different clock than the tracer's.
func (s *Span) EndAfter(dur time.Duration) {
	if dur < 0 {
		dur = 0
	}
	if s != nil {
		s.endAt(s.rec.start + dur)
	}
}

func (s *Span) endAt(end time.Duration) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	if end < 0 {
		end = t.clock()
	}
	if end < s.frontier {
		end = s.frontier // contain finished children
	}
	if end < s.rec.start {
		end = s.rec.start
	}
	s.rec.end = end
	// Propagate so the parent's frontier (and eventual end) covers us.
	for p := s.parentSp; p != nil; p = p.parentSp {
		if p.ended || end <= p.frontier {
			break
		}
		p.frontier = end
	}
	delete(t.open, s.rec.id)
	t.done = append(t.done, s.rec)
}

// Flow records a causal arrow between two spans (e.g. a transaction's
// consensus span into the slot's apply span). Nil spans are ignored.
func (t *Tracer) Flow(from, to *Span) {
	if t == nil || from == nil || to == nil {
		return
	}
	t.mu.Lock()
	t.flows = append(t.flows, flowRec{from.rec.id, to.rec.id})
	t.mu.Unlock()
}

// snapshot copies all recorded spans, appending still-open spans as
// running up to the current clock.
func (t *Tracer) snapshot() ([]spanRec, []flowRec, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	spans := append([]spanRec(nil), t.done...)
	for _, s := range t.open {
		rec := s.rec
		rec.end = now
		if rec.end < rec.start {
			rec.end = rec.start
		}
		rec.open = true
		spans = append(spans, rec)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
	return spans, append([]flowRec(nil), t.flows...), append([]string(nil), t.procs...)
}
