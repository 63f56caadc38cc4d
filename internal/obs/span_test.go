package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// manualClock is a settable virtual clock for tracer tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestTracer() (*Tracer, *manualClock) {
	clk := &manualClock{}
	return NewTracer(clk.Now), clk
}

func TestNilTracerFastPath(t *testing.T) {
	// Every method on the nil path must be callable without panicking and
	// produce nil/zero results.
	var tr *Tracer
	if p := tr.Proc("node"); p != nil {
		t.Fatalf("nil tracer Proc = %v, want nil", p)
	}
	var p *Proc
	if s := p.Span("track", "slot"); s != nil {
		t.Fatalf("nil proc Span = %v, want nil", s)
	}
	if got := p.Tracer(); got != nil {
		t.Fatalf("nil proc Tracer = %v, want nil", got)
	}
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	if c := s.ChildOn("t", "x"); c != nil {
		t.Fatalf("nil span ChildOn = %v, want nil", c)
	}
	if c := s.CompleteChild("x", time.Second); c != nil {
		t.Fatalf("nil span CompleteChild = %v, want nil", c)
	}
	s.Arg("k", "v")
	s.End()
	s.EndAfter(time.Second)
	if id := s.ID(); id != 0 {
		t.Fatalf("nil span ID = %d, want 0", id)
	}
	tr.Flow(nil, nil)
	tr.SetLimit(10)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("nil tracer Dropped = %d, want 0", d)
	}
	if now := tr.Now(); now != 0 {
		t.Fatalf("nil tracer Now = %v, want 0", now)
	}
	var buf bytes.Buffer
	if err := tr.WriteExport(&buf, "n"); err != nil {
		t.Fatalf("nil tracer WriteExport: %v", err)
	}
	if exp, err := DecodeExport(&buf); err != nil || len(exp.Spans) != 0 {
		t.Fatalf("nil tracer export = %+v, %v; want an empty document", exp, err)
	}
}

func TestSpanHierarchyAndClock(t *testing.T) {
	tr, clk := newTestTracer()
	p := tr.Proc("node 1")

	slot := p.Span("consensus", SpanSlot)
	clk.Advance(100 * time.Millisecond)
	nom := slot.Child(SpanNomination)
	clk.Advance(400 * time.Millisecond)
	nom.End()
	bal := slot.Child(SpanBalloting)
	clk.Advance(1500 * time.Millisecond)
	bal.End()
	slot.End()

	spans, _, procs := tr.snapshot()
	if len(procs) != 1 || procs[0] != "node 1" {
		t.Fatalf("procs = %v", procs)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]spanRec{}
	for _, s := range spans {
		byName[s.name] = s
	}
	if got := byName[SpanSlot]; got.start != 0 || got.end != 2*time.Second {
		t.Fatalf("slot span [%v,%v], want [0,2s]", got.start, got.end)
	}
	if got := byName[SpanNomination]; got.start != 100*time.Millisecond || got.end != 500*time.Millisecond {
		t.Fatalf("nomination span [%v,%v]", got.start, got.end)
	}
	if byName[SpanNomination].parent != byName[SpanSlot].id {
		t.Fatalf("nomination parent = %d, want %d", byName[SpanNomination].parent, byName[SpanSlot].id)
	}
	if byName[SpanBalloting].parent != byName[SpanSlot].id {
		t.Fatalf("balloting parent wrong")
	}
}

func TestParentEndCoversChildren(t *testing.T) {
	// A parent ended "before" a child's explicitly measured end must be
	// stretched to contain it (CompleteChild lays out wall-measured work
	// inside a virtually instantaneous parent).
	tr, clk := newTestTracer()
	p := tr.Proc("n")
	apply := p.Span("consensus", SpanApply)
	apply.CompleteChild(SpanSigPrepass, 3*time.Millisecond)
	apply.CompleteChild(SpanTxApply, 7*time.Millisecond)
	mrg := apply.CompleteChild(SpanBucketMerge, 2*time.Millisecond)
	if mrg == nil {
		t.Fatal("CompleteChild returned nil on live tracer")
	}
	clk.Advance(time.Microsecond) // virtual clock barely moves
	apply.End()

	spans, _, _ := tr.snapshot()
	byName := map[string]spanRec{}
	for _, s := range spans {
		byName[s.name] = s
	}
	// Children laid out sequentially from the parent's start.
	if got := byName[SpanSigPrepass]; got.start != 0 || got.end != 3*time.Millisecond {
		t.Fatalf("prepass [%v,%v]", got.start, got.end)
	}
	if got := byName[SpanTxApply]; got.start != 3*time.Millisecond || got.end != 10*time.Millisecond {
		t.Fatalf("tx-apply [%v,%v]", got.start, got.end)
	}
	if got := byName[SpanBucketMerge]; got.start != 10*time.Millisecond || got.end != 12*time.Millisecond {
		t.Fatalf("bucket-merge [%v,%v]", got.start, got.end)
	}
	// Parent stretched over all children despite the clock reading ~0.
	if got := byName[SpanApply]; got.end != 12*time.Millisecond {
		t.Fatalf("apply end = %v, want 12ms", got.end)
	}
}

func TestEndAfter(t *testing.T) {
	tr, clk := newTestTracer()
	p := tr.Proc("n")
	clk.Advance(time.Second)
	s := p.Span("t", "work")
	s.EndAfter(250 * time.Millisecond)
	spans, _, _ := tr.snapshot()
	if spans[0].start != time.Second || spans[0].end != 1250*time.Millisecond {
		t.Fatalf("span [%v,%v]", spans[0].start, spans[0].end)
	}
	// Negative duration clamps to zero-length.
	s2 := p.Span("t", "neg")
	s2.EndAfter(-time.Second)
	spans, _, _ = tr.snapshot()
	for _, sp := range spans {
		if sp.name == "neg" && sp.end != sp.start {
			t.Fatalf("neg span [%v,%v]", sp.start, sp.end)
		}
	}
}

func TestChildEndPropagatesThroughAncestors(t *testing.T) {
	tr, _ := newTestTracer()
	p := tr.Proc("n")
	root := p.Span("t", "root")
	mid := root.Child("mid")
	leaf := mid.Child("leaf")
	leaf.EndAfter(time.Second)
	mid.End()
	root.End()
	spans, _, _ := tr.snapshot()
	for _, sp := range spans {
		if sp.end != time.Second {
			t.Fatalf("%s ends at %v, want 1s", sp.name, sp.end)
		}
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr, clk := newTestTracer()
	p := tr.Proc("n")
	s := p.Span("t", "x")
	clk.Advance(time.Second)
	s.End()
	clk.Advance(time.Second)
	s.End() // must not re-record or move the end
	spans, _, _ := tr.snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans after double End", len(spans))
	}
	if spans[0].end != time.Second {
		t.Fatalf("end moved to %v", spans[0].end)
	}
}

func TestSpanLimitDropsAndCounts(t *testing.T) {
	tr, _ := newTestTracer()
	tr.SetLimit(2)
	p := tr.Proc("n")
	a := p.Span("t", "a")
	b := p.Span("t", "b")
	c := p.Span("t", "c") // over limit
	if c != nil {
		t.Fatalf("span over limit = %v, want nil", c)
	}
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	// Nil-safe chaining keeps working off the dropped span.
	c.Child("x").End()
	a.End()
	b.End()
}

func TestOpenSpansExportAsUnfinished(t *testing.T) {
	tr, clk := newTestTracer()
	p := tr.Proc("n")
	p.Span("t", "hanging")
	clk.Advance(time.Second)
	exp := tr.Export("n")
	if len(exp.Spans) != 1 || !exp.Spans[0].Open || exp.Spans[0].EndNanos != int64(time.Second) {
		t.Fatalf("open span exported as %+v, want open and running to now", exp.Spans)
	}
}

func TestTracerConcurrency(t *testing.T) {
	// A stellar-node shares its tracer between the event loop and
	// horizon's handlers; hammer it.
	tr, _ := newTestTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := tr.Proc("node")
			for i := 0; i < 200; i++ {
				s := p.Span("t", "work")
				c := s.Child("sub")
				c.Arg("i", "x")
				s.CompleteChild("measured", time.Millisecond)
				c.End()
				s.End()
			}
		}(g)
	}
	wg.Wait()
	if exp := tr.Export("n"); len(exp.Spans) == 0 {
		t.Fatal("no spans exported")
	}
}
