package obs

import (
	"bytes"
	"encoding/json"
	"strings"
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
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer output not JSON: %v", err)
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
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"unfinished":"true"`) {
		t.Fatalf("open span not marked unfinished: %s", buf.String())
	}
}

func TestWriteChromeTraceFormat(t *testing.T) {
	tr, clk := newTestTracer()
	node := tr.Proc("node 1")

	slot := node.Span("consensus", SpanSlot)
	slot.Arg("seq", "2")
	tx := node.Span("tx 00aa", SpanTx)
	pending := tx.Child(SpanTxPending)
	clk.Advance(time.Second)
	pending.End()
	tr.Flow(pending, slot)
	cons := tx.Child(SpanTxConsensus)
	clk.Advance(4 * time.Second)
	cons.End()
	tx.End()
	slot.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			ID   string            `json:"id"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	var xEvents, meta, flowS, flowF int
	var slotEv, pendingEv bool
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			if ev.Pid != 1 {
				t.Fatalf("X event pid = %d, want 1", ev.Pid)
			}
			if ev.Tid == 0 {
				t.Fatalf("X event %q has zero tid", ev.Name)
			}
			if ev.Args["id"] == "" {
				t.Fatalf("X event %q missing span id arg", ev.Name)
			}
			if ev.Name == SpanSlot {
				slotEv = true
				if ev.Args["seq"] != "2" {
					t.Fatalf("slot args = %v", ev.Args)
				}
				if ev.Dur != 5e6 {
					t.Fatalf("slot dur = %v µs, want 5e6", ev.Dur)
				}
			}
			if ev.Name == SpanTxPending {
				pendingEv = true
				if ev.Args["parent"] == "" {
					t.Fatal("pending span missing parent arg")
				}
				if ev.Dur != 1e6 {
					t.Fatalf("pending dur = %v µs, want 1e6", ev.Dur)
				}
			}
		case "M":
			meta++
		case "s":
			flowS++
			if ev.ID == "" {
				t.Fatal("flow start without id")
			}
		case "f":
			flowF++
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	if xEvents != 4 {
		t.Fatalf("got %d X events, want 4", xEvents)
	}
	if !slotEv || !pendingEv {
		t.Fatal("missing slot or pending X event")
	}
	// 1 process_name + 2 thread_name (consensus, tx 00aa) metadata events.
	if meta != 3 {
		t.Fatalf("got %d metadata events, want 3", meta)
	}
	// One explicit Flow call → one s/f pair.
	if flowS != 1 || flowF != 1 {
		t.Fatalf("flow events s=%d f=%d, want 1/1", flowS, flowF)
	}
}

func TestMultiProcessExport(t *testing.T) {
	tr, _ := newTestTracer()
	a := tr.Proc("node a")
	b := tr.Proc("node b")
	sa := a.Span("consensus", SpanSlot)
	sb := b.Span("consensus", SpanSlot)
	sa.End()
	sb.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("pids = %v, want {1,2}", pids)
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
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
