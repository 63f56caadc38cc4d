package collect

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"stellar/internal/obs"
)

func TestParseTargets(t *testing.T) {
	ts := ParseTargets("http://a:1, node-b=http://b:2 ,,")
	if len(ts) != 2 {
		t.Fatalf("parsed %d targets, want 2", len(ts))
	}
	if ts[0].URL != "http://a:1" {
		t.Errorf("target 0: %+v", ts[0])
	}
	if ts[1].Name != "node-b" || ts[1].URL != "http://b:2" {
		t.Errorf("target 1: %+v", ts[1])
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP herder_ledgers_closed_total ledgers
# TYPE herder_ledgers_closed_total counter
herder_ledgers_closed_total 42
transport_frames_in_total{peer="GA..X"} 10
transport_frames_in_total{peer="GB..Y"} 5
herder_close_interval_seconds_sum 12.5
`
	m, err := ParseMetrics(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("herder_ledgers_closed_total"); !ok || v != 42 {
		t.Errorf("Value = %v,%v, want 42", v, ok)
	}
	if v := m.Sum("transport_frames_in_total"); v != 15 {
		t.Errorf("Sum over labels = %v, want 15", v)
	}
	if v := m.Sum("herder_close_interval_seconds_sum"); v != 12.5 {
		t.Errorf("exact sum = %v, want 12.5", v)
	}
	if v := m.Sum("herder_close_interval_seconds"); v != 0 {
		t.Errorf("family sum must not swallow the _sum-suffixed series: got %v", v)
	}
}

// syntheticScrapes builds two nodes whose clocks disagree by a known
// offset: node B's span continues node A's root across the process
// boundary.
func syntheticScrapes() []*Scrape {
	const (
		epochA = int64(1_000_000_000_000) // node A clock anchor (unix nanos)
		skew   = int64(250_000_000)       // node B runs 250ms fast
	)
	rootID := obs.IDBaseFromString("node-a") | 1
	remoteID := obs.IDBaseFromString("node-b") | 1
	appliedID := obs.IDBaseFromString("node-b") | 2
	a := &obs.Export{
		Schema: obs.ExportSchema, Node: "node-a",
		EpochUnixNanos: epochA,
		Procs:          []string{"node-a"},
		Spans: []obs.ExportSpan{{
			ID: rootID, Trace: rootID, Track: "txs",
			Name: obs.SpanTx, StartNanos: 10_000_000, EndNanos: 700_000_000,
		}},
	}
	b := &obs.Export{
		Schema: obs.ExportSchema, Node: "node-b",
		EpochUnixNanos: epochA + skew, // same real instant, skewed clock
		Procs:          []string{"node-b"},
		Spans: []obs.ExportSpan{
			{
				ID: remoteID, Trace: rootID, RemoteParent: rootID, Origin: "node-a",
				Track: "txs", Name: obs.SpanTx,
				StartNanos: 60_000_000, EndNanos: 600_000_000,
			},
			{
				ID: appliedID, Parent: remoteID, Trace: rootID,
				Track: "txs", Name: obs.SpanTxApplied,
				StartNanos: 500_000_000, EndNanos: 600_000_000,
			},
		},
	}
	now := time.Now()
	return []*Scrape{
		{Target: Target{Name: "node-a", URL: "test://a"}, Export: a, FetchedAt: now},
		{Target: Target{Name: "node-b", URL: "test://b"}, Export: b, OffsetNanos: skew, FetchedAt: now},
	}
}

func TestMergeAlignsAndLinks(t *testing.T) {
	scrapes := syntheticScrapes()
	var buf bytes.Buffer
	stats, err := Merge(scrapes, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Lossless() || stats.SpansIn != 3 {
		t.Fatalf("stats %+v: want lossless with 3 spans", stats)
	}
	if stats.Nodes != 2 || stats.CrossLinks != 1 || stats.Unresolved != 0 {
		t.Fatalf("stats %+v: want 2 nodes, 1 cross link, 0 unresolved", stats)
	}
	if stats.MaxOffsetNanos != 250_000_000 {
		t.Fatalf("max offset %d, want the injected 250ms skew", stats.MaxOffsetNanos)
	}

	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("merged trace not JSON: %v", err)
	}
	// Offset correction puts node B's remote span 50ms after node A's
	// root (60ms on a clock 250ms fast + its later epoch ... net +50ms in
	// the collector frame), not 300ms.
	var rootTs, remoteTs float64 = -1, -1
	pids := map[int]bool{}
	flows := 0
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X":
			pids[ev.Pid] = true
			if ev.Name == obs.SpanTx && ev.Args["remote_parent"] == "" {
				rootTs = ev.Ts
			}
			if ev.Args["remote_parent"] != "" {
				remoteTs = ev.Ts
				if ev.Args["origin"] != "node-a" {
					t.Errorf("remote span origin %q", ev.Args["origin"])
				}
			}
		case "s":
			flows++
		}
	}
	if len(pids) != 2 {
		t.Errorf("merged trace has %d pids, want 2", len(pids))
	}
	if flows == 0 {
		t.Error("no flow arrows in merged trace")
	}
	// ts is microseconds rebased to the earliest span (the root at 0).
	if rootTs != 0 {
		t.Errorf("root ts %v, want 0 after rebase", rootTs)
	}
	if remoteTs < 299_999 || remoteTs > 300_001 {
		// Without correction the remote span would land at 60ms - 10ms +
		// 250ms skew = 300ms; WITH correction it lands at 50ms. The skew
		// is subtracted, so we want 50ms here.
		if remoteTs < 49_999 || remoteTs > 50_001 {
			t.Errorf("remote span ts %vµs, want ~50000µs (skew-corrected)", remoteTs)
		}
	} else {
		t.Errorf("remote span ts %vµs sits at the UNcorrected position", remoteTs)
	}
}

func TestMergeUnresolvedRemoteParent(t *testing.T) {
	scrapes := syntheticScrapes()[1:] // drop node A: the remote parent vanishes
	var buf bytes.Buffer
	stats, err := Merge(scrapes, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unresolved != 1 || stats.CrossLinks != 0 {
		t.Fatalf("stats %+v: want 1 unresolved, 0 cross links", stats)
	}
}

// mergeOne renders one tracer's export as the simulator does, and decodes
// the events.
func mergeOne(t *testing.T, tr *obs.Tracer) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Merge([]*Scrape{{Export: tr.Export("sim")}}, &buf); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	return out.TraceEvents
}

func TestMergeChromeTraceFormat(t *testing.T) {
	var now time.Duration
	tr := obs.NewTracer(func() time.Duration { return now })
	node := tr.Proc("node 1")

	slot := node.Span("consensus", obs.SpanSlot)
	slot.Arg("seq", "2")
	tx := node.Span("tx 00aa", obs.SpanTx)
	pending := tx.Child(obs.SpanTxPending)
	now += time.Second
	pending.End()
	tr.Flow(pending, slot)
	cons := tx.Child(obs.SpanTxConsensus)
	now += 4 * time.Second
	cons.End()
	tx.End()
	slot.End()
	node.Span("consensus", "hanging")

	var xEvents, meta, flowS, flowF int
	var slotEv, pendingEv, openEv bool
	for _, ev := range mergeOne(t, tr) {
		switch ev.Ph {
		case "X":
			xEvents++
			if ev.Pid != 1 {
				t.Fatalf("X event pid = %d, want 1", ev.Pid)
			}
			if ev.Args["id"] == "" {
				t.Fatalf("X event %q missing span id arg", ev.Name)
			}
			switch ev.Name {
			case obs.SpanSlot:
				slotEv = true
				if ev.Args["seq"] != "2" || *ev.Dur != 5e6 {
					t.Fatalf("slot args %v dur %v µs, want seq 2 and 5e6", ev.Args, *ev.Dur)
				}
			case obs.SpanTxPending:
				pendingEv = true
				if ev.Args["parent"] == "" || *ev.Dur != 1e6 {
					t.Fatalf("pending args %v dur %v µs, want a parent and 1e6", ev.Args, *ev.Dur)
				}
			case "hanging":
				openEv = ev.Args["unfinished"] == "true"
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
	if xEvents != 5 || !slotEv || !pendingEv {
		t.Fatalf("%d X events (slot %v, pending %v), want 5 with both", xEvents, slotEv, pendingEv)
	}
	if !openEv {
		t.Fatal("open span not marked unfinished")
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

// The simulator's validators share one tracer, one proc each: every proc
// becomes its own process, named after it.
func TestMergeGivesEachProcItsOwnPid(t *testing.T) {
	tr := obs.NewTracer(func() time.Duration { return 0 })
	tr.Proc("node a").Span("consensus", obs.SpanSlot).End()
	tr.Proc("node b").Span("consensus", obs.SpanSlot).End()
	pids := map[int]bool{}
	names := map[int]string{}
	for _, ev := range mergeOne(t, tr) {
		switch {
		case ev.Ph == "X":
			pids[ev.Pid] = true
		case ev.Name == "process_name":
			names[ev.Pid] = ev.Args["name"]
		}
	}
	if !pids[1] || !pids[2] || names[1] != "node a" || names[2] != "node b" {
		t.Fatalf("pids %v named %v, want 1 = node a and 2 = node b", pids, names)
	}
}

func TestTraceLatencies(t *testing.T) {
	samples, crossNode := TraceLatencies(syntheticScrapes())
	if crossNode != 1 {
		t.Fatalf("crossNode = %d, want 1", crossNode)
	}
	if len(samples) != 1 {
		t.Fatalf("samples = %v, want one", samples)
	}
	// On the aligned timeline both epochs denote the same true instant
	// (node B's wall anchor reads 250ms fast, and the offset correction
	// cancels exactly that). Root starts at +10ms, applied ends at
	// +600ms: latency 590ms.
	if samples[0] < 0.589 || samples[0] > 0.591 {
		t.Errorf("latency %v, want ~0.590s", samples[0])
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkSCPRound-8         	     100	  11438775 ns/op	    1024 B/op	      12 allocs/op
BenchmarkVerifyTxSet        	      50	     22000 ns/op	   57.20 MB/s
BenchmarkApplyTxSetParallel/disjoint/workers=8         	      20	   1500000 ns/op	     14000 ops/s	         8.000 sched-speedup
some log line
PASS
ok  	stellar	1.2s
`
	rows, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3", len(rows))
	}
	if rows[0].Name != "BenchmarkSCPRound" || rows[0].NsPerOp != 11438775 ||
		rows[0].BytesPerOp != 1024 || rows[0].AllocsPerOp != 12 {
		t.Errorf("row 0: %+v", rows[0])
	}
	if rows[1].Name != "BenchmarkVerifyTxSet" || rows[1].MBPerSec != 57.2 {
		t.Errorf("row 1: %+v", rows[1])
	}
	if rows[2].Extra["ops/s"] != 14000 || rows[2].Extra["sched-speedup"] != 8 {
		t.Errorf("row 2 custom metrics: %+v", rows[2])
	}
}
