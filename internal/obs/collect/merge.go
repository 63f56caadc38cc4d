package collect

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"stellar/internal/obs"
)

// Merging per-process span stores into one cluster trace.
//
// Clock alignment: every wall-clock tracer exports EpochUnixNanos (the
// absolute time of its clock zero) and span times relative to that epoch.
// Machine clocks disagree, so each node's timestamps are corrected by the
// offset estimated during its scrape (see Scrape.OffsetNanos): a span's
// absolute time in the collector's frame is
//
//	abs = EpochUnixNanos + span.Start − OffsetNanos
//
// and the merged trace rebases everything to the earliest span so Perfetto
// renders from t=0. Span ids are globally unique by construction — each
// process ORs a pubkey-derived base into its ids (Tracer.SetIDBase) — so
// parent links and cross-process remote_parent references survive the
// merge without remapping.

// MergeStats reports what the merge did; the traced-load smoke test fails
// when SpansOut != SpansIn (the merge itself must be lossless) and surfaces
// source-side drops separately (bounded tracers discard past capacity).
type MergeStats struct {
	Nodes           int   `json:"nodes"`
	SpansIn         int   `json:"spans_in"`
	SpansOut        int   `json:"spans_out"`
	DroppedAtSource int64 `json:"dropped_at_source"`
	// CrossLinks counts remote_parent references resolved across two
	// processes; Unresolved counts references whose parent span is in no
	// scraped store (evicted, or the node was unreachable).
	CrossLinks int `json:"cross_links"`
	Unresolved int `json:"unresolved_remote_parents"`
	// MaxOffsetNanos is the largest absolute estimated clock offset —
	// a sanity signal for the alignment quality.
	MaxOffsetNanos int64 `json:"max_offset_nanos"`
}

// Lossless reports whether every scraped span made it into the output.
func (st *MergeStats) Lossless() bool { return st.SpansIn == st.SpansOut }

// chromeEvent mirrors the trace-event JSON Object Format (Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// mergedSpan is one span placed on the collector's aligned timeline.
type mergedSpan struct {
	*obs.ExportSpan
	pid      int // merged-trace process: one per (export, proc) pair
	absStart int64
	absEnd   int64
}

// align flattens the scraped exports onto one absolute timeline. Each
// (export, proc) pair becomes one merged-trace process, so a node's own
// export is one process and the simulator's shared tracer is one per
// node; names[pid-1] labels it: the scrape's name when its export has one
// proc, the proc's name otherwise.
func align(scrapes []*Scrape) (spans []mergedSpan, names []string, stats *MergeStats) {
	stats = &MergeStats{}
	for _, s := range scrapes {
		if s.Err != nil || s.Export == nil {
			continue
		}
		stats.Nodes++
		stats.DroppedAtSource += int64(s.Export.Dropped)
		if off := abs64(s.OffsetNanos); off > stats.MaxOffsetNanos {
			stats.MaxOffsetNanos = off
		}
		first := len(names)
		if procs := s.Export.Procs; len(procs) > 1 {
			names = append(names, procs...)
		} else {
			names = append(names, s.Name())
		}
		base := s.Export.EpochUnixNanos - s.OffsetNanos
		for i := range s.Export.Spans {
			sp := &s.Export.Spans[i]
			stats.SpansIn++
			pid := first + 1
			if sp.Proc > 0 && first+sp.Proc < len(names) {
				pid += sp.Proc
			}
			spans = append(spans, mergedSpan{
				ExportSpan: sp,
				pid:        pid,
				absStart:   base + sp.StartNanos,
				absEnd:     base + sp.EndNanos,
			})
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].absStart != spans[j].absStart {
			return spans[i].absStart < spans[j].absStart
		}
		return spans[i].ID < spans[j].ID
	})
	return spans, names, stats
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Merge renders the scraped span stores as one Perfetto-loadable trace,
// the one Chrome trace writer: a cluster's scrapes, or the simulator's
// single shared-tracer export. Each node becomes a process (pid); its
// tracks become threads. Every remote_parent reference that resolves in
// the merged set gains a flow arrow, which is what makes one
// transaction's lifecycle legible across processes.
func Merge(scrapes []*Scrape, w io.Writer) (*MergeStats, error) {
	spans, names, stats := align(scrapes)

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, name := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]string{"name": name},
		})
	}

	var t0 int64
	if len(spans) > 0 {
		t0 = spans[0].absStart
	}
	usec := func(abs int64) float64 { return float64(abs-t0) / 1e3 }

	type trackKey struct {
		pid   int
		track string
	}
	tids := make(map[trackKey]int)
	byID := make(map[uint64]*mergedSpan, len(spans))
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		key := trackKey{sp.pid, sp.Track}
		if _, ok := tids[key]; !ok {
			tid := len(tids) + 1
			tids[key] = tid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: sp.pid, Tid: tid,
				Args: map[string]string{"name": sp.Track},
			})
		}
	}

	flowSeq := 0
	emitFlow := func(from, to *mergedSpan) {
		flowSeq++
		id := fmt.Sprintf("f%d", flowSeq)
		toTs := usec(to.absStart)
		if from.absStart > to.absStart {
			toTs = usec(from.absStart)
		}
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "flow", Cat: "flow", Ph: "s", Ts: usec(from.absStart),
				Pid: from.pid, Tid: tids[trackKey{from.pid, from.Track}], ID: id},
			chromeEvent{Name: "flow", Cat: "flow", Ph: "f", BP: "e", Ts: toTs,
				Pid: to.pid, Tid: tids[trackKey{to.pid, to.Track}], ID: id},
		)
	}

	for i := range spans {
		sp := &spans[i]
		args := map[string]string{
			"id":    fmt.Sprintf("%d", sp.ID),
			"trace": fmt.Sprintf("%d", sp.Trace),
		}
		if sp.Parent != 0 {
			args["parent"] = fmt.Sprintf("%d", sp.Parent)
		}
		if sp.RemoteParent != 0 {
			args["remote_parent"] = fmt.Sprintf("%d", sp.RemoteParent)
			if sp.Origin != "" {
				args["origin"] = sp.Origin
			}
		}
		for k, v := range sp.Args {
			args[k] = v
		}
		if sp.Open {
			args["unfinished"] = "true"
		}
		end := sp.absEnd
		if end < sp.absStart {
			end = sp.absStart
		}
		dur := float64(end-sp.absStart) / 1e3
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.Name, Cat: sp.Track, Ph: "X",
			Ts: usec(sp.absStart), Dur: &dur,
			Pid: sp.pid, Tid: tids[trackKey{sp.pid, sp.Track}],
			Args: args,
		})
		stats.SpansOut++
		// Cross-track parent arrow.
		if p := byID[sp.Parent]; p != nil && (p.pid != sp.pid || p.Track != sp.Track) {
			emitFlow(p, sp)
		}
		// Cross-process continuation arrow.
		if sp.RemoteParent != 0 {
			if p := byID[sp.RemoteParent]; p != nil {
				emitFlow(p, sp)
				if p.pid != sp.pid {
					stats.CrossLinks++
				}
			} else {
				stats.Unresolved++
			}
		}
	}

	// Explicit per-node flow arrows recorded by the tracers themselves.
	for _, s := range scrapes {
		if s.Err != nil || s.Export == nil {
			continue
		}
		for _, f := range s.Export.Flows {
			from, to := byID[f[0]], byID[f[1]]
			if from != nil && to != nil {
				emitFlow(from, to)
			}
		}
	}

	return stats, json.NewEncoder(w).Encode(&out)
}
