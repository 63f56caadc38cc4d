package collect

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"stellar/internal/obs"
)

// Benchmark telemetry: the schema-versioned BENCH_micro.json document the
// microbenchmarks publish, plus the trace math that turns a merged cluster
// trace into the paper's §7.3 submit→applied latency.

// BenchSchema versions BENCH_micro.json.
const BenchSchema = "stellar-bench/v1"

// MicroBench is one `go test -bench` result row.
type MicroBench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds b.ReportMetric custom units (e.g. "ops/s",
	// "sched-speedup") keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchReport is the BENCH_micro.json document.
type BenchReport struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"` // "micro"
	// GeneratedUnix stamps the run (unix seconds).
	GeneratedUnix int64        `json:"generated_unix,omitempty"`
	Micro         []MicroBench `json:"micro,omitempty"`
}

// WriteBench writes the report as indented JSON (committed artifacts diff
// cleanly).
func WriteBench(w io.Writer, r *BenchReport) error {
	r.Schema = BenchSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseGoBench parses `go test -bench` output into micro rows. Result
// lines look like
//
//	BenchmarkSCPRound-8   100   11438775 ns/op   57.2 MB/s   1024 B/op   12 allocs/op
//
// with every column after the iteration count an optional "value unit"
// pair; non-benchmark lines (PASS, ok, goos, logs) are skipped.
func ParseGoBench(r io.Reader) ([]MicroBench, error) {
	var rows []MicroBench
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		// Strip the -GOMAXPROCS suffix go appends to the benchmark name.
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		row := MicroBench{Name: name, Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				row.NsPerOp = v
			case "MB/s":
				row.MBPerSec = v
			case "B/op":
				row.BytesPerOp = int64(v)
			case "allocs/op":
				row.AllocsPerOp = int64(v)
			default:
				if row.Extra == nil {
					row.Extra = make(map[string]float64)
				}
				row.Extra[f[i+1]] = v
			}
		}
		if row.NsPerOp > 0 {
			rows = append(rows, row)
		}
	}
	return rows, sc.Err()
}

// TraceLatencies extracts per-transaction submit→applied latencies from
// scraped exports: for each causal tree rooted at a submitted tx, the
// originating root's start to the latest applied-phase end on any node.
// Returns the samples (seconds) and how many trees crossed processes.
func TraceLatencies(scrapes []*Scrape) (samples []float64, crossNode int) {
	spans, _, _ := align(scrapes)
	type agg struct {
		rootStart  int64
		hasRoot    bool
		appliedEnd int64
		hasApplied bool
		nodes      map[int]bool
	}
	trees := make(map[uint64]*agg)
	tree := func(id uint64) *agg {
		a := trees[id]
		if a == nil {
			a = &agg{nodes: make(map[int]bool)}
			trees[id] = a
		}
		return a
	}
	for i := range spans {
		sp := &spans[i]
		a := tree(sp.Trace)
		a.nodes[sp.pid] = true
		switch sp.Name {
		case obs.SpanTx:
			// The originating root is the tx span with no remote parent.
			if sp.RemoteParent == 0 && (!a.hasRoot || sp.absStart < a.rootStart) {
				a.rootStart, a.hasRoot = sp.absStart, true
			}
		case obs.SpanTxApplied:
			if !sp.Open && (!a.hasApplied || sp.absEnd > a.appliedEnd) {
				a.appliedEnd, a.hasApplied = sp.absEnd, true
			}
		}
	}
	for _, a := range trees {
		if len(a.nodes) >= 2 {
			crossNode++
		}
		if a.hasRoot && a.hasApplied && a.appliedEnd >= a.rootStart {
			samples = append(samples, float64(a.appliedEnd-a.rootStart)/1e9)
		}
	}
	sort.Float64s(samples)
	return samples, crossNode
}
