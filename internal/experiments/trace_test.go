package experiments

import (
	"bytes"
	"testing"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/collect"
)

// TestSimTraceIsAClusterTrace writes a traced simulation the way
// `stellar-sim -trace` does, through collect.Merge, and checks it as
// `stellar-obs tracecheck -lifecycle -cluster` would: every lifecycle phase
// present and parent-linked (archive included, since validator 0
// archives), one process per validator, and the overlay's trace context
// resolving across them.
func TestSimTraceIsAClusterTrace(t *testing.T) {
	opts := smallOpts()
	opts.Trace = true
	opts.ArchiveDirFor = ArchiveAt(t.TempDir())
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(20 * time.Second)
	s.Stop()

	exp := s.Tracer.Export("stellar-sim")
	archived := 0
	for _, sp := range exp.Spans {
		if sp.Name == obs.SpanArchive && !sp.Open {
			archived++
		}
	}
	if archived == 0 {
		t.Fatal("no archive span, though validator 0 archives")
	}
	var buf bytes.Buffer
	stats, err := collect.Merge([]*collect.Scrape{{Export: exp}}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Lossless() || stats.SpansIn == 0 {
		t.Fatalf("merge %+v: want every span out", stats)
	}
	sum, err := collect.CheckTrace(&buf, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Processes != opts.Validators {
		t.Fatalf("%d processes in the trace, want one per validator (%d)", sum.Processes, opts.Validators)
	}
}
