// Package cliutil holds the flag surface shared by the repo's binaries
// (stellar-sim, horizon-demo, stellar-node), so the verification-tuning
// and tracing flags cannot drift apart: one registration point, one help
// string, one trace-writing path.
package cliutil

import (
	"flag"
	"fmt"
	"os"

	"stellar/internal/obs"
)

// CommonFlags is the flag set every binary that builds herder nodes
// shares: signature-verification tuning and span tracing.
type CommonFlags struct {
	// VerifyWorkers sizes the signature verification pool
	// (0 = NumCPU, 1 = sequential); VerifyCache bounds its LRU.
	VerifyWorkers int
	VerifyCache   int
	// TracePath, when non-empty, enables span tracing and names the
	// Chrome trace-event JSON file to write.
	TracePath string
	// TraceLive enables span tracing with no file on exit — the span
	// store is served live over GET /debug/trace/export for the fleet
	// collector (stellar-obs) to scrape.
	TraceLive bool
	// TraceLimit bounds the in-memory span store; drops past capacity
	// are counted in the trace_spans_dropped metric (0 = default cap).
	TraceLimit int
}

// IngressFlags is the submit-pipeline tuning shared by binaries that
// serve the horizon API: mempool bounds and per-client rate limits. The
// zero values keep the defaults (bounded pool, no throttling), so a bare
// invocation behaves exactly as before the pipeline existed.
type IngressFlags struct {
	// MempoolMax caps the pending transaction pool; MempoolPerSource caps
	// one account's share of it (0 = package defaults).
	MempoolMax       int
	MempoolPerSource int
	// SubmitRate/SubmitBurst throttle submissions per source account
	// (tx/sec, 0 = unlimited); SubmitIPRate/SubmitIPBurst do the same per
	// remote IP before the request body is even decoded.
	SubmitRate    float64
	SubmitBurst   int
	SubmitIPRate  float64
	SubmitIPBurst int
}

// Register attaches the ingress flags to fs.
func (f *IngressFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.MempoolMax, "mempool", 0, "pending transaction pool cap (0 = default 8192)")
	fs.IntVar(&f.MempoolPerSource, "mempool-per-source", 0, "pending transactions one account may hold (0 = default 64)")
	fs.Float64Var(&f.SubmitRate, "submit-rate", 0, "per-source-account submission rate in tx/sec (0 = unlimited)")
	fs.IntVar(&f.SubmitBurst, "submit-burst", 0, "per-source-account submission burst (0 = 1 when -submit-rate is set)")
	fs.Float64Var(&f.SubmitIPRate, "submit-ip-rate", 0, "per-remote-IP submission rate in tx/sec (0 = unlimited)")
	fs.IntVar(&f.SubmitIPBurst, "submit-ip-burst", 0, "per-remote-IP submission burst (0 = 1 when -submit-ip-rate is set)")
}

// Register attaches the shared flags to fs (flag.CommandLine in main).
func (f *CommonFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.VerifyWorkers, "verify-workers", 0, "signature verification pool size (0 = NumCPU, 1 = sequential)")
	fs.IntVar(&f.VerifyCache, "verify-cache", 0, "signature verification cache entries (0 = default)")
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
	fs.BoolVar(&f.TraceLive, "trace-live", false, "enable span tracing served over /debug/trace/export without writing a file")
	fs.IntVar(&f.TraceLimit, "trace-limit", 0, "max in-memory spans; excess counted in trace_spans_dropped (0 = default)")
}

// Tracing reports whether span tracing was requested.
func (f *CommonFlags) Tracing() bool { return f.TracePath != "" || f.TraceLive }

// WriteTrace writes the tracer's Chrome trace JSON to the -trace path;
// with -trace-live alone there is no file and this is a no-op.
func (f *CommonFlags) WriteTrace(tracer *obs.Tracer) error {
	if f.TracePath == "" {
		return nil
	}
	out, err := os.Create(f.TracePath)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("\ntrace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", f.TracePath)
	return nil
}
