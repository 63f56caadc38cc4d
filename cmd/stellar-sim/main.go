// Command stellar-sim runs a simulated Stellar network — full validators
// (SCP + ledger + overlay) on the discrete-event simulator — and prints
// per-ledger statistics, the equivalent of watching a small private
// network of stellar-core nodes close ledgers.
//
// Usage:
//
//	stellar-sim -validators 4 -accounts 10000 -rate 100 -duration 60s
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/obs"
	"stellar/internal/obs/collect"
)

func main() {
	validators := flag.Int("validators", 4, "number of validator nodes")
	accounts := flag.Int("accounts", 10_000, "synthetic accounts in the ledger")
	rate := flag.Float64("rate", 100, "offered load, transactions per second")
	duration := flag.Duration("duration", 60*time.Second, "virtual time to simulate")
	interval := flag.Duration("interval", 5*time.Second, "target ledger interval")
	dropRate := flag.Float64("drop", 0, "message drop probability [0,1)")
	seed := flag.Int64("seed", 42, "deterministic simulation seed")
	archive := flag.String("archive", "", "directory for a history archive (optional)")
	verbose := flag.Bool("v", false, "structured per-node logging to stderr")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
	flag.Parse()

	opts := experiments.Options{
		Validators:     *validators,
		Accounts:       *accounts,
		TxRate:         *rate,
		LedgerInterval: *interval,
		DropRate:       *dropRate,
		Seed:           *seed,
		ArchiveDirFor:  experiments.ArchiveAt(*archive),
		Trace:          *tracePath != "",
	}
	if *verbose {
		root := obs.NewLogger(os.Stderr, slog.LevelDebug)
		opts.Obs = func(i int) *obs.Obs {
			return &obs.Obs{Log: root.With(slog.Int("node", i))}
		}
	}
	fmt.Printf("building network: %d validators, %d accounts, %.0f tx/s, %v ledgers\n",
		*validators, *accounts, *rate, *interval)
	s, err := experiments.Build(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}

	// Report progress from the first validator's perspective.
	node := s.Nodes[0]
	lastSeq := node.LastHeader().LedgerSeq

	s.Start()
	ticks := int(*duration / *interval)
	for i := 0; i < ticks; i++ {
		s.Run(*interval)
		h := node.LastHeader()
		if h.LedgerSeq == lastSeq {
			continue
		}
		lastSeq = h.LedgerSeq
		m := experiments.Summarize(s.Records[0])
		fmt.Printf("ledger %4d  t=%-8v  tx/ledger=%4.0f  nominate=%6.1fms  ballot=%6.1fms  apply=%6.2fms  pending=%d\n",
			h.LedgerSeq, s.Net.Now().Truncate(time.Millisecond),
			m.TxPerLedger.Mean(), ms(m.Nomination), ms(m.Balloting), ms(m.LedgerUpdate),
			node.PendingCount())
	}
	s.Stop()

	if err := s.CheckAgreement(); err != nil {
		fmt.Fprintf(os.Stderr, "SAFETY VIOLATION: %v\n", err)
		os.Exit(1)
	}
	m := s.Summary()
	fmt.Printf("\nsummary over %d ledger-samples (all validators):\n", m.CloseInterval.N())
	fmt.Printf("  close interval: mean %.2fs  p99 %.2fs\n",
		time.Duration(m.CloseInterval.Mean()).Seconds(), m.CloseInterval.Percentile(99).Seconds())
	fmt.Printf("  nomination:     mean %v  p99 %v\n", time.Duration(m.Nomination.Mean()), m.Nomination.Percentile(99))
	fmt.Printf("  balloting:      mean %v  p99 %v\n", time.Duration(m.Balloting.Mean()), m.Balloting.Percentile(99))
	fmt.Printf("  ledger update:  mean %v  p99 %v\n", time.Duration(m.LedgerUpdate.Mean()), m.LedgerUpdate.Percentile(99))
	fmt.Printf("  tx per ledger:  mean %.1f  max %d\n", m.TxPerLedger.Mean(), m.TxPerLedger.Max())
	fmt.Printf("  msgs per ledger per validator: mean %.1f\n", m.MessagesEmitted.Mean())
	vs := node.Verifier().Cache.Stats()
	ps := node.Verifier().Pool.Stats()
	fmt.Printf("  verify cache (validator 0): hits %d  misses %d  hit rate %.1f%%  (%d workers)\n",
		vs.Hits, vs.Misses, 100*vs.HitRate(), ps.Workers)
	fmt.Printf("  agreement: all %d validators consistent at every ledger\n", len(s.Nodes))

	if *tracePath != "" {
		if err := writeTrace(*tracePath, s.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *tracePath)
	}
}

// writeTrace writes the tracer's spans to path as Chrome trace-event JSON,
// one process per validator.
func writeTrace(path string, tracer *obs.Tracer) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := collect.Merge([]*collect.Scrape{{Export: tracer.Export("stellar-sim")}}, out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ms renders a latency distribution's mean in milliseconds, truncated to the
// microsecond.
func ms(d experiments.Dist[time.Duration]) float64 {
	return float64(time.Duration(d.Mean()).Microseconds()) / 1000
}
