package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stellar/internal/experiments"
)

// cmdTables regenerates every table and figure of the paper's evaluation
// (§7) plus the §6.2 checker measurements, printing the same rows and
// series the paper reports (EXPERIMENTS.md holds the committed run):
//
//	stellar-obs tables -table=all            # everything (minutes)
//	stellar-obs tables -table=fig9 -full     # one figure at paper scale
//	stellar-obs tables -list                 # enumerate tables
//
// It returns the exit code: 1 when an experiment fails, 2 for an unknown
// table.
func cmdTables(args []string) int {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	table := fs.String("table", "all", "table to regenerate (see -list)")
	full := fs.Bool("full", false, "paper-scale sweeps (slow); default is a faithful reduced scale")
	list := fs.Bool("list", false, "list available tables")
	fs.Parse(args)

	if *list {
		for _, t := range tables {
			fmt.Printf("  %-12s %s\n", t.name, t.desc)
		}
		return 0
	}
	ran := false
	for _, t := range tables {
		if *table != "all" && t.name != *table {
			continue
		}
		if t.name == "critical" && *table == "all" {
			continue // qi prints both
		}
		ran = true
		fmt.Printf("\n=== %s — %s ===\n", t.name, t.desc)
		start := time.Now()
		if err := t.run(os.Stdout, *full); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return 1
		}
		fmt.Printf("(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown table %q; use -list\n", *table)
		return 2
	}
	return 0
}

var tables = []struct {
	name string
	desc string
	run  func(w io.Writer, full bool) error
}{
	{"messages", "E1 / §7.2: SCP messages per ledger", runMessages},
	{"fig8", "E2 / Figure 8: timeouts per ledger percentiles", runFig8},
	{"fig9", "E3 / Figure 9: latency vs number of accounts", runFig9},
	{"fig10", "E4 / Figure 10: latency vs transaction load", runFig10},
	{"fig11", "E5 / Figure 11: latency vs number of validators", runFig11},
	{"baseline", "E6 / §7.3: baseline experiment", runBaseline},
	{"closerate", "E7 / §7.3: ledger close rate under sweeps", runCloseRate},
	{"cost", "E8 / §7.4: cost of running a validator", runCost},
	{"qi", "E9 / §6.2.1: quorum intersection checker scaling", runQI},
	{"critical", "E10 / §6.2.2: criticality detection", runQI},
	{"ablation", "DESIGN.md §2: ballot timeout policy ablation", runAblation},
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func printLatencyRows(w io.Writer, rows []experiments.LatencyRow) {
	fmt.Fprintf(w, "%-18s %12s %12s %14s %10s %10s\n",
		"setting", "nominate(ms)", "ballot(ms)", "ledgerupd(ms)", "close(s)", "tx/ledger")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %12.2f %12.2f %14.3f %10.2f %10.1f\n",
			r.Label, ms(r.Nomination), ms(r.Balloting), ms(r.LedgerUpdate),
			r.CloseMean.Seconds(), r.TxPerLedger)
	}
}

func runMessages(w io.Writer, full bool) error {
	ledgers := 20
	if full {
		ledgers = 100
	}
	res, err := experiments.RunMessagesPerLedger(ledgers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper (§7.2): ~7 logical messages per ledger, 6-7 observed\n")
	fmt.Fprintf(w, "measured:     mean %.1f msgs/ledger, max %d, over %d ledger-samples\n",
		res.MeanPerLedger, res.MaxPerLedger, res.Ledgers)
	return nil
}

func runFig8(w io.Writer, full bool) error {
	ledgers := 40
	if full {
		ledgers = 400
	}
	res, err := experiments.RunTimeoutProfile(ledgers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "paper (Fig 8, 68h production): nomination p75=0 p99=1 max=4; balloting p75=0 p99=0 max=1\n")
	fmt.Fprintf(w, "%-12s %6s %6s %6s\n", "percentile", "p75", "p99", "max")
	fmt.Fprintf(w, "%-12s %6d %6d %6d\n", "nomination", res.Nomination75, res.Nomination99, res.NominationMax)
	fmt.Fprintf(w, "%-12s %6d %6d %6d\n", "balloting", res.Balloting75, res.Balloting99, res.BallotingMax)
	fmt.Fprintf(w, "(%d ledger-samples over degraded links)\n", res.Ledgers)
	return nil
}

func runFig9(w io.Writer, full bool) error {
	counts := []int{1_000, 10_000, 100_000}
	ledgers := 8
	if full {
		counts = []int{100_000, 1_000_000, 5_000_000}
		ledgers = 20
	}
	fmt.Fprintln(w, "paper (Fig 9): latency roughly flat from 10^5 to 5·10^7 accounts;")
	fmt.Fprintln(w, "ledger update dominated by bucket merging as accounts grow")
	rows, err := experiments.RunAccountsSweep(counts, ledgers)
	if err != nil {
		return err
	}
	printLatencyRows(w, rows)
	return nil
}

func runFig10(w io.Writer, full bool) error {
	rates := []float64{100, 200, 300}
	accounts := 20_000
	ledgers := 8
	if full {
		rates = []float64{100, 150, 200, 250, 300, 350}
		accounts = 100_000
		ledgers = 20
	}
	fmt.Fprintln(w, "paper (Fig 10): consensus grows slowly; ledger update grows with tx/ledger")
	rows, err := experiments.RunLoadSweep(rates, accounts, ledgers)
	if err != nil {
		return err
	}
	printLatencyRows(w, rows)
	return nil
}

func runFig11(w io.Writer, full bool) error {
	counts := []int{4, 10, 19}
	accounts := 5_000
	ledgers := 6
	if full {
		counts = []int{4, 10, 19, 28, 36, 43}
		accounts = 100_000
		ledgers = 15
	}
	fmt.Fprintln(w, "paper (Fig 11): nomination grows slowly; balloting dominates with more validators;")
	fmt.Fprintln(w, "ledger update independent of node count")
	rows, err := experiments.RunValidatorsSweep(counts, accounts, ledgers)
	if err != nil {
		return err
	}
	printLatencyRows(w, rows)
	return nil
}

func runBaseline(w io.Writer, full bool) error {
	accounts := 20_000
	ledgers := 10
	if full {
		accounts = 100_000
		ledgers = 40
	}
	res, err := experiments.RunBaseline(accounts, ledgers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper (§7.3): 507 ± 49 tx/ledger; nomination 82.53ms, balloting 95.96ms,")
	fmt.Fprintln(w, "ledger update 174.08ms; no transactions dropped")
	fmt.Fprintf(w, "measured: %.0f ± %.0f tx/ledger over %d ledgers\n",
		res.TxPerLedgerMean, res.TxPerLedgerStdev, res.Row.Ledgers)
	fmt.Fprintf(w, "          nomination %.2fms (p99 %.2fms), balloting %.2fms (p99 %.2fms),\n",
		ms(res.Row.Nomination), ms(res.Nomination99), ms(res.Row.Balloting), ms(res.Balloting99))
	fmt.Fprintf(w, "          ledger update %.3fms (p99 %.3fms), close %.2fs\n",
		ms(res.Row.LedgerUpdate), ms(res.LedgerUpdate99), res.Row.CloseMean.Seconds())
	return nil
}

func runCloseRate(w io.Writer, full bool) error {
	ledgers := 8
	if full {
		ledgers = 25
	}
	fmt.Fprintln(w, "paper (§7.3): average close times 5.03s, 5.10s, 5.15s across the three sweeps")
	type sweep struct {
		name string
		run  func() ([]experiments.LatencyRow, error)
	}
	sweeps := []sweep{
		{"accounts sweep", func() ([]experiments.LatencyRow, error) {
			return experiments.RunAccountsSweep([]int{1_000, 50_000}, ledgers)
		}},
		{"tx-rate sweep", func() ([]experiments.LatencyRow, error) {
			return experiments.RunLoadSweep([]float64{100, 300}, 10_000, ledgers)
		}},
		{"validators sweep", func() ([]experiments.LatencyRow, error) {
			return experiments.RunValidatorsSweep([]int{4, 16}, 2_000, ledgers)
		}},
	}
	for _, s := range sweeps {
		rows, err := s.run()
		if err != nil {
			return err
		}
		var worst time.Duration
		for _, r := range rows {
			if r.CloseMean > worst {
				worst = r.CloseMean
			}
		}
		fmt.Fprintf(w, "%-18s worst mean close interval %.2fs\n", s.name, worst.Seconds())
	}
	return nil
}

func runCost(w io.Writer, full bool) error {
	validators, accounts, ledgers := 10, 10_000, 10
	if full {
		validators, accounts, ledgers = 34, 100_000, 30
	}
	res, err := experiments.RunValidatorCost(validators, accounts, ledgers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper (§7.4): ~7% CPU, 300MiB RSS, 2.78/2.56 Mbit/s in/out on a c5.large")
	fmt.Fprintf(w, "measured: heap %.1f MiB/validator; bandwidth in %.2f Mbit/s, out %.2f Mbit/s (%d ledgers)\n",
		res.HeapMiB, res.InboundMbitSec, res.OutboundMbitSec, res.Ledgers)
	return nil
}

func runQI(w io.Writer, full bool) error {
	orgs := []int{3, 5, 7, 8}
	if full {
		orgs = []int{3, 5, 7, 9, 10, 11}
	}
	fmt.Fprintln(w, "paper (§6.2.1): 20-30 node transitive closures check in seconds on one CPU")
	rows, err := experiments.RunQuorumCheck(orgs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %6s %11s %10s %10s %9s\n", "orgs", "nodes", "intersects", "examined", "elapsed", "critical")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d %11v %10d %10s %9d\n",
			r.Orgs, r.Nodes, r.Intersects, r.Examined, r.Elapsed.Round(time.Millisecond), r.Critical)
	}
	return nil
}

func runAblation(w io.Writer, full bool) error {
	ledgers := 10
	if full {
		ledgers = 40
	}
	rows, err := experiments.RunTimeoutPolicyAblation(ledgers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "ablation: ballot timeout growth policy on a laggy network (DESIGN.md §2)")
	fmt.Fprintf(w, "%-20s %12s %18s\n", "policy", "close mean", "timeouts/ledger")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %12.2fs %18.2f\n", r.Policy, r.CloseMean.Seconds(), r.Timeouts)
	}
	return nil
}
