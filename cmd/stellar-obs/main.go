// stellar-obs is the operator's tool beside the node binary. Its fleet
// commands scrape every node's /metrics, /debug/quorum, and
// /debug/trace/export endpoints and turn per-process silos into
// cluster-level views; its offline commands check traces, quorum
// configurations (§6.2) and regenerate the paper's tables (§7).
//
//	stellar-obs table -nodes http://127.0.0.1:28000,http://127.0.0.1:28001
//	stellar-obs table -nodes ... -watch 2s            # live fleet table
//	stellar-obs alerts -nodes ... -fail-on-firing      # fleet alert sweep
//	stellar-obs merge -nodes ... -o cluster-trace.json # Perfetto trace
//	stellar-obs tracecheck -cluster cluster-trace.json # trace links valid?
//
// merge exits non-zero with -fail-on-drop if the merged trace lost spans.
// tracecheck and fbas exit 1 on a violation and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stellar/internal/obs/collect"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table":
		err = cmdTable(os.Args[2:])
	case "alerts":
		err = cmdAlerts(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "tracecheck":
		cmdTracecheck(os.Args[2:])
	case "fbas":
		os.Exit(cmdFbas(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	case "tables":
		os.Exit(cmdTables(os.Args[2:]))
	case "benchjson":
		err = cmdBenchJSON(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "stellar-obs: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stellar-obs: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: stellar-obs <command> [flags]

commands:
  table       render the fleet status table (add -watch for live refresh)
  alerts      sweep every node's /debug/alerts (add -fail-on-firing for CI)
  merge       merge every node's span store into one Perfetto trace
  tracecheck  validate a Chrome trace export (-lifecycle, -cluster)
  fbas        check a quorum configuration for intersection and criticality
  tables      regenerate the paper's evaluation tables (-list, -table, -full)
  benchjson   convert go test -bench output on stdin into a micro report
`)
}

func targetsFlag(fs *flag.FlagSet) *string {
	return fs.String("nodes", "", "comma-separated node base URLs (name=url accepted)")
}

func parseTargets(s string) ([]collect.Target, error) {
	ts := collect.ParseTargets(s)
	if len(ts) == 0 {
		return nil, fmt.Errorf("no -nodes given")
	}
	return ts, nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	nodes := targetsFlag(fs)
	watch := fs.Duration("watch", 0, "refresh interval (0 = one shot)")
	count := fs.Int("count", 0, "number of watch passes (0 = forever)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	fs.Parse(args)
	targets, err := parseTargets(*nodes)
	if err != nil {
		return err
	}
	c := collect.NewClient(*timeout)
	if *watch <= 0 {
		scrapes := c.ScrapeAll(targets)
		rows := make([]collect.NodeStatus, len(scrapes))
		for i, s := range scrapes {
			rows[i] = collect.Status(s, nil)
		}
		fmt.Print(collect.FleetTable(rows))
		return nil
	}
	collect.Watch(c, targets, *watch, *count, func(table string) {
		fmt.Printf("--- %s\n%s", time.Now().Format(time.TimeOnly), table)
	})
	return nil
}

func cmdAlerts(args []string) error {
	fs := flag.NewFlagSet("alerts", flag.ExitOnError)
	nodes := targetsFlag(fs)
	watch := fs.Duration("watch", 0, "refresh interval (0 = one shot)")
	count := fs.Int("count", 0, "number of watch passes (0 = forever)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	failOnFiring := fs.Bool("fail-on-firing", false, "exit non-zero if any alert is firing (or any node is down)")
	fs.Parse(args)
	targets, err := parseTargets(*nodes)
	if err != nil {
		return err
	}
	c := collect.NewClient(*timeout)
	var firing int
	for i := 0; ; i++ {
		if i > 0 {
			time.Sleep(*watch)
		}
		rows := collect.FetchAlertRows(c, targets)
		var table string
		table, firing = collect.AlertsTable(rows)
		if *watch > 0 {
			fmt.Printf("--- %s\n", time.Now().Format(time.TimeOnly))
		}
		fmt.Print(table)
		if *watch <= 0 || (*count > 0 && i+1 >= *count) {
			break
		}
	}
	if *failOnFiring && firing > 0 {
		return fmt.Errorf("%d alert(s) firing", firing)
	}
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	nodes := targetsFlag(fs)
	out := fs.String("o", "cluster-trace.json", "output trace path (- = stdout)")
	failOnDrop := fs.Bool("fail-on-drop", false, "exit non-zero if the merge lost spans")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	fs.Parse(args)
	targets, err := parseTargets(*nodes)
	if err != nil {
		return err
	}
	c := collect.NewClient(*timeout)
	scrapes := c.ScrapeAll(targets)
	for _, s := range scrapes {
		if s.Err != nil {
			return fmt.Errorf("scrape %s: %v", s.Target.URL, s.Err)
		}
	}
	stats, err := writeMerged(scrapes, *out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"merged %d nodes: %d spans in, %d out, %d cross-node links, %d unresolved, %d dropped at source, max clock offset %.1fms\n",
		stats.Nodes, stats.SpansIn, stats.SpansOut, stats.CrossLinks,
		stats.Unresolved, stats.DroppedAtSource, float64(stats.MaxOffsetNanos)/1e6)
	if *failOnDrop && !stats.Lossless() {
		return fmt.Errorf("merge dropped %d spans", stats.SpansIn-stats.SpansOut)
	}
	return nil
}

func writeMerged(scrapes []*collect.Scrape, path string) (*collect.MergeStats, error) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w = f
	}
	return collect.Merge(scrapes, w)
}
