// stellar-obs is the operator's tool beside the node binary. Its fleet
// commands scrape every node's /metrics, /ledgers/latest, /debug/alerts and
// /debug/trace/export endpoints and turn per-process silos into
// cluster-level views; its offline commands check traces, quorum
// configurations (§6.2) and regenerate the paper's tables (§7).
//
//	stellar-obs fleet -nodes http://127.0.0.1:28000,http://127.0.0.1:28001
//	stellar-obs fleet -nodes ... -watch 2s             # live fleet table
//	stellar-obs fleet -nodes ... -fail-on-firing       # CI: any alert firing?
//	stellar-obs merge -nodes ... -o cluster-trace.json # Perfetto trace
//	stellar-obs tracecheck -cluster cluster-trace.json # trace links valid?
//
// fleet exits non-zero with -fail-on-firing if an alert fires, a node is
// down, or a node's alert report cannot be read; merge with -fail-on-drop if the merged trace lost spans.
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
	case "fleet":
		err = cmdFleet(os.Args[2:])
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
  fleet       every node's status row and firing alerts (-watch, -fail-on-firing)
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

func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	nodes := targetsFlag(fs)
	watch := fs.Duration("watch", 0, "refresh interval (0 = one shot)")
	count := fs.Int("count", 0, "number of watch passes (0 = forever)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	failOnFiring := fs.Bool("fail-on-firing", false, "exit non-zero if the last pass found an alert firing (or a node down, or its alerts unreadable)")
	fs.Parse(args)
	targets, err := parseTargets(*nodes)
	if err != nil {
		return err
	}
	passes := *count
	if *watch <= 0 {
		passes = 1
	}
	var firing int
	collect.Watch(collect.NewClient(*timeout), targets, *watch, passes, func(rows []collect.NodeStatus) {
		if *watch > 0 {
			fmt.Printf("--- %s\n", time.Now().Format(time.TimeOnly))
		}
		fmt.Print(collect.FleetTable(rows))
		firing = collect.Firing(rows)
	})
	if *failOnFiring && firing > 0 {
		return fmt.Errorf("%d alert(s) firing, node(s) down or alert report(s) unreadable", firing)
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
