package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTablesUnknownName: table names are unique, and a name -list does not
// show exits 2 without running anything. The simulator-only comparisons
// that were removed (overlay, baselinebft) are such names.
func TestTablesUnknownName(t *testing.T) {
	seen := make(map[string]bool)
	for _, tb := range tables {
		if seen[tb.name] || tb.name == "all" {
			t.Fatalf("table name %q is taken twice", tb.name)
		}
		seen[tb.name] = true
	}
	for _, name := range []string{"overlay", "baselinebft", "nope"} {
		t.Run(name, func(t *testing.T) {
			if code := cmdTables([]string{"-table=" + name}); code != 2 {
				t.Fatalf("-table=%s: exit %d, want 2", name, code)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/tables_pin.txt from this run")

// pinnedTables regenerate in seconds at their default scale; TestTablePin
// holds their output. The rest stay behind `stellar-obs tables -table=all`.
var pinnedTables = []string{"messages", "fig8", "baseline", "ablation", "critical"}

// Wall-clock cells: baseline's ledger update and the quorum checker's
// elapsed column are measured in real time and move from run to run. Every
// other cell of a pinned table is virtual time or a count, fixed by the
// simulator's seed.
var (
	ledgerUpdateCell = regexp.MustCompile(`ledger update [0-9.]+ms \(p99 [0-9.]+ms\)`)
	elapsedCell      = regexp.MustCompile(`(?m)^(\s*\d+\s+\d+\s+(?:true|false)\s+\d+)\s+\S+(\s+\d+)$`)
)

// maskWallClock replaces the wall-clock cells of table output with "-".
func maskWallClock(s string) string {
	s = ledgerUpdateCell.ReplaceAllString(s, "ledger update - (p99 -)")
	return elapsedCell.ReplaceAllString(s, "$1 -$2")
}

// TestTablePin regenerates the pinned tables at their default scale and
// compares every virtual-time cell to testdata/tables_pin.txt. A change to
// consensus, fees, apply, the overlay's traffic or the quorum checker moves
// it; a change that must leave them alone keeps it. `go test -run
// TablePin -update` rewrites the pin, for an intended change only.
func TestTablePin(t *testing.T) {
	runs := make(map[string]func(io.Writer, bool) error)
	for _, tb := range tables {
		runs[tb.name] = tb.run
	}
	var b strings.Builder
	for _, name := range pinnedTables {
		if runs[name] == nil {
			t.Fatalf("no table %q", name)
		}
		fmt.Fprintf(&b, "=== %s\n", name)
		if err := runs[name](&b, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got := maskWallClock(b.String())
	path := filepath.Join("testdata", "tables_pin.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
