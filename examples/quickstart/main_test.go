package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: every transaction applies,
// and the closing totals count the cast, the trustline and the resting
// offer the path payment left behind.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	const want = "ledger: 4 accounts, 1 trustlines, 1 offers; fee pool 0.0000800 XLM"
	if got := lines[len(lines)-1]; got != want {
		t.Fatalf("final line %q, want %q", got, want)
	}
}
