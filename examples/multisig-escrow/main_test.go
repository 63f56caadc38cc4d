package main

import (
	"strings"
	"testing"
)

// TestMultisigEscrow runs the land deal end to end: it is refused with one
// signature, executes with two, and its replay fails as a unit.
func TestMultisigEscrow(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	const want = "  ✓ failed as a unit (1 op error(s)); no partial transfers: A USD still 0.0000000"
	if got := lines[len(lines)-1]; got != want {
		t.Fatalf("final line %q, want %q", got, want)
	}
}
