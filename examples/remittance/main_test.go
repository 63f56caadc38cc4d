package main

import (
	"strings"
	"testing"
)

// TestRemittance runs the example on its four-validator simulated network:
// the path payment delivers 8.75 MXN and every validator agrees on every
// ledger hash.
func TestRemittance(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "recipient MXN balance: 8.7500000\n") {
		t.Fatalf("remittance not delivered:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	const want = "all 4 validators agree on every ledger hash ✓"
	if got := strings.TrimSpace(lines[len(lines)-1]); got != want {
		t.Fatalf("final line %q, want %q", got, want)
	}
}
