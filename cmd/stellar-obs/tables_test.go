package main

import "testing"

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
