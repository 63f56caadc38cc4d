package main

import (
	"strings"
	"testing"
)

// TestFbasExitCodes pins the three outcomes apart: a sound configuration
// exits 0, a network that splits into disjoint quorums exits 1 with its
// witnesses, and input that cannot be read as a configuration exits 2.
func TestFbasExitCodes(t *testing.T) {
	var example strings.Builder
	if code := cmdFbas([]string{"-example"}, nil, &example, nil); code != 0 {
		t.Fatalf("-example: exit %d", code)
	}
	const islands = `{"nodes": {
	  "a-0": {"threshold": 2, "validators": ["a-0", "a-1"]},
	  "a-1": {"threshold": 2, "validators": ["a-0", "a-1"]},
	  "b-0": {"threshold": 2, "validators": ["b-0", "b-1"]},
	  "b-1": {"threshold": 2, "validators": ["b-0", "b-1"]}}}`
	for _, tc := range []struct {
		name, config string
		code         int
		stdout       string
	}{
		{"example", example.String(), 0, "criticality: no organization is one misconfiguration"},
		{"islands", islands, 1, "witness 2:"},
		{"malformed", `{"nodes": {`, 2, ""},
		{"empty", `{}`, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := cmdFbas([]string{"-config", "-"}, strings.NewReader(tc.config), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Fatalf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			if (code == 2) != (stderr.Len() > 0) {
				t.Fatalf("exit %d with stderr %q", code, stderr.String())
			}
		})
	}
}
