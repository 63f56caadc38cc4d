package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidate: out-of-range numbers and flag combinations that cannot work
// are rejected before the node starts, instead of running on a default.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" = valid
	}{
		{nil, ""},
		{[]string{"-interval", "250ms", "-mempool", "16", "-mempool-per-source", "4"}, ""},
		{[]string{"-data-dir", "d", "-checkpoint-interval", "8", "-catchup", "-peers", "localhost:11626"}, ""},
		{[]string{"-interval", "0"}, "-interval 0s: must be positive"},
		{[]string{"-interval", "-1s"}, "-interval -1s: must be positive"},
		{[]string{"-mempool", "-1"}, "-mempool -1: must not be negative"},
		{[]string{"-mempool-per-source", "-1"}, "-mempool-per-source -1: must not be negative"},
		{[]string{"-data-dir", "d", "-checkpoint-interval", "-1"}, "-checkpoint-interval -1: must not be negative"},
		{[]string{"-checkpoint-interval", "8"}, "-checkpoint-interval needs -data-dir"},
		{[]string{"-catchup", "-peers", "localhost:11626"}, "-catchup needs -data-dir"},
		{[]string{"-data-dir", "d", "-catchup", "-peers", " , "}, "-catchup needs at least one -peers address"},
	} {
		name := strings.Join(tc.args, " ")
		if name == "" {
			name = "defaults"
		}
		t.Run(name, func(t *testing.T) {
			var c config
			fs := flag.NewFlagSet("stellar-node", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			c.register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := c.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate: %v, want nil", err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("validate: %v, want %q", err, tc.wantErr)
			}
		})
	}
}
