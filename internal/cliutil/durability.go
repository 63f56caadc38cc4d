package cliutil

import (
	"errors"
	"flag"

	"stellar/internal/history"
)

// DurabilityFlags configure the disk-backed archive (ROADMAP item 3,
// DESIGN.md §7): where state persists across restarts — a node with a
// data dir also keeps its bucket list below level 0 there instead of in
// RAM — how often bucket checkpoints are cut, and whether an empty node
// should cold-start by fetching a peer's archive over the network.
type DurabilityFlags struct {
	// DataDir is the archive directory (headers, tx sets, buckets,
	// checkpoints). Empty keeps the node fully in-memory, as before.
	DataDir string
	// CheckpointInterval is the number of ledgers between bucket
	// checkpoints (0 = every ledger). Headers and tx sets are archived
	// every ledger regardless.
	CheckpointInterval int
	// Catchup makes a node whose archive has no checkpoint fetch a peer's
	// checkpointed state over the overlay, and the ledgers past it, instead
	// of bootstrapping genesis.
	Catchup bool
}

// Register attaches the durability flags to fs.
func (f *DurabilityFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.DataDir, "data-dir", "", "archive directory for headers, tx sets, buckets, and checkpoints (empty = in-memory only)")
	fs.IntVar(&f.CheckpointInterval, "checkpoint-interval", 0, "ledgers between bucket checkpoints (0 = every ledger; needs -data-dir)")
	fs.BoolVar(&f.Catchup, "catchup", false, "on an archive with no checkpoint, fetch a peer's checkpointed state and the ledgers past it over the network instead of bootstrapping at genesis (needs -data-dir)")
}

// Open validates the flag combination and opens the archive; a nil
// archive (no error) means -data-dir was not given.
func (f *DurabilityFlags) Open() (*history.Archive, error) {
	if f.DataDir == "" {
		if f.Catchup {
			return nil, errors.New("-catchup needs -data-dir")
		}
		if f.CheckpointInterval != 0 {
			return nil, errors.New("-checkpoint-interval needs -data-dir")
		}
		return nil, nil
	}
	return history.Open(f.DataDir)
}
