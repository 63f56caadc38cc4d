package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/archive_pin.txt from this run")

// TestArchivePin runs the seeded simulator in one fixed configuration and
// compares the archive it writes — the last checkpoint's header hash and
// the bucket-list hash restored from its buckets — to the digest in
// testdata, together with the simulator's message counts. Any change to
// fees, apply rules, consensus or the archive format moves the digest; a
// change that must leave them alone keeps it. The counts catch what the
// hashes cannot: a change to nomination (a leader's weight, a round's
// timeout) that still ends in the same value sends a different number of
// envelopes. Bytes stay out, so a new wire-size estimate leaves the pin.
// `go test -run Pin -update` rewrites the digest.
func TestArchivePin(t *testing.T) {
	s, err := Build(Options{
		Validators:     4,
		Accounts:       500,
		TxRate:         20,
		LedgerInterval: 5 * time.Second,
		Seed:           42,
		ArchiveDirFor:  ArchiveAt(t.TempDir()),
		// A checkpoint every ledger: 40 s at 5 s is eight ledgers, short
		// of the default cadence's first checkpoint.
		CheckpointInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(40 * time.Second)
	s.Stop()
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}

	cp, err := s.Archives[0].LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Archives[0].GetHeader(cp.LedgerSeq)
	if err != nil {
		t.Fatal(err)
	}
	if h.Hash() != cp.HeaderHash {
		t.Fatalf("checkpoint %d names header %x, archive holds %x", cp.LedgerSeq, cp.HeaderHash, h.Hash())
	}
	buckets, err := s.Archives[0].RestoreBucketList(cp)
	if err != nil {
		t.Fatal(err)
	}
	if buckets.Hash() != h.SnapshotHash {
		t.Fatalf("restored bucket list %x, header commits to %x", buckets.Hash(), h.SnapshotHash)
	}
	st := s.Net.Stats()
	got := fmt.Sprintf("ledger %d\nheader %x\nbuckets %x\nmessages sent %d\nmessages delivered %d\n",
		cp.LedgerSeq, cp.HeaderHash[:], h.SnapshotHash[:], st.MessagesSent, st.MessagesDelivered)

	path := filepath.Join("testdata", "archive_pin.txt")
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
	if got != string(want) {
		t.Fatalf("archive digest moved (rewrite with -update only for an intended change):\ngot:\n%swant:\n%s", got, want)
	}
}
