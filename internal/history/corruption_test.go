package history

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// buildArchive populates an archive with one of everything and returns
// the originals for comparison.
func buildArchive(t *testing.T) (*Archive, *ledger.Header, *Checkpoint) {
	t.Helper()
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hdr := &ledger.Header{
		LedgerSeq:    7,
		Prev:         stellarcrypto.HashBytes([]byte("prev")),
		TxSetHash:    stellarcrypto.HashBytes([]byte("txs")),
		SnapshotHash: stellarcrypto.HashBytes([]byte("snap")),
		CloseTime:    123456,
	}
	if err := a.PutHeader(hdr); err != nil {
		t.Fatal(err)
	}
	b := bucket.NewBucket([]bucket.Entry{{Key: "a|corruption", Data: []byte("payload")}})
	if err := a.PutBucket(b); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{LedgerSeq: 7, HeaderHash: hdr.Hash()}
	for i := 0; i < 2*bucket.NumLevels; i++ {
		cp.BucketHashes = append(cp.BucketHashes, bucket.EmptyBucket().Hash())
	}
	cp.BucketHashes[0] = b.Hash()
	if err := a.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	return a, hdr, cp
}

// damage runs fn (a read of a deliberately damaged file) and converts a
// panic into a test failure, returning fn's error otherwise: corruption
// must surface as an error, never a crash.
func damage(t *testing.T, what string, fn func() error) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked on damaged input: %v", what, r)
			}
		}()
		err = fn()
	}()
	return err
}

// TestTruncatedArchiveFiles rereads the header and checkpoint after
// truncating their files to every possible shorter length: each read must
// fail with an error (a partial upload must never half-load).
func TestTruncatedArchiveFiles(t *testing.T) {
	a, _, _ := buildArchive(t)
	files := map[string]func() error{
		"headers/00000007.xdr":     func() error { _, err := a.GetHeader(7); return err },
		"checkpoints/00000007.xdr": func() error { _, err := a.GetCheckpoint(7); return err },
	}
	for rel, read := range files {
		path := filepath.Join(a.Dir(), rel)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(orig); n++ {
			if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s truncated to %d/%d bytes", rel, n, len(orig))
			if err := damage(t, what, read); err == nil {
				t.Errorf("%s: read succeeded", what)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := read(); err != nil {
			t.Fatalf("%s: restored file unreadable: %v", rel, err)
		}
	}
}

// TestBitFlippedArchiveFiles flips every byte of the header and
// checkpoint files in turn. The checksum frame must fail every single
// flip with an error. Trailing garbage is likewise rejected.
func TestBitFlippedArchiveFiles(t *testing.T) {
	a, hdr, cp := buildArchive(t)

	checkHeader := func() error {
		got, err := a.GetHeader(7)
		if err != nil {
			return err
		}
		if got.Hash() != hdr.Hash() {
			t.Errorf("bit flip silently changed header content")
		}
		return nil
	}
	checkCheckpoint := func() error {
		got, err := a.GetCheckpoint(7)
		if err != nil {
			return err
		}
		if got.LedgerSeq != cp.LedgerSeq || got.HeaderHash != cp.HeaderHash ||
			len(got.BucketHashes) != len(cp.BucketHashes) {
			t.Errorf("bit flip silently changed checkpoint content")
		}
		return nil
	}
	files := map[string]func() error{
		"headers/00000007.xdr":     checkHeader,
		"checkpoints/00000007.xdr": checkCheckpoint,
	}
	for rel, read := range files {
		path := filepath.Join(a.Dir(), rel)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 0xff
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s byte %d flipped", rel, i)
			if err := damage(t, what, read); err == nil {
				t.Errorf("%s: read succeeded", what)
			}
		}
		// Trailing garbage after a valid value is corruption too.
		if err := os.WriteFile(path, append(append([]byte(nil), orig...), 0xba, 0xad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := damage(t, rel+" with trailing bytes", read); err == nil {
			t.Errorf("%s: trailing garbage accepted", rel)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptBucketRejected flips one byte of an archived bucket: the
// content-address check must refuse it.
func TestCorruptBucketRejected(t *testing.T) {
	a, _, cp := buildArchive(t)
	rel := fmt.Sprintf("buckets/%s.bucket", cp.BucketHashes[0].Hex())
	path := filepath.Join(a.Dir(), rel)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(orig) / 2, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := damage(t, fmt.Sprintf("bucket byte %d flipped", i), func() error {
			_, err := a.GetBucket(cp.BucketHashes[0])
			return err
		}); err == nil {
			t.Errorf("bucket with byte %d flipped was accepted", i)
		}
	}
}

// TestMisfiledArchiveEntries covers a renamed-file corruption: a header
// or checkpoint whose content is for a different sequence than its name.
func TestMisfiledArchiveEntries(t *testing.T) {
	a, _, _ := buildArchive(t)
	hdr9 := &ledger.Header{LedgerSeq: 9, CloseTime: 1}
	if err := a.PutHeader(hdr9); err != nil {
		t.Fatal(err)
	}
	// Copy seq 9's file over seq 7's.
	data, err := os.ReadFile(filepath.Join(a.Dir(), "headers/00000009.xdr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(a.Dir(), "headers/00000007.xdr"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GetHeader(7); err == nil {
		t.Fatal("misfiled header accepted")
	}
}
