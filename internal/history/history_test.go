package history

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

func TestTxSetRoundTrip(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kp := stellarcrypto.KeyPairFromString("archiver")
	src := ledger.AccountIDFromPublicKey(kp.Public)
	nid := stellarcrypto.HashBytes([]byte("net"))
	tx := &ledger.Transaction{
		Source: src, Fee: 100, SeqNum: 5,
		Operations: []ledger.Operation{
			{Body: &ledger.Payment{Destination: src, Asset: ledger.NativeAsset(), Amount: 7}},
			{Body: &ledger.ManageData{Name: "k", Value: []byte("v")}},
		},
	}
	tx.Sign(nid, kp)
	ts := &ledger.TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("prev")), Txs: []*ledger.Transaction{tx}}
	if err := a.PutTxSet(42, ts); err != nil {
		t.Fatal(err)
	}
	back, err := a.GetTxSet(42)
	if err != nil {
		t.Fatal(err)
	}
	// Content hash survives the round trip, covering ops and signatures.
	if back.Hash(nid) != ts.Hash(nid) {
		t.Fatal("tx set hash changed through archive")
	}
	if len(back.Txs[0].Signatures) != 1 {
		t.Fatal("signatures lost")
	}
}

func TestGetMissingTxSet(t *testing.T) {
	a, _ := Open(t.TempDir())
	if _, err := a.GetTxSet(999); err == nil {
		t.Fatal("missing tx set returned")
	}
	// One codec: a file under the retired .gob name is neither a valid
	// catch-up path nor an answer to a read.
	if ValidRelPath("headers/00000005.gob") {
		t.Fatal("ValidRelPath accepts a .gob path")
	}
	if err := os.WriteFile(filepath.Join(a.Dir(), "headers/00000005.gob"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GetHeader(5); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("GetHeader(5) with only a stray .gob file: got %v, want not-found", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	a, _ := Open(t.TempDir())
	h := &ledger.Header{LedgerSeq: 7, CloseTime: 123, BaseFee: 100}
	if err := a.PutHeader(h); err != nil {
		t.Fatal(err)
	}
	back, err := a.GetHeader(7)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != h.Hash() {
		t.Fatal("header hash changed through archive")
	}
}

func TestBucketContentAddressing(t *testing.T) {
	a, _ := Open(t.TempDir())
	b := bucket.NewBucket([]bucket.Entry{{Key: "a|x", Data: []byte("1")}})
	if err := a.PutBucket(b); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := a.PutBucket(b); err != nil {
		t.Fatal(err)
	}
	back, err := a.GetBucket(b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != b.Hash() {
		t.Fatal("bucket hash mismatch")
	}
	// Missing bucket errors.
	if _, err := a.GetBucket(stellarcrypto.HashBytes([]byte("nope"))); err == nil {
		t.Fatal("missing bucket returned")
	}
}

func TestCheckpointAndRestore(t *testing.T) {
	a, _ := Open(t.TempDir())
	l := bucket.NewList()
	for seq := uint32(1); seq <= 40; seq++ {
		l.AddBatch(seq, []bucket.Entry{{Key: keyFor(seq), Data: []byte{byte(seq)}}})
	}
	// Archive every bucket plus the checkpoint.
	for i, h := range l.BucketHashes() {
		if h == bucket.EmptyBucket().Hash() {
			continue
		}
		b, err := l.Bucket(i/2, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.PutBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	cp := &Checkpoint{LedgerSeq: 40, BucketHashes: l.BucketHashes()}
	if err := a.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}

	latest, err := a.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if latest.LedgerSeq != 40 {
		t.Fatalf("latest checkpoint seq = %d", latest.LedgerSeq)
	}
	restored, err := a.RestoreBucketList(latest)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Hash() != l.Hash() {
		t.Fatal("restored bucket list hash differs")
	}
	if len(restored.AllLive()) != 40 {
		t.Fatalf("restored %d live entries", len(restored.AllLive()))
	}
}

func TestLatestCheckpointEmpty(t *testing.T) {
	a, _ := Open(t.TempDir())
	if _, err := a.LatestCheckpoint(); err == nil {
		t.Fatal("empty archive returned a checkpoint")
	}
}

func keyFor(seq uint32) string {
	return "k|" + string(rune('a'+seq%26)) + string(rune('0'+seq%10)) + string(rune('A'+seq%26))
}
