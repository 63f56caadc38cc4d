package xdr_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Fuzz targets for the two decoders that consume network-supplied bytes:
// transaction envelopes (flooded by peers) and quorum sets (carried in
// SCP envelopes). The property is decode→encode→decode stability: any
// input the decoder accepts must re-encode to a fixpoint, and decoding
// must never panic or allocate unboundedly on arbitrary bytes.

// seedSignedTx builds a representative signed envelope for the corpus:
// two signatures, time bounds, and a multi-op body.
func seedSignedTx() *ledger.Transaction {
	kp := stellarcrypto.KeyPairFromString("fuzz-seed-key")
	kp2 := stellarcrypto.KeyPairFromString("fuzz-seed-key-2")
	src := ledger.AccountIDFromPublicKey(kp.Public)
	dest := ledger.AccountIDFromPublicKey(kp2.Public)
	usd := ledger.Asset{Code: "USD", Issuer: src}
	tx := &ledger.Transaction{
		Source:     src,
		Fee:        200,
		SeqNum:     42,
		TimeBounds: &ledger.TimeBounds{MinTime: 1, MaxTime: 1 << 40},
		Memo:       "fuzz seed",
		Operations: []ledger.Operation{
			{Body: &ledger.Payment{Destination: dest, Asset: usd, Amount: 5}},
			{Body: &ledger.ManageOffer{Selling: usd, Buying: ledger.NativeAsset(),
				Amount: 7, Price: ledger.Price{N: 2, D: 3}}},
			{Source: dest, Body: &ledger.BumpSequence{BumpTo: 99}},
		},
	}
	nid := stellarcrypto.HashBytes([]byte("fuzz-seed-network"))
	tx.Sign(nid, kp)
	tx.Sign(nid, kp2)
	return tx
}

func txSeeds() [][]byte {
	short := &ledger.Transaction{
		Source: "G",
		Fee:    100,
		SeqNum: 1,
		Operations: []ledger.Operation{
			{Body: &ledger.CreateAccount{Destination: "H", StartingBalance: 1}},
		},
	}
	return [][]byte{
		seedSignedTx().MarshalSignedXDR(),
		short.MarshalSignedXDR(),
		{},
		{0, 0, 0, 4, 'j', 'u', 'n', 'k'},
	}
}

func qsetSeeds() [][]byte {
	nested := fba.QuorumSet{
		Threshold:  2,
		Validators: []fba.NodeID{"NB", "NA"},
		InnerSets: []fba.QuorumSet{
			{Threshold: 1, Validators: []fba.NodeID{"NC", "ND"}},
		},
	}
	flat := fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{"NE"}}
	return [][]byte{
		xdr.Marshal(&nested),
		xdr.Marshal(&flat),
		{},
		{0, 0, 0, 1},
	}
}

func FuzzTxDecodeRoundTrip(f *testing.F) {
	for _, s := range txSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := ledger.DecodeSignedTransactionXDR(data)
		if err != nil {
			return
		}
		// The envelope encoding has no normalization step, so anything
		// the strict decoder accepts is already in canonical form. The
		// decoded transaction keeps data and would answer with it, so the
		// check encodes a copy built from the exported fields: this is the
		// invariant that lets the kept bytes stand in for a re-encode.
		fields := &ledger.Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum,
			TimeBounds: tx.TimeBounds, Memo: tx.Memo, Operations: tx.Operations, Signatures: tx.Signatures}
		b1 := fields.MarshalSignedXDR()
		if !bytes.Equal(b1, data) {
			t.Fatalf("accepted non-canonical encoding:\n in:  %x\n out: %x", data, b1)
		}
		tx2, err := ledger.DecodeSignedTransactionXDR(b1)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if b2 := tx2.MarshalSignedXDR(); !bytes.Equal(b1, b2) {
			t.Fatalf("encode/decode not a fixpoint:\n b1: %x\n b2: %x", b1, b2)
		}
		nid := stellarcrypto.HashBytes([]byte("fuzz-seed-network"))
		if tx.Hash(nid) != fields.Hash(nid) {
			t.Fatalf("hash from the kept bytes differs from the hash of the fields: %x", data)
		}
	})
}

func FuzzQuorumSetDecodeRoundTrip(f *testing.F) {
	for _, s := range qsetSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := fba.DecodeQuorumSetXDR(xdr.NewDecoder(data))
		if err != nil {
			return
		}
		// Encoding sorts validators, so the input need not be canonical —
		// but one encode pass must reach the fixpoint.
		b1 := xdr.Marshal(&q)
		d2 := xdr.NewDecoder(b1)
		q2, err := fba.DecodeQuorumSetXDR(d2)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !d2.Done() {
			t.Fatalf("re-decode left %d trailing bytes", d2.Remaining())
		}
		if b2 := xdr.Marshal(&q2); !bytes.Equal(b1, b2) {
			t.Fatalf("encode/decode not a fixpoint:\n b1: %x\n b2: %x", b1, b2)
		}
	})
}

// TestSeedCorpusCheckedIn pins the checked-in seed corpora under
// testdata/fuzz to the generators above, so `go test -fuzz` always
// starts from valid envelopes even before f.Add runs. Regenerate with
// UPDATE_FUZZ_CORPUS=1 go test ./internal/xdr/ -run TestSeedCorpusCheckedIn
func TestSeedCorpusCheckedIn(t *testing.T) {
	for name, seeds := range map[string][][]byte{
		"FuzzTxDecodeRoundTrip":        txSeeds(),
		"FuzzQuorumSetDecodeRoundTrip": qsetSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", name)
		for i, seed := range seeds {
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			path := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with UPDATE_FUZZ_CORPUS=1)", path, err)
			}
			if string(got) != want {
				t.Fatalf("%s is stale (regenerate with UPDATE_FUZZ_CORPUS=1)", path)
			}
		}
	}
}
