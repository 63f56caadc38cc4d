package ledger

import (
	"bytes"
	"reflect"
	"testing"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

func u8(v uint8) *uint8     { return &v }
func strp(s string) *string { return &s }

// sampleTransactions covers every operation type and every optional
// field shape (time bounds, op source overrides, signer, home domain,
// empty-but-present ManageData value).
func sampleTransactions(t *testing.T) []*Transaction {
	t.Helper()
	nid := stellarcrypto.HashBytes([]byte("decode-test"))
	kp := stellarcrypto.KeyPairFromString("decode-test-key")
	src := AccountIDFromPublicKey(kp.Public)
	other := AccountIDFromPublicKey(stellarcrypto.KeyPairFromString("decode-test-other").Public)
	usd := Asset{Code: "USD", Issuer: other}
	eur := Asset{Code: "EUR", Issuer: other}

	txs := []*Transaction{
		{
			Source: src,
			Fee:    100,
			SeqNum: 7,
			Operations: []Operation{
				{Body: &CreateAccount{Destination: other, StartingBalance: 25 * One}},
				{Body: &Payment{Destination: other, Asset: usd, Amount: 3}},
			},
		},
		{
			Source:     src,
			Fee:        200,
			SeqNum:     8,
			TimeBounds: &TimeBounds{MinTime: 100, MaxTime: 900},
			Memo:       "invoice 42",
			Operations: []Operation{
				{Source: other, Body: &PathPayment{
					SendAsset: NativeAsset(), SendMax: 50, Destination: other,
					DestAsset: usd, DestAmount: 10, Path: []Asset{eur},
				}},
				{Body: &ManageOffer{OfferID: 3, Selling: usd, Buying: eur,
					Amount: 12, Price: Price{N: 3, D: 2}, Passive: true}},
			},
		},
		{
			Source: src,
			Fee:    100,
			SeqNum: 9,
			Operations: []Operation{
				{Body: &SetOptions{
					SetFlags:     FlagAuthRequired,
					ClearFlags:   FlagAuthRevocable,
					MasterWeight: u8(2), LowThreshold: u8(1),
					MedThreshold: u8(2), HighThreshold: u8(3),
					Signer:     &Signer{Key: other, Weight: 1},
					HomeDomain: strp("example.org"),
				}},
				{Body: &SetOptions{}},
			},
		},
		{
			Source: src,
			Fee:    500,
			SeqNum: 10,
			Operations: []Operation{
				{Body: &ChangeTrust{Asset: usd, Limit: 1000}},
				{Body: &AllowTrust{Trustor: other, AssetCode: "USD", Authorize: true}},
				{Body: &AccountMerge{Destination: other}},
				{Body: &ManageData{Name: "k", Value: []byte("v")}},
				{Body: &ManageData{Name: "present-empty", Value: []byte{}}},
				{Body: &ManageData{Name: "deleted"}},
				{Body: &BumpSequence{BumpTo: 1 << 40}},
			},
		},
	}
	for _, tx := range txs {
		tx.Sign(nid, kp)
	}
	// One unsigned transaction too: zero signatures must round-trip.
	txs = append(txs, &Transaction{Source: src, Fee: 100, SeqNum: 11,
		Operations: []Operation{{Body: &BumpSequence{BumpTo: 1}}}})
	return txs
}

// fieldsOf returns tx without its seal: a copy that encodes and hashes from
// its fields, as a hand-built transaction does.
func fieldsOf(tx *Transaction) *Transaction {
	c := *tx
	c.seal = txSeal{}
	return &c
}

func TestSignedTransactionRoundTrip(t *testing.T) {
	for i, tx := range sampleTransactions(t) {
		enc := tx.MarshalSignedXDR()
		back, err := DecodeSignedTransactionXDR(enc)
		if err != nil {
			t.Fatalf("tx %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(tx, fieldsOf(back)) {
			t.Fatalf("tx %d: round trip mismatch:\n  in:  %+v\n  out: %+v", i, tx, back)
		}
		if again := back.MarshalSignedXDR(); !bytes.Equal(enc, again) {
			t.Fatalf("tx %d: re-encode differs", i)
		}
	}
}

func TestDecodeSignedTransactionRejectsMalformed(t *testing.T) {
	tx := sampleTransactions(t)[0]
	good := tx.MarshalSignedXDR()

	if _, err := DecodeSignedTransactionXDR(good[:len(good)-1]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	if _, err := DecodeSignedTransactionXDR(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// Oversized declared counts must be rejected before allocation.
	e := xdr.NewEncoder(64)
	e.PutString(string(tx.Source))
	e.PutInt64(int64(tx.Fee))
	e.PutUint64(tx.SeqNum)
	e.PutBool(false)
	e.PutString("")
	e.PutUint32(maxDecodeOperations + 1)
	if _, err := DecodeTransactionXDR(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("oversized operation count accepted")
	}

	// A SetOptions weight that cannot fit uint8 must be rejected: it
	// would silently truncate and re-encode differently.
	e = xdr.NewEncoder(64)
	e.PutUint32(0) // SetFlags
	e.PutUint32(0) // ClearFlags
	e.PutBool(true)
	e.PutUint32(300) // MasterWeight out of range
	if _, err := decodeSetOptions(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("out-of-range weight accepted")
	}
}
