package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

var sealNet = stellarcrypto.HashBytes([]byte("decode-test"))

// TestDecodedBytesAreCanonical holds the invariant the cached bytes rely
// on: for every operation type and optional-field shape, the bytes a
// decoder accepted and kept are exactly the bytes the decoded fields
// encode to — alone and inside a transaction set — so answering from the
// cache and re-encoding can never differ, in the wire form or in the hash.
func TestDecodedBytesAreCanonical(t *testing.T) {
	txs := sampleTransactions(t)
	for i, tx := range txs {
		enc := tx.MarshalSignedXDR()
		back, err := DecodeSignedTransactionXDR(enc)
		if err != nil {
			t.Fatalf("tx %d: decode: %v", i, err)
		}
		if !bytes.Equal(back.seal.wire, enc) {
			t.Fatalf("tx %d: decoder did not keep the envelope it was given", i)
		}
		if got := fieldsOf(back).MarshalSignedXDR(); !bytes.Equal(got, enc) {
			t.Fatalf("tx %d: decoded fields re-encode to different bytes:\n in:  %x\n out: %x", i, enc, got)
		}
		if got, want := back.Hash(sealNet), tx.Hash(sealNet); got != want {
			t.Fatalf("tx %d: hash from kept bytes %s, from fields %s", i, got.Hex(), want.Hex())
		}
		payload := xdr.NewEncoder(256)
		back.EncodeXDR(payload)
		fields := xdr.NewEncoder(256)
		tx.EncodeXDR(fields)
		if !bytes.Equal(payload.Bytes(), fields.Bytes()) {
			t.Fatalf("tx %d: signed payload from kept bytes differs from the fields'", i)
		}
		enc[len(enc)-1] ^= 0xff // the decoder must own its copy
		if bytes.Equal(back.MarshalSignedXDR(), enc) {
			t.Fatalf("tx %d: sealed bytes alias the caller's buffer", i)
		}
	}

	built := &TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("prev")), Txs: txs}
	e := xdr.NewEncoder(1024)
	built.EncodeXDR(e)
	decoded, err := DecodeTxSetXDR(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatalf("decode set: %v", err)
	}
	if decoded.Hash(sealNet) != built.Hash(sealNet) {
		t.Fatal("decoded set hashes differently from the set it was encoded from")
	}
	again := xdr.NewEncoder(1024)
	decoded.EncodeXDR(again)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatal("decoded set re-encodes to different bytes")
	}
	for i, tx := range decoded.Txs {
		if want := txs[i].MarshalSignedXDR(); !bytes.Equal(tx.seal.wire, want) {
			t.Fatalf("set tx %d: kept window is not its own envelope", i)
		}
		if cap(tx.seal.wire) != len(tx.seal.wire) {
			t.Fatalf("set tx %d: kept window can grow into its neighbour", i)
		}
	}
}

// TestSealedTransactionDoesNotAllocate: once a transaction is sealed and
// hashed, its identity and its wire form are reads.
func TestSealedTransactionDoesNotAllocate(t *testing.T) {
	tx, err := DecodeSignedTransactionXDR(sampleTransactions(t)[1].MarshalSignedXDR())
	if err != nil {
		t.Fatal(err)
	}
	want := tx.Hash(sealNet)
	if n := testing.AllocsPerRun(100, func() {
		if tx.Hash(sealNet) != want {
			t.Fatal("memoised hash changed")
		}
	}); n != 0 {
		t.Fatalf("Hash on a sealed transaction allocates %v times", n)
	}
	e := xdr.NewEncoder(1024)
	if n := testing.AllocsPerRun(100, func() {
		e.Reset()
		tx.EncodeSignedXDR(e)
	}); n != 0 {
		t.Fatalf("re-encoding a decoded transaction allocates %v times", n)
	}
	ts := &TxSet{Txs: []*Transaction{tx}}
	ts.Seal(sealNet)
	if n := testing.AllocsPerRun(100, func() { ts.Hash(sealNet) }); n != 0 {
		t.Fatalf("Hash on a sealed set allocates %v times", n)
	}
	// Seal, at the door, is where the envelope hash is computed: naming the
	// transaction in a proposal is a read.
	if tx.seal.enveloped {
		t.Fatal("setup: a decoder computed the envelope hash nobody asked for")
	}
	tx.Seal(sealNet)
	if !tx.seal.enveloped || tx.EnvelopeHash() != stellarcrypto.HashBytes(tx.MarshalSignedXDR()) {
		t.Fatal("Seal did not leave the envelope hash in the seal")
	}
	if n := testing.AllocsPerRun(100, func() { tx.EnvelopeHash() }); n != 0 {
		t.Fatalf("EnvelopeHash on a sealed transaction allocates %v times", n)
	}
}

// TestHandBuiltTransactionStaysMutable: nothing is cached before admission,
// so edits after Sign — and Sign itself on a sealed transaction — are seen.
func TestHandBuiltTransactionStaysMutable(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("decode-test-key")
	build := func(fee Amount) *Transaction {
		return &Transaction{Source: AccountIDFromPublicKey(kp.Public), Fee: fee, SeqNum: 3,
			Operations: []Operation{{Body: &BumpSequence{BumpTo: 9}}}}
	}
	tx := build(100)
	tx.Sign(sealNet, kp)
	before := tx.Hash(sealNet)
	tx.Fee = 250 // mutated after Sign, before admission
	if tx.Hash(sealNet) == before || tx.Hash(sealNet) != build(250).Hash(sealNet) {
		t.Fatal("hash of a hand-built transaction did not follow its fields")
	}
	if h := tx.Seal(sealNet); h != build(250).Hash(sealNet) || tx.seal.wire == nil {
		t.Fatal("Seal did not fix the transaction as it stood")
	}
	other := stellarcrypto.HashBytes([]byte("another network"))
	if tx.Hash(other) != build(250).Hash(other) || tx.Hash(sealNet) != build(250).Hash(sealNet) {
		t.Fatal("a second network ID disturbed the memo")
	}

	// Re-signing is the one way to edit a sealed transaction in place.
	tx.Fee = 300
	tx.Signatures = nil
	tx.Sign(sealNet, kp)
	if tx.seal.wire != nil || tx.Hash(sealNet) != build(300).Hash(sealNet) {
		t.Fatal("Sign kept a stale seal")
	}
	if tx.seal.enveloped || tx.EnvelopeHash() != stellarcrypto.HashBytes(tx.MarshalSignedXDR()) {
		t.Fatal("Sign kept a stale envelope hash")
	}
	if h := tx.Hash(sealNet); !kp.Public.Verify(h[:], tx.Signatures[0].Sig) {
		t.Fatal("signature does not cover the edited transaction")
	}
}

// TestTxSetHashMemoOnlyWhenSealed: a hand-built set may still grow; a
// sealed one answers from its memo.
func TestTxSetHashMemoOnlyWhenSealed(t *testing.T) {
	txs := sampleTransactions(t)
	ts := &TxSet{Txs: txs[:2]}
	h2 := ts.Hash(sealNet)
	ts.Txs = txs[:3]
	h3 := ts.Hash(sealNet)
	if h2 == h3 {
		t.Fatal("an unsealed set returned a stale hash after it grew")
	}
	if ts.Seal(sealNet) != h3 || ts.Hash(sealNet) != h3 {
		t.Fatal("Seal changed the hash")
	}
	rev := &TxSet{Txs: []*Transaction{txs[2], txs[1], txs[0]}}
	if rev.Hash(sealNet) != h3 {
		t.Fatal("set hash depends on transaction order")
	}
}

// TestTxSetIntern: a decoded set interned against the instances a node
// already holds keeps its hash and its encoding, takes the held instance
// wherever the envelopes are byte-identical, refuses one that differs only
// in its signatures (the transaction hash does not cover them), and leaves
// no element aliasing the decoder's buffer.
func TestTxSetIntern(t *testing.T) {
	txs := sampleTransactions(t)
	built := &TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("prev")), Txs: txs}
	e := xdr.NewEncoder(1024)
	built.EncodeXDR(e)
	wire := bytes.Clone(e.Bytes())
	decoded, err := DecodeTxSetXDR(xdr.NewDecoder(wire))
	if err != nil {
		t.Fatal(err)
	}

	// The "pool": own sealed copies of all but the first transaction, and
	// for the second one a copy with the same hash but another signature.
	held := make(map[stellarcrypto.Hash]*Transaction)
	for i, tx := range txs[1:] {
		own, err := DecodeSignedTransactionXDR(tx.MarshalSignedXDR())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			resigned := fieldsOf(own)
			resigned.Signatures = []DecoratedSignature{{Sig: bytes.Repeat([]byte{9}, 64)}}
			resigned.Seal(sealNet)
			own = resigned
		}
		held[own.Hash(sealNet)] = own
	}
	if len(held) != len(txs)-1 {
		t.Fatal("setup: sample transactions share a hash")
	}
	lookup := func(h stellarcrypto.Hash) *Transaction { return held[h] }

	got := decoded.Intern(sealNet, lookup)
	if got == decoded {
		t.Fatal("nothing was interned")
	}
	if got.Hash(sealNet) != decoded.Hash(sealNet) {
		t.Fatal("interning changed the set hash")
	}
	e2 := xdr.NewEncoder(1024)
	got.EncodeXDR(e2)
	if !bytes.Equal(e2.Bytes(), wire) {
		t.Fatal("interning changed the set's encoding")
	}
	for i, tx := range got.Txs {
		own := held[tx.Hash(sealNet)]
		switch {
		case i < 2:
			if tx == own || tx == decoded.Txs[i] {
				t.Fatalf("tx %d: want a copy of the decoded element, not the held or the aliased instance", i)
			}
			if &tx.seal.wire[0] == &decoded.Txs[i].seal.wire[0] {
				t.Fatalf("tx %d: kept element still aliases the set's buffer", i)
			}
		case tx != own:
			t.Fatalf("tx %d: held instance not taken", i)
		}
	}
	if again := got.Intern(sealNet, lookup); again != got {
		t.Fatal("interning an interned set built another one")
	}
	if same := built.Intern(sealNet, func(stellarcrypto.Hash) *Transaction { return nil }); same != built {
		t.Fatal("a set with nothing held was rebuilt")
	}
}

// insertionSortSnapshot is the routine sortSnapshot replaced, kept as the
// reference for the order it must reproduce.
func insertionSortSnapshot(entries []SnapshotEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Key < entries[j-1].Key; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func TestSortSnapshotMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]SnapshotEntry, 5000)
	for i := range entries {
		var key string
		switch i % 4 {
		case 0:
			key = accountKey(AccountID(fmt.Sprintf("G%07d", i*7919%5000)))
		case 1:
			key = trustlineKeyOf(trustKey{AccountID(fmt.Sprintf("G%07d", i*7919%5000)), "USD|GISSUER"})
		case 2:
			key = offerKey(uint64(i))
		default: // unique like the rest: a bucket never holds one key twice
			key = dataKeyOf(dataKey{AccountID(fmt.Sprintf("G%07d", i)), "k|" + fmt.Sprint(rng.Intn(10))})
		}
		entries[i] = SnapshotEntry{Key: key, Data: []byte{byte(i)}}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	want := append([]SnapshotEntry(nil), entries...)
	insertionSortSnapshot(want)
	sortSnapshot(entries)
	for i := range entries {
		if entries[i].Key != want[i].Key || !bytes.Equal(entries[i].Data, want[i].Data) {
			t.Fatalf("entry %d: %q, insertion sort puts %q there", i, entries[i].Key, want[i].Key)
		}
	}
}

// TestTakeDirtySnapshotScales: 2000 dirty accounts — one pay_saturate
// ledger — must snapshot in milliseconds (the insertion sort alone took 5;
// the bound is loose enough for -race on a loaded machine).
func TestTakeDirtySnapshotScales(t *testing.T) {
	st := NewState()
	for i := 0; i < 2000; i++ {
		id := AccountID(fmt.Sprintf("G%055d", (i*7919)%2000))
		st.createAccount(&AccountEntry{ID: id, Balance: One, Thresholds: DefaultThresholds()})
	}
	start := time.Now()
	snap := st.TakeDirtySnapshot()
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("TakeDirtySnapshot of 2000 entries took %v", d)
	}
	if len(snap) != 2000 {
		t.Fatalf("snapshot holds %d entries, want 2000", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
}
