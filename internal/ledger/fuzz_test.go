package ledger

import (
	"bytes"
	"fmt"
	"testing"

	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
	"stellar/internal/xdr"
)

// FuzzCheckSignatures holds the tentpole's core safety property under
// fuzzing: signature checking through the verification cache must agree
// with direct ed25519 verification on every input — valid envelopes,
// tampered signatures, wrong hints, multisig shortfalls, and arbitrary
// decoded bytes alike — whether the cache is cold or warm. The cache
// memoizes a pure function, so any disagreement is a bug.

// fuzzSigFixture carries two identical ledger states: ref verifies
// without a cache (the retained sequential reference), cached goes
// through a shared verify.Cache that warms up across fuzz iterations.
type fuzzSigFixture struct {
	networkID stellarcrypto.Hash
	keys      []stellarcrypto.KeyPair
	ids       []AccountID
	ref       *State
	cached    *State
}

func newFuzzSigFixture(tb testing.TB) *fuzzSigFixture {
	fx := &fuzzSigFixture{
		networkID: stellarcrypto.HashBytes([]byte("fuzz-checksig-network")),
	}
	for i := 0; i < 3; i++ {
		kp := stellarcrypto.KeyPairFromString("fuzz-checksig-" + string(rune('a'+i)))
		fx.keys = append(fx.keys, kp)
		fx.ids = append(fx.ids, AccountIDFromPublicKey(kp.Public))
	}
	build := func(v *verify.Verifier) *State {
		master := AccountIDFromPublicKey(stellarcrypto.KeyPairFromString("fuzz-checksig-master").Public)
		st := NewGenesisState(master)
		env := &ApplyEnv{LedgerSeq: 2}
		for _, id := range fx.ids {
			op := &CreateAccount{Destination: id, StartingBalance: 100 * One}
			if err := op.Apply(st, env, master); err != nil {
				tb.Fatal(err)
			}
		}
		// Account 1 is 2-of-2 multisig for medium operations: master key
		// (weight 1) plus account 2's key (weight 1).
		a := st.accounts[fx.ids[1]]
		a.setSigner(fx.ids[2], 1)
		a.Thresholds.Medium = 2
		if v != nil {
			st.SetVerifier(v)
		}
		return st
	}
	fx.ref = build(nil)
	fx.cached = build(verify.New(1, 1024))
	return fx
}

// txFromBytes turns fuzz input into a transaction. Well-formed envelope
// encodings are decoded as-is; anything else seeds a generator that
// builds structurally valid transactions with byte-driven faults, so the
// interesting verification paths (valid multisig, tampered signatures,
// corrupted hints) are reached constantly rather than by decoder luck.
func (fx *fuzzSigFixture) txFromBytes(data []byte) *Transaction {
	if tx, err := DecodeSignedTransactionXDR(data); err == nil {
		return tx
	}
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := len(fx.ids)
	src := int(at(0)) % n
	tx := &Transaction{
		Source: fx.ids[src],
		Fee:    200,
		SeqNum: uint64(2)<<32 + 1,
	}
	switch at(1) % 3 {
	case 0: // medium threshold — multisig on account 1
		tx.Operations = []Operation{{Body: &Payment{
			Destination: fx.ids[(src+1)%n], Asset: NativeAsset(), Amount: 1}}}
	case 1: // high threshold
		tx.Operations = []Operation{{Body: &SetOptions{}}}
	default: // low threshold, plus a cross-source op
		tx.Operations = []Operation{
			{Body: &BumpSequence{BumpTo: uint64(at(6))}},
			{Source: fx.ids[(src+1)%n], Body: &BumpSequence{BumpTo: 1}},
		}
	}
	// Sign with up to three byte-selected keys (possibly wrong ones,
	// possibly duplicates).
	for i := 0; i < 1+int(at(2))%3; i++ {
		tx.Sign(fx.networkID, fx.keys[int(at(3+i))%n])
	}
	if at(5)&1 != 0 && len(tx.Signatures) > 0 {
		// Tamper with one signature byte.
		s := tx.Signatures[int(at(6))%len(tx.Signatures)]
		s.Sig = append([]byte(nil), s.Sig...)
		s.Sig[int(at(7))%len(s.Sig)] ^= 1 + at(8)
		tx.Signatures[int(at(6))%len(tx.Signatures)] = s
	}
	if at(5)&2 != 0 && len(tx.Signatures) > 0 {
		// Corrupt a hint: must cost only the fallback scan, never change
		// the verdict.
		tx.Signatures[0].Hint = [4]byte{at(9), at(10), at(11), at(12)}
	}
	return tx
}

func FuzzCheckSignatures(f *testing.F) {
	fx := newFuzzSigFixture(f)

	// Seed with a valid single-sig envelope, a satisfied multisig
	// envelope, and generator-path bytes for each fault combination.
	valid := &Transaction{Source: fx.ids[0], Fee: 200, SeqNum: uint64(2)<<32 + 1,
		Operations: []Operation{{Body: &Payment{Destination: fx.ids[1], Asset: NativeAsset(), Amount: 1}}}}
	valid.Sign(fx.networkID, fx.keys[0])
	f.Add(valid.MarshalSignedXDR())
	multi := &Transaction{Source: fx.ids[1], Fee: 200, SeqNum: uint64(2)<<32 + 1,
		Operations: []Operation{{Body: &Payment{Destination: fx.ids[0], Asset: NativeAsset(), Amount: 1}}}}
	multi.Sign(fx.networkID, fx.keys[1])
	multi.Sign(fx.networkID, fx.keys[2])
	f.Add(multi.MarshalSignedXDR())
	for _, seed := range [][]byte{
		{0, 0, 1},
		{1, 0, 2, 1, 2, 0},
		{1, 1, 1, 0, 0, 1, 3, 7, 9},
		{2, 2, 2, 2, 1, 2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tx := fx.txFromBytes(data)
		errRef := tx.checkSignatures(fx.ref, fx.networkID)
		errCold := tx.checkSignatures(fx.cached, fx.networkID)
		errWarm := tx.checkSignatures(fx.cached, fx.networkID)
		if (errRef == nil) != (errCold == nil) || (errRef == nil) != (errWarm == nil) {
			t.Fatalf("cached and uncached verification disagree:\n ref:  %v\n cold: %v\n warm: %v",
				errRef, errCold, errWarm)
		}
		if errRef != nil && (errRef.Error() != errCold.Error() || errRef.Error() != errWarm.Error()) {
			t.Fatalf("error text diverges (flows into the results hash):\n ref:  %v\n cold: %v\n warm: %v",
				errRef, errCold, errWarm)
		}
	})
}

// FuzzTxSetRefResolve holds proposals by reference to their promise under
// arbitrary references and pools: a reference that resolves yields a set
// that hashes to the reference's SetHash and is made of the pool's own
// sealed instances, byte for byte the envelopes the digest names. A
// reference either arrives as raw bytes through DecodeTxSetRefXDR or is
// built from the input over a fixed set of transactions, listing known and
// unknown hashes under an honest or a forged digest. The pool holds each
// transaction as its own sealed copy, as a copy signed differently (same
// hash, other bytes), unsealed, as another transaction, or not at all.
func FuzzTxSetRefResolve(f *testing.F) {
	nid := stellarcrypto.HashBytes([]byte("fuzz-txsetref-network"))
	type variants struct{ own, resigned, unsealed *Transaction }
	var txs []variants
	for i := 0; i < 8; i++ {
		kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("fuzz-txsetref-%d", i%3))
		tx := &Transaction{Source: AccountIDFromPublicKey(kp.Public), Fee: 100, SeqNum: uint64(i + 1),
			Operations: []Operation{{Body: &BumpSequence{BumpTo: uint64(i)}}}}
		tx.Sign(nid, kp)
		own, err := DecodeSignedTransactionXDR(tx.MarshalSignedXDR())
		if err != nil {
			f.Fatal(err)
		}
		own.Seal(nid)
		unsealed := &Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum, Operations: tx.Operations, Signatures: tx.Signatures}
		resigned := &Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum, Operations: tx.Operations,
			Signatures: []DecoratedSignature{tx.Signatures[0]}}
		resigned.Signatures[0].Hint[0] ^= 0xff // no signature covers the hint
		resigned.Seal(nid)
		txs = append(txs, variants{own, resigned, unsealed})
	}

	honest := &TxSet{PrevLedgerHash: nid, Txs: []*Transaction{txs[2].own, txs[0].own, txs[5].own}}
	e := xdr.NewEncoder(256)
	honest.Ref(nid).EncodeXDR(e)
	f.Add(bytes.Clone(e.Bytes()))
	// Generated references: byte 0 the length, byte 1 the proposer's
	// copies and digest, bytes 2–9 how the pool holds each transaction,
	// byte 10 the previous ledger, bytes 11.. the listed transactions.
	for _, seed := range [][]byte{
		{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2},    // three own copies, honest digest
		{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 7}, // four
		{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},       // the proposer signed one differently
		{2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},       // ... and the pool holds that copy
		{2, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 1},       // the pool holds odd copies
		{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf3, 2}, // an unknown hash
		{2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 1},       // a forged digest
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // the empty set
		{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},    // a hash listed twice
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pool := map[stellarcrypto.Hash]*Transaction{}
		for j, v := range txs {
			var held *Transaction
			switch at(2+j) % 5 {
			case 0:
				held = v.own
			case 1:
				held = v.resigned
			case 2:
				held = v.unsealed
			case 3:
				held = txs[(j+1)%len(txs)].own
			}
			if held != nil {
				pool[v.own.Hash(nid)] = held
			}
		}

		d := xdr.NewDecoder(data)
		ref, err := DecodeTxSetRefXDR(d)
		if err != nil || !d.Done() {
			ref = &TxSetRef{PrevLedgerHash: stellarcrypto.HashBytes([]byte{at(10)})}
			var proposed []*Transaction
			for i := 0; i < int(at(0)%12); i++ {
				b := at(11 + i)
				if b >= 0xf0 {
					ref.TxHashes = append(ref.TxHashes, stellarcrypto.HashBytes([]byte{b, byte(i)}))
					continue
				}
				tx := txs[int(b)%len(txs)].own
				if at(1)&1 != 0 && i == 0 {
					tx = txs[int(b)%len(txs)].resigned
				}
				ref.TxHashes = append(ref.TxHashes, tx.Hash(nid))
				proposed = append(proposed, tx)
			}
			ref.EnvelopeDigest = envelopeDigest(proposed)
			if at(1)&4 != 0 {
				ref.EnvelopeDigest[0] ^= at(10) | 1
			}
		}

		got := ref.Resolve(nid, func(h stellarcrypto.Hash) *Transaction { return pool[h] })
		if got == nil {
			return
		}
		if len(got.Txs) != len(ref.TxHashes) {
			t.Fatalf("resolved %d transactions from a reference listing %d", len(got.Txs), len(ref.TxHashes))
		}
		for i, tx := range got.Txs {
			if own := pool[ref.TxHashes[i]]; tx != own || tx.seal.wire == nil {
				t.Fatalf("element %d is not the pool's own sealed instance", i)
			}
		}
		if envelopeDigest(got.Txs) != ref.EnvelopeDigest {
			t.Fatal("the resolved envelopes do not hash to the reference's digest")
		}
		// What the set encodes to is the pool's envelope bytes, and it
		// hashes, decoded afresh, to the set the reference names.
		enc := xdr.NewEncoder(1024)
		got.EncodeXDR(enc)
		want := xdr.NewEncoder(1024)
		want.PutFixed(ref.PrevLedgerHash[:])
		want.PutUint32(uint32(len(got.Txs)))
		for _, h := range ref.TxHashes {
			want.PutFixed(pool[h].seal.wire)
		}
		if !bytes.Equal(enc.Bytes(), want.Bytes()) {
			t.Fatal("the resolved set does not encode to the pool's envelope bytes")
		}
		dd := xdr.NewDecoder(enc.Bytes())
		fresh, err := DecodeTxSetXDR(dd)
		if err != nil || !dd.Done() {
			t.Fatalf("the resolved set does not decode: %v", err)
		}
		if fresh.Hash(nid) != ref.SetHash() || got.Hash(nid) != ref.SetHash() {
			t.Fatalf("resolved set hashes to %s, the reference names %s", fresh.Hash(nid).Hex(), ref.SetHash().Hex())
		}
	})
}
