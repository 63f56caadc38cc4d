package ledger_test

// Property test for proposals by reference: whatever a receiver holds, the
// set it rebuilds from a reference is the proposer's set byte for byte, or
// it rebuilds nothing and fetches. A world-against-world comparison with
// whole-set flooding is not possible — the two send different messages, so
// a seeded simulator's schedules diverge at once — and this is the property
// such a comparison would have been after. The sets are the conflictGen
// modes of pipeline_test.go, 50 seeds each. Run under -race via `make race`.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

func encodeSet(ts *ledger.TxSet) []byte {
	e := xdr.NewEncoder(1 << 12)
	ts.EncodeXDR(e)
	return bytes.Clone(e.Bytes())
}

// ownCopy is the transaction as another node holds it: decoded from the
// wire and sealed at its own door.
func ownCopy(t *testing.T, tx *ledger.Transaction, nid stellarcrypto.Hash) *ledger.Transaction {
	t.Helper()
	own, err := ledger.DecodeSignedTransactionXDR(tx.MarshalSignedXDR())
	if err != nil {
		t.Fatal(err)
	}
	own.Seal(nid)
	return own
}

// resigned is tx with the same payload — the same hash — under other
// signature bytes: the hint, which no signature covers, is flipped.
func resigned(tx *ledger.Transaction, nid stellarcrypto.Hash) *ledger.Transaction {
	cp := &ledger.Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum, TimeBounds: tx.TimeBounds,
		Memo: tx.Memo, Operations: tx.Operations}
	for _, s := range tx.Signatures {
		s.Hint[0] ^= 0xff
		cp.Signatures = append(cp.Signatures, s)
	}
	if len(cp.Signatures) == 0 {
		cp.Signatures = []ledger.DecoratedSignature{{Sig: []byte{1}}}
	}
	cp.Seal(nid)
	return cp
}

func TestTxSetRefResolvesToTheProposersBytesOrNothing(t *testing.T) {
	const seeds = 50
	const setsPerSeed = 3
	modes := []string{"hot-destination", "same-source-chains", "offer-path-mix", "merge-then-pay", "rotate-signers-then-pay"}
	for mode, name := range modes {
		mode := mode
		for seed := int64(0); seed < seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				f := newPipeFixture(seed)
				nid := f.networkID
				g := &conflictGen{f: f}
				prev := stellarcrypto.HashBytes([]byte(name))
				if mode == 3 {
					g.createDisposables(seed, prev, 4)
				}
				for l := 0; l < setsPerSeed; l++ {
					ts := g.txSet(rng, prev, mode, uint32(5+l))
					if len(ts.Txs) == 0 {
						t.Fatal("setup: empty set")
					}
					for _, tx := range ts.Txs {
						tx.Seal(nid) // as the proposer's pool holds it
					}
					want, wantHash := encodeSet(ts), ts.Hash(nid)

					ref := ts.Ref(nid)
					if ref.SetHash() != wantHash {
						t.Fatalf("reference names set %s, the set hashes to %s", ref.SetHash(), wantHash)
					}
					// What the receiver works from went over the wire.
					e := xdr.NewEncoder(64)
					ref.EncodeXDR(e)
					d := xdr.NewDecoder(e.Bytes())
					wired, err := ledger.DecodeTxSetRefXDR(d)
					if err != nil || !d.Done() {
						t.Fatalf("reference does not survive its codec: %v", err)
					}
					if wired.SetHash() != wantHash {
						t.Fatal("decoded reference names another set")
					}

					all := make(map[stellarcrypto.Hash]*ledger.Transaction, len(ts.Txs))
					for _, tx := range ts.Txs {
						all[tx.Hash(nid)] = ownCopy(t, tx, nid)
					}
					victim := ts.Txs[rng.Intn(len(ts.Txs))].Hash(nid)
					holders := []struct {
						name    string
						held    func(stellarcrypto.Hash) *ledger.Transaction
						resolve bool
					}{
						{"holds all", func(h stellarcrypto.Hash) *ledger.Transaction { return all[h] }, true},
						{"lacks one", func(h stellarcrypto.Hash) *ledger.Transaction {
							if h == victim {
								return nil
							}
							return all[h]
						}, false},
						{"lacks some", func(h stellarcrypto.Hash) *ledger.Transaction {
							if h[0]&1 == victim[0]&1 {
								return nil
							}
							return all[h]
						}, false},
						{"one signed differently", func(h stellarcrypto.Hash) *ledger.Transaction {
							if h == victim {
								return resigned(all[h], nid)
							}
							return all[h]
						}, false},
						{"one never sealed", func(h stellarcrypto.Hash) *ledger.Transaction {
							if tx := all[h]; h == victim {
								return &ledger.Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum, TimeBounds: tx.TimeBounds,
									Memo: tx.Memo, Operations: tx.Operations, Signatures: tx.Signatures}
							}
							return all[h]
						}, false},
						{"answers with another transaction", func(h stellarcrypto.Hash) *ledger.Transaction {
							if h == victim {
								return all[ts.Txs[0].Hash(nid)]
							}
							return all[h]
						}, victim == ts.Txs[0].Hash(nid)},
					}
					for _, hd := range holders {
						got := wired.Resolve(nid, hd.held)
						if (got != nil) != hd.resolve {
							t.Fatalf("set %d, receiver %q: resolved=%v, want %v", l, hd.name, got != nil, hd.resolve)
						}
						if got == nil {
							continue
						}
						if got.Hash(nid) != wantHash || !bytes.Equal(encodeSet(got), want) {
							t.Fatalf("set %d, receiver %q: rebuilt set is not the proposer's", l, hd.name)
						}
						for i, tx := range got.Txs {
							if tx != all[ts.Txs[i].Hash(nid)] {
								t.Fatalf("set %d, receiver %q: element %d is not the receiver's own instance", l, hd.name, i)
							}
						}
					}
				}
			})
		}
	}
}

// TestTxSetRefSetHashIsTheSetHash: headers, values and archives keep naming
// sets as they always did, for sealed and hand-built sets alike, in any
// order — and the reference's memo never outlives an edit it cannot see,
// because a reference is never edited.
func TestTxSetRefSetHashIsTheSetHash(t *testing.T) {
	f := newPipeFixture(1)
	nid := f.networkID
	g := &conflictGen{f: f}
	ts := g.txSet(rand.New(rand.NewSource(1)), stellarcrypto.HashBytes([]byte("p")), 1, 5)
	if got := ts.Ref(nid).SetHash(); got != ts.Hash(nid) {
		t.Fatalf("hand-built set: reference names %s, set hashes to %s", got, ts.Hash(nid))
	}
	hand := &ledger.TxSetRef{PrevLedgerHash: ts.PrevLedgerHash}
	for i := range ts.Txs {
		hand.TxHashes = append(hand.TxHashes, ts.Txs[len(ts.Txs)-1-i].Hash(nid))
	}
	if hand.SetHash() != ts.Hash(nid) || !hand.WellFormed() {
		t.Fatal("a reference listing the same transactions in another order names another set")
	}
	ts.Seal(nid)
	if got := ts.Ref(nid).SetHash(); got != ts.Hash(nid) {
		t.Fatal("sealed set: reference names another set")
	}
	empty := &ledger.TxSet{PrevLedgerHash: ts.PrevLedgerHash}
	if empty.Ref(nid).SetHash() != empty.Hash(nid) {
		t.Fatal("empty set: reference names another set")
	}
	if got := empty.Ref(nid).Resolve(nid, func(stellarcrypto.Hash) *ledger.Transaction { return nil }); got == nil || got.Hash(nid) != empty.Hash(nid) {
		t.Fatal("an empty proposal needs nothing held to be rebuilt")
	}
}

// TestDecodeTxSetRefRejectsHostile: the strict codec refuses what TxSet.Ref
// cannot produce, before allocating for a count the input does not back.
func TestDecodeTxSetRefRejectsHostile(t *testing.T) {
	h := func(s string) stellarcrypto.Hash { return stellarcrypto.HashBytes([]byte(s)) }
	encode := func(count uint32, hashes []stellarcrypto.Hash, tail int) []byte {
		out := make([]byte, 32) // previous ledger hash
		out = binary.BigEndian.AppendUint32(out, count)
		for _, x := range hashes {
			out = append(out, x[:]...)
		}
		return append(out, make([]byte, tail)...)
	}
	good := encode(2, []stellarcrypto.Hash{h("a"), h("b")}, 32)
	d := xdr.NewDecoder(good)
	if ref, err := ledger.DecodeTxSetRefXDR(d); err != nil || !d.Done() || len(ref.TxHashes) != 2 {
		t.Fatalf("well-formed reference: %v", err)
	}
	cases := map[string][]byte{
		"empty":                   {},
		"count over the cap":      encode(1<<16+1, nil, 32),
		"count beyond the input":  encode(1<<16, []stellarcrypto.Hash{h("a")}, 32),
		"digest cut short":        encode(2, []stellarcrypto.Hash{h("a"), h("b")}, 31),
		"no digest":               encode(2, []stellarcrypto.Hash{h("a"), h("b")}, 0),
		"a hash listed twice":     encode(3, []stellarcrypto.Hash{h("a"), h("b"), h("a")}, 32),
		"a hash listed twice (2)": encode(2, []stellarcrypto.Hash{h("a"), h("a")}, 32),
	}
	for name, in := range cases {
		// The least of a few attempts: the counter is the process's.
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ref, err := ledger.DecodeTxSetRefXDR(xdr.NewDecoder(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: accepted: %+v", name, ref)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("%s: refusing %d bytes of input allocated %d bytes", name, len(in), least)
		}
	}
	// Trailing bytes are the container's to refuse: the decoder stops after
	// the digest, and the packet codec demands the input be used up.
	d = xdr.NewDecoder(append(bytes.Clone(good), 0))
	if _, err := ledger.DecodeTxSetRefXDR(d); err != nil || d.Remaining() != 1 {
		t.Fatalf("decoder did not stop after the reference: err %v, %d bytes left", err, d.Remaining())
	}
	// A hand-built reference is judged by the same rule.
	twice := &ledger.TxSetRef{TxHashes: []stellarcrypto.Hash{h("a"), h("a")}}
	if twice.WellFormed() || twice.Resolve(stellarcrypto.Hash{}, func(stellarcrypto.Hash) *ledger.Transaction { return &ledger.Transaction{} }) != nil {
		t.Fatal("a reference listing a transaction twice passed")
	}
}
