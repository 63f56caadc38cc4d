package ledger_test

// Property test for the verification pipeline: across 50 seeds of six
// kinds of transaction set (a random mix and five conflict-heavy
// generators), a state wired with the concurrent verifier (cached
// signature checks, parallel prepass, pooled bucket merges) must produce
// byte-identical TxResults, results hashes, bucket hashes, and ledger
// header hashes to the retained reference (nil verifier, no pool). Run
// under -race via `make race`.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// pipeWorld is one universe under comparison: a ledger state, its bucket
// list, and the chain header it has built up.
type pipeWorld struct {
	st      *ledger.State
	buckets *bucket.List
	hdr     *ledger.Header
}

// closeLedger applies ts as the next ledger and extends the header chain,
// mirroring the herder's applyLedger sequence.
func (w *pipeWorld) closeLedger(t *testing.T, ts *ledger.TxSet, networkID stellarcrypto.Hash, closeTime int64) ([]ledger.TxResult, stellarcrypto.Hash) {
	t.Helper()
	seq := w.hdr.LedgerSeq + 1
	results, resultsHash := w.st.ApplyTxSet(ts, networkID, &ledger.ApplyEnv{LedgerSeq: seq, CloseTime: closeTime})
	w.buckets.AddBatch(seq, w.st.TakeDirtySnapshot())
	hdr := ledger.NextHeader(w.hdr, w.hdr.Hash())
	hdr.TxSetHash = ts.Hash(networkID)
	hdr.ResultsHash = resultsHash
	hdr.SnapshotHash = w.buckets.Hash()
	hdr.CloseTime = closeTime
	hdr.FeePool = w.st.FeePool
	w.hdr = hdr
	return results, resultsHash
}

// pipeFixture holds the deterministic cast shared by both worlds.
type pipeFixture struct {
	networkID stellarcrypto.Hash
	master    stellarcrypto.KeyPair
	keys      []stellarcrypto.KeyPair
	ids       []ledger.AccountID
	usd       ledger.Asset
	// seqs tracks the next expected sequence number per account while
	// generating transactions.
	seqs map[ledger.AccountID]uint64
}

func (f *pipeFixture) id(i int) ledger.AccountID { return f.ids[i] }

// buildWorld constructs one universe and plays the deterministic setup
// ledger through its own pipeline: funded accounts, a USD trustline per
// account, issued balances, and one account with an extra signer.
func (f *pipeFixture) buildWorld(t *testing.T, v *verify.Verifier) *pipeWorld {
	t.Helper()
	masterID := ledger.AccountIDFromPublicKey(f.master.Public)
	st := ledger.NewGenesisState(masterID)
	w := &pipeWorld{st: st, buckets: bucket.NewList()}
	if v != nil {
		st.SetVerifier(v)
		w.buckets.SetPool(v.Pool)
	}
	w.buckets.AddBatch(1, st.SnapshotAll())
	st.TakeDirtySnapshot()
	w.hdr = ledger.GenesisHeader(st, 1_000)
	w.hdr.SnapshotHash = w.buckets.Hash()

	// Transactions within a set apply in source order, not dependency
	// order, so the setup runs as three ledgers: fund, then trustlines,
	// then issuance.
	apply := func(closeTime int64, txs ...*ledger.Transaction) {
		ts := &ledger.TxSet{PrevLedgerHash: w.hdr.Hash(), Txs: txs}
		results, _ := w.closeLedger(t, ts, f.networkID, closeTime)
		for i, r := range results {
			if !r.Success {
				t.Fatalf("setup tx %d failed: %s %v", i, r.Err, r.OpErrors)
			}
		}
	}

	fund := &ledger.Transaction{Source: masterID, SeqNum: 1}
	for _, id := range f.ids {
		fund.Operations = append(fund.Operations,
			ledger.Operation{Body: &ledger.CreateAccount{Destination: id, StartingBalance: 10_000 * ledger.One}})
	}
	fund.Fee = st.MinFee(fund)
	fund.Sign(f.networkID, f.master)
	apply(2_000, fund)

	// Each non-issuer account trusts USD, and account 1 gains account
	// 2's key as a delegated signer.
	var trusts []*ledger.Transaction
	for i := 1; i < len(f.ids); i++ {
		tx := &ledger.Transaction{
			Source: f.ids[i], SeqNum: pipeSeqBase + 1,
			Operations: []ledger.Operation{{Body: &ledger.ChangeTrust{Asset: f.usd, Limit: 1_000_000 * ledger.One}}},
		}
		if i == 1 {
			w := uint8(1)
			tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.SetOptions{
				Signer:       &ledger.Signer{Key: f.ids[2], Weight: 1},
				MasterWeight: &w,
			}})
		}
		tx.Fee = st.MinFee(tx)
		tx.Sign(f.networkID, f.keys[i])
		trusts = append(trusts, tx)
	}
	apply(2_001, trusts...)

	issue := &ledger.Transaction{Source: f.ids[0], SeqNum: pipeSeqBase + 1}
	for i := 1; i < len(f.ids); i++ {
		issue.Operations = append(issue.Operations,
			ledger.Operation{Body: &ledger.Payment{Destination: f.ids[i], Asset: f.usd, Amount: 5_000 * ledger.One}})
	}
	issue.Fee = st.MinFee(issue)
	issue.Sign(f.networkID, f.keys[0])
	apply(2_002, issue)
	return w
}

// newPipeFixture derives the cast for one seed.
func newPipeFixture(seed int64) *pipeFixture {
	f := &pipeFixture{
		networkID: stellarcrypto.HashBytes([]byte("pipeline-property-test")),
		master:    stellarcrypto.KeyPairFromString(fmt.Sprintf("pipe-master-%d", seed)),
		seqs:      make(map[ledger.AccountID]uint64),
	}
	for i := 0; i < 10; i++ {
		kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("pipe-%d-acct-%d", seed, i))
		f.keys = append(f.keys, kp)
		f.ids = append(f.ids, ledger.AccountIDFromPublicKey(kp.Public))
	}
	f.usd = ledger.Asset{Code: "USD", Issuer: f.ids[0]}
	// Accounts are created in ledger 2, so they start at seq 2<<32
	// (CreateAccount seeds SeqNum = ledgerSeq << 32); the setup then
	// consumes one sequence number per account.
	for _, id := range f.ids {
		f.seqs[id] = pipeSeqBase + 2
	}
	return f
}

// pipeSeqBase is the starting sequence number of the fixture's accounts.
const pipeSeqBase = uint64(2) << 32

// randomTxSet generates a mixed, partially-invalid transaction set. The
// returned set deliberately includes forged signatures, zeroed hints,
// stale sequence numbers, underpaid fees, multisig via a delegated
// signer, and operations destined to fail at apply time.
func (f *pipeFixture) randomTxSet(rng *rand.Rand, prev stellarcrypto.Hash, closeTime int64) *ledger.TxSet {
	n := 8 + rng.Intn(12)
	var txs []*ledger.Transaction
	for t := 0; t < n; t++ {
		src := 1 + rng.Intn(len(f.ids)-1)
		tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
		nops := 1 + rng.Intn(3)
		for o := 0; o < nops; o++ {
			dst := 1 + rng.Intn(len(f.ids)-1)
			switch rng.Intn(6) {
			case 0:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.Payment{
					Destination: f.id(dst), Asset: ledger.NativeAsset(),
					Amount: ledger.Amount(1+rng.Intn(100)) * ledger.One}})
			case 1:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.Payment{
					Destination: f.id(dst), Asset: f.usd,
					Amount: ledger.Amount(1+rng.Intn(50)) * ledger.One}})
			case 2:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.ManageOffer{
					Selling: f.usd, Buying: ledger.NativeAsset(),
					Amount: ledger.Amount(1+rng.Intn(20)) * ledger.One,
					Price:  ledger.Price{N: int32(1 + rng.Intn(4)), D: int32(1 + rng.Intn(4))}}})
			case 3:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.ManageOffer{
					Selling: ledger.NativeAsset(), Buying: f.usd,
					Amount: ledger.Amount(1+rng.Intn(20)) * ledger.One,
					Price:  ledger.Price{N: int32(1 + rng.Intn(4)), D: int32(1 + rng.Intn(4))}}})
			case 4:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.PathPayment{
					SendAsset: ledger.NativeAsset(), SendMax: ledger.Amount(1+rng.Intn(50)) * ledger.One,
					Destination: f.id(dst), DestAsset: f.usd,
					DestAmount: ledger.Amount(1+rng.Intn(10)) * ledger.One}})
			default:
				// Payment with a cross-account op source: pulls a second
				// account's signing requirements into the transaction.
				other := 1 + rng.Intn(len(f.ids)-1)
				tx.Operations = append(tx.Operations, ledger.Operation{
					Source: f.id(other),
					Body: &ledger.Payment{Destination: f.id(dst), Asset: ledger.NativeAsset(),
						Amount: ledger.Amount(1+rng.Intn(10)) * ledger.One}})
				if other != src {
					tx.Fee = -1 // mark: needs the other account's signature too
				}
			}
		}
		needsOther := tx.Fee == -1
		tx.Fee = 0
		sigOK, seqOK, feeOK := true, true, true
		switch rng.Intn(8) {
		case 0: // forged signature
			sigOK = false
		case 1: // stale sequence number
			tx.SeqNum--
			seqOK = false
		case 2: // underpaid fee
			feeOK = false
		}
		if feeOK {
			tx.Fee = ledger.Amount(len(tx.Operations))*ledger.DefaultBaseFee + ledger.Amount(rng.Intn(200))
		} else {
			tx.Fee = ledger.DefaultBaseFee / 2
		}
		signers := map[ledger.AccountID]bool{}
		for i := range tx.Operations {
			id := tx.Operations[i].Source
			if id == "" {
				id = tx.Source
			}
			signers[id] = true
		}
		signers[tx.Source] = true
		for i, id := range f.ids {
			if !signers[id] {
				continue
			}
			key := f.keys[i]
			if !sigOK {
				key = stellarcrypto.KeyPairFromString("pipe-forger")
			} else if id == f.id(1) && rng.Intn(2) == 0 {
				key = f.keys[2] // delegated signer for the multisig account
			}
			tx.Sign(f.networkID, key)
		}
		switch rng.Intn(4) {
		case 0: // zeroed hint: must still verify via the fallback scan
			tx.Signatures[0].Hint = [4]byte{}
		case 1: // garbage hint
			tx.Signatures[0].Hint = [4]byte{0xde, 0xad, 0xbe, 0xef}
		}
		if sigOK && seqOK && feeOK && !needsOther {
			f.seqs[tx.Source]++
		} else if needsOther && sigOK && seqOK && feeOK {
			f.seqs[tx.Source]++ // all required signatures were attached
		}
		txs = append(txs, tx)
	}
	return &ledger.TxSet{PrevLedgerHash: prev, Txs: txs}
}

// dispAcct is a disposable account the merge-then-pay generator creates,
// merges away, and recreates; unlike the fixture cast it owns no
// trustlines, so AccountMerge can actually succeed.
type dispAcct struct {
	kp    stellarcrypto.KeyPair
	id    ledger.AccountID
	alive bool
	seq   uint64 // next sequence number while alive
}

// conflictGen produces deliberately conflict-heavy transaction sets: many
// transactions of one set touch the same entries, so each outcome depends
// on the deterministic apply order.
type conflictGen struct {
	f    *pipeFixture
	disp []*dispAcct
	// delegate and voided are the rotate-signers mode's memory: which
	// fixture key an account has added as a signer, and which accounts'
	// master key alone no longer authorises a payment.
	delegate map[ledger.AccountID]int
	voided   map[ledger.AccountID]bool
}

// txSet generates one set for the given mode. ledgerSeq is the sequence
// the set will apply at (CreateAccount seeds SeqNum = ledgerSeq << 32).
// Modes:
//
//	0 — hot destination: every payment lands on one shared account.
//	1 — same-source chains: a few accounts each emit a chained run of
//	    transactions plus payments into shared destinations.
//	2 — offer/path mix: payments interleaved with order-book operations.
//	3 — merge-then-pay races: disposable accounts are merged away while
//	    other transactions in the same set pay them (or re-create them),
//	    or carry an operation the disposable itself signed for, so
//	    success/failure depends entirely on deterministic apply order.
//	4 — rotate signers, then pay: an account emits a SetOptions (add or
//	    remove a signer, raise the medium threshold, zero the master
//	    weight) at its next sequence number and, at the one after, a
//	    payment signed the way that worked before it — alone, or as the
//	    source of an operation in another account's transaction. Applied
//	    as one set the payment meets the new rules at once; fed to a pool
//	    it waits out a ledger, already proven under the old rules, while
//	    the SetOptions applies.
func (g *conflictGen) txSet(rng *rand.Rand, prev stellarcrypto.Hash, mode int, ledgerSeq uint32) *ledger.TxSet {
	f := g.f
	var txs []*ledger.Transaction
	// emit finalizes one transaction: fee, optional forged signature (the
	// failure paths must stay byte-identical too), and seq bookkeeping.
	emit := func(tx *ledger.Transaction, key stellarcrypto.KeyPair, bumpSeq func()) {
		tx.Fee = ledger.Amount(len(tx.Operations))*ledger.DefaultBaseFee + ledger.Amount(rng.Intn(100))
		if mode != 3 && rng.Intn(8) == 0 {
			tx.Sign(f.networkID, stellarcrypto.KeyPairFromString("conflict-forger"))
		} else {
			tx.Sign(f.networkID, key)
			bumpSeq()
		}
		txs = append(txs, tx)
	}
	pay := func(dst ledger.AccountID, usd bool) ledger.Operation {
		asset := ledger.NativeAsset()
		if usd {
			asset = f.usd
		}
		return ledger.Operation{Body: &ledger.Payment{
			Destination: dst, Asset: asset,
			Amount: ledger.Amount(1+rng.Intn(40)) * ledger.One}}
	}
	switch mode {
	case 0: // hot destination
		hot := f.id(1 + rng.Intn(3))
		n := 10 + rng.Intn(8)
		for t := 0; t < n; t++ {
			src := 1 + rng.Intn(len(f.ids)-1)
			tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
			nops := 1 + rng.Intn(2)
			for o := 0; o < nops; o++ {
				if rng.Intn(4) == 0 {
					tx.Operations = append(tx.Operations, pay(f.id(1+rng.Intn(len(f.ids)-1)), false))
				} else {
					tx.Operations = append(tx.Operations, pay(hot, rng.Intn(3) == 0))
				}
			}
			emit(tx, f.keys[src], func() { f.seqs[tx.Source]++ })
		}
	case 1: // same-source chains into shared destinations
		for c := 0; c < 3; c++ {
			src := 1 + rng.Intn(len(f.ids)-1)
			shared := f.id(1 + rng.Intn(len(f.ids)-1))
			chain := 4 + rng.Intn(3)
			for t := 0; t < chain; t++ {
				tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
				tx.Operations = append(tx.Operations, pay(shared, rng.Intn(4) == 0))
				if rng.Intn(3) == 0 {
					tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.ManageData{
						Name: fmt.Sprintf("k%d", rng.Intn(3)), Value: []byte{byte(rng.Intn(256))}}})
				}
				if rng.Intn(4) == 0 {
					tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.BumpSequence{
						BumpTo: f.seqs[f.id(src)] + uint64(rng.Intn(2))}})
				}
				emit(tx, f.keys[src], func() { f.seqs[tx.Source]++ })
			}
		}
	case 2: // payments interleaved with order-book operations
		n := 10 + rng.Intn(8)
		for t := 0; t < n; t++ {
			src := 1 + rng.Intn(len(f.ids)-1)
			tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
			switch rng.Intn(4) {
			case 0:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.ManageOffer{
					Selling: f.usd, Buying: ledger.NativeAsset(),
					Amount: ledger.Amount(1+rng.Intn(20)) * ledger.One,
					Price:  ledger.Price{N: int32(1 + rng.Intn(4)), D: int32(1 + rng.Intn(4))}}})
			case 1:
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.PathPayment{
					SendAsset: ledger.NativeAsset(), SendMax: ledger.Amount(1+rng.Intn(50)) * ledger.One,
					Destination: f.id(1 + rng.Intn(len(f.ids)-1)), DestAsset: f.usd,
					DestAmount: ledger.Amount(1+rng.Intn(10)) * ledger.One}})
			default:
				tx.Operations = append(tx.Operations, pay(f.id(1+rng.Intn(len(f.ids)-1)), rng.Intn(3) == 0))
			}
			emit(tx, f.keys[src], func() { f.seqs[tx.Source]++ })
		}
	case 3: // merge-then-pay races over the disposable cast
		for di, d := range g.disp {
			if d.alive {
				// Payments out of the disposable, then maybe merge it away.
				if rng.Intn(2) == 0 {
					tx := &ledger.Transaction{Source: d.id, SeqNum: d.seq}
					tx.Operations = append(tx.Operations, pay(f.id(1+rng.Intn(len(f.ids)-1)), false))
					emit(tx, d.kp, func() { d.seq++ })
				}
				if rng.Intn(2) == 0 {
					// The disposable signs for an operation inside a fixture
					// account's transaction, queued behind a filler: in a pool
					// it is still waiting, already proven, when the merge
					// below removes the account whose key vouched for it.
					src := f.id(5 + di)
					filler := &ledger.Transaction{Source: src, SeqNum: f.seqs[src],
						Operations: []ledger.Operation{pay(f.id(1), false)}}
					emit(filler, f.keys[5+di], func() { f.seqs[src]++ })
					op := pay(f.id(2), false)
					op.Source = d.id
					cross := &ledger.Transaction{Source: src, SeqNum: f.seqs[src],
						Operations: []ledger.Operation{op}}
					emit(cross, f.keys[5+di], func() { f.seqs[src]++ })
					cross.Sign(f.networkID, d.kp)
				}
				if rng.Intn(2) == 0 {
					tx := &ledger.Transaction{Source: d.id, SeqNum: d.seq}
					tx.Operations = append(tx.Operations, ledger.Operation{
						Body: &ledger.AccountMerge{Destination: f.id(1 + rng.Intn(len(f.ids)-1))}})
					emit(tx, d.kp, func() { d.seq++; d.alive = false })
				}
			} else if rng.Intn(2) == 0 {
				// Revive: a fixture account re-creates the merged account in
				// the very set where others may still be paying it.
				src := 3 + rng.Intn(len(f.ids)-3)
				tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
				tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.CreateAccount{
					Destination: d.id, StartingBalance: 200 * ledger.One}})
				emit(tx, f.keys[src], func() {
					f.seqs[tx.Source]++
					d.alive = true
					d.seq = uint64(ledgerSeq)<<32 + 1
				})
			}
			// Payments into the disposable from the fixture cast — racing
			// the merge/recreate above; they succeed or fail purely by
			// deterministic apply order.
			if rng.Intn(2) == 0 {
				src := 1 + rng.Intn(2)
				if src == di%2+1 { // vary sources across disposables
					src += 2
				}
				tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)]}
				tx.Operations = append(tx.Operations, pay(d.id, false))
				emit(tx, f.keys[src], func() { f.seqs[tx.Source]++ })
			}
		}
	case 4: // rotate signers, then pay the old way
		if g.delegate == nil {
			g.delegate, g.voided = map[ledger.AccountID]int{}, map[ledger.AccountID]bool{}
		}
		two := uint8(2)
		zero := uint8(0)
		for _, pi := range rng.Perm(len(f.ids) - 3)[:3] {
			x := 3 + pi
			id := f.id(x)
			if g.voided[id] {
				continue
			}
			so := &ledger.SetOptions{}
			oldKey := f.keys[x] // what authorised a payment before the SetOptions
			switch y, kind := g.delegate[id], rng.Intn(4); {
			case kind <= 1 && y == 0: // add a signer: the old way keeps working
				y = 1 + rng.Intn(len(f.ids)-1)
				if y == x {
					y = 1 + x%(len(f.ids)-1)
				}
				so.Signer = &ledger.Signer{Key: f.id(y), Weight: 1}
				g.delegate[id] = y
			case kind <= 1: // remove the signer whose key signs the payment
				so.Signer = &ledger.Signer{Key: f.id(y), Weight: 0}
				oldKey = f.keys[y]
				delete(g.delegate, id)
			case kind == 2: // payments now need more weight than the master key has
				so.MedThreshold = &two
				g.voided[id] = true
			default: // the master key stops counting at all
				so.MasterWeight = &zero
				g.voided[id] = true
			}
			rotate := &ledger.Transaction{Source: id, SeqNum: f.seqs[id],
				Operations: []ledger.Operation{{Body: so}}}
			emit(rotate, f.keys[x], func() { f.seqs[id]++ })
			if z := 3 + rng.Intn(len(f.ids)-3); rng.Intn(2) == 0 && z != x && !g.voided[f.id(z)] {
				// The old key signs for an operation inside z's transaction,
				// queued behind a filler so it too waits a ledger.
				zid := f.id(z)
				filler := &ledger.Transaction{Source: zid, SeqNum: f.seqs[zid],
					Operations: []ledger.Operation{pay(f.id(1), false)}}
				emit(filler, f.keys[z], func() { f.seqs[zid]++ })
				op := pay(f.id(2), false)
				op.Source = id
				cross := &ledger.Transaction{Source: zid, SeqNum: f.seqs[zid],
					Operations: []ledger.Operation{op}}
				emit(cross, f.keys[z], func() { f.seqs[zid]++ })
				cross.Sign(f.networkID, oldKey)
			} else {
				after := &ledger.Transaction{Source: id, SeqNum: f.seqs[id],
					Operations: []ledger.Operation{pay(f.id(1+rng.Intn(2)), rng.Intn(4) == 0)}}
				emit(after, oldKey, func() { f.seqs[id]++ })
			}
		}
		// Bystanders keep the ledgers busy with payments nothing voids.
		for _, src := range []int{1, 2} {
			tx := &ledger.Transaction{Source: f.id(src), SeqNum: f.seqs[f.id(src)],
				Operations: []ledger.Operation{pay(f.id(3+rng.Intn(len(f.ids)-3)), false)}}
			emit(tx, f.keys[src], func() { f.seqs[tx.Source]++ })
		}
	}
	return &ledger.TxSet{PrevLedgerHash: prev, Txs: txs}
}

// createDisposables returns the set that creates the merge-race cast, to
// apply at ledgerSeq: four accounts, each funded by a distinct fixture
// account.
func (g *conflictGen) createDisposables(seed int64, prev stellarcrypto.Hash, ledgerSeq uint32) *ledger.TxSet {
	f := g.f
	var creates []*ledger.Transaction
	for i := 0; i < 4; i++ {
		kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("pipe-%d-disp-%d", seed, i))
		d := &dispAcct{kp: kp, id: ledger.AccountIDFromPublicKey(kp.Public),
			alive: true, seq: uint64(ledgerSeq)<<32 + 1}
		g.disp = append(g.disp, d)
		src := f.id(3 + i)
		tx := &ledger.Transaction{Source: src, SeqNum: f.seqs[src]}
		tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.CreateAccount{
			Destination: d.id, StartingBalance: 500 * ledger.One}})
		tx.Fee = ledger.Amount(len(tx.Operations)) * ledger.DefaultBaseFee
		tx.Sign(f.networkID, f.keys[3+i])
		f.seqs[src]++
		creates = append(creates, tx)
	}
	return &ledger.TxSet{PrevLedgerHash: prev, Txs: creates}
}

// TestVerifierPipelineMatchesReference closes the same ledgers on a
// reference world (no verifier: direct, uncached, sequential checks) and
// on a world wired with verify.New(4, …), and demands byte-identical
// results, results hashes, bucket hashes and header hashes. The inputs are
// randomTxSet and the five conflictGen modes, 50 seeds each.
func TestVerifierPipelineMatchesReference(t *testing.T) {
	const seeds = 50
	const ledgersPerSeed = 4
	inputs := []struct {
		name string
		mode int // conflictGen mode; -1 is randomTxSet
	}{{"random", -1}, {"hot-destination", 0}, {"same-source-chains", 1}, {"offer-path-mix", 2},
		{"merge-then-pay", 3}, {"rotate-signers-then-pay", 4}}
	for _, in := range inputs {
		mode := in.mode
		for seed := int64(0); seed < seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", in.name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				f := newPipeFixture(seed)
				v := verify.New(4, 1<<12)
				ref := f.buildWorld(t, nil)
				piped := f.buildWorld(t, v)
				if ref.hdr.Hash() != piped.hdr.Hash() {
					t.Fatalf("setup ledger headers diverged")
				}
				// closeBoth applies one set to both worlds and demands byte equality.
				closeBoth := func(l int, ts *ledger.TxSet, closeTime int64) {
					refResults, refRH := ref.closeLedger(t, ts, f.networkID, closeTime)
					results, rh := piped.closeLedger(t, ts, f.networkID, closeTime)
					if !reflect.DeepEqual(refResults, results) {
						for j := range refResults {
							if !reflect.DeepEqual(refResults[j], results[j]) {
								t.Errorf("ledger %d tx %d: reference %+v != pipeline %+v",
									l, j, refResults[j], results[j])
							}
						}
						t.Fatalf("ledger %d: results diverged", l)
					}
					if refRH != rh {
						t.Fatalf("ledger %d: results hashes diverged", l)
					}
					if ref.buckets.Hash() != piped.buckets.Hash() {
						t.Fatalf("ledger %d: bucket list hashes diverged", l)
					}
					if ref.hdr.Hash() != piped.hdr.Hash() {
						t.Fatalf("ledger %d: header hashes diverged", l)
					}
				}
				g := &conflictGen{f: f}
				if mode == 3 {
					closeBoth(-1, g.createDisposables(seed, ref.hdr.Hash(), ref.hdr.LedgerSeq+1), 2_500)
				}
				for l := 0; l < ledgersPerSeed; l++ {
					closeTime := int64(3_000 + l)
					var ts *ledger.TxSet
					if mode < 0 {
						ts = f.randomTxSet(rng, ref.hdr.Hash(), closeTime)
					} else {
						ts = g.txSet(rng, ref.hdr.Hash(), mode, ref.hdr.LedgerSeq+1)
					}
					closeBoth(l, ts, closeTime)
				}
				// The pipeline world must actually have exercised the cache.
				if st := v.Cache.Stats(); st.Misses == 0 {
					t.Fatalf("pipeline never touched the cache: %+v", st)
				}
			})
		}
	}
}

// TestApplyDropsTheSetsVerdicts: the verdicts admission cached for a set's
// transactions answer every signature check of the apply loop, and leave the
// cache with it — under the keys the loop's own lookups computed — while the
// verdict of a pooled transaction the set does not carry stays.
func TestApplyDropsTheSetsVerdicts(t *testing.T) {
	f := newPipeFixture(1)
	nid := f.networkID
	v := verify.New(1, 1<<12)
	w := f.buildWorld(t, v)
	if st := v.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("setup ledgers left %d verdicts cached", st.Entries)
	}
	g := &conflictGen{f: f}
	ts := g.txSet(rand.New(rand.NewSource(1)), w.hdr.Hash(), 0, w.hdr.LedgerSeq+1)
	pending := &ledger.Transaction{Source: f.id(0), Fee: ledger.DefaultBaseFee, SeqNum: 1 << 40,
		Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: f.id(1), Asset: ledger.NativeAsset(), Amount: 1}}}}
	pending.Sign(nid, f.keys[0])
	for _, tx := range append([]*ledger.Transaction{pending}, ts.Txs...) {
		if err := w.st.CheckSignatures(tx, nid); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	before := v.Cache.Stats()
	w.closeLedger(t, ts, nid, 3_000)
	after := v.Cache.Stats()
	if after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("apply looked up %d verdicts and missed %d, want every one found", after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if after.Entries != 1 {
		t.Fatalf("%d verdicts cached after apply, want the pending transaction's alone", after.Entries)
	}
	h := pending.Hash(nid)
	if !v.Cache.Contains(f.keys[0].Public, h[:], pending.Signatures[0].Sig) {
		t.Fatal("the pending transaction's verdict left with the applied set's")
	}
}
