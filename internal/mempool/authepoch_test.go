package mempool

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// The auth-epoch test drives a pool and a real ledger state through a
// byte-coded sequence of submissions, signer and threshold changes, merges,
// re-creations and closes, and at every Candidates call compares what the
// pool proposes from its remembered proofs with a reference assembled here
// from CheckValid's parts: structure, each step of the sequence chain, time
// bounds, the fee floor, the fees summed along the chain against the
// balance, and the full signature check. Three sources of 10 XLM each
// submit chains with gaps, used numbers, fees their balance cannot sum to,
// time bounds ended or not yet open, and signatures by their master key, by
// signers that come and go, or by a stranger.

const (
	epochSources = 3
	epochOpLen   = 4 // bytes per step
)

// epochWorld is the state, its keys and the pool under test.
type epochWorld struct {
	t         *testing.T
	nid       stellarcrypto.Hash
	st        *ledger.State
	pool      *Pool
	master    stellarcrypto.KeyPair
	masterID  ledger.AccountID
	srcs      []stellarcrypto.KeyPair
	ids       []ledger.AccountID
	signers   []stellarcrypto.KeyPair // extra keys SetOptions may add
	ledgerSeq uint32
	closeTime int64
	calls     int // Candidates comparisons made
	offered   int // transactions they offered
}

func newEpochWorld(t *testing.T) *epochWorld {
	w := &epochWorld{
		t:         t,
		nid:       stellarcrypto.HashBytes([]byte("mempool-auth-epoch")),
		master:    stellarcrypto.KeyPairFromString("epoch-master"),
		pool:      New(Config{}),
		ledgerSeq: 1,
		closeTime: 1000,
	}
	w.masterID = ledger.AccountIDFromPublicKey(w.master.Public)
	w.st = ledger.NewGenesisState(w.masterID)
	w.st.SetVerifier(verify.New(1, 4096))
	for i := range epochSources {
		kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("epoch-source-%d", i))
		w.srcs = append(w.srcs, kp)
		w.ids = append(w.ids, ledger.AccountIDFromPublicKey(kp.Public))
		w.create(i)
	}
	for i := range 2 {
		w.signers = append(w.signers, stellarcrypto.KeyPairFromString(fmt.Sprintf("epoch-signer-%d", i)))
	}
	return w
}

// apply closes a ledger holding txs and prunes the pool as the herder's
// close does.
func (w *epochWorld) apply(txs ...*ledger.Transaction) {
	w.ledgerSeq++
	w.closeTime++
	w.st.ApplyTxSet(&ledger.TxSet{Txs: txs}, w.nid, &ledger.ApplyEnv{LedgerSeq: w.ledgerSeq, CloseTime: w.closeTime})
	w.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := w.st.Account(tx.Source)
		tb := tx.TimeBounds
		return acct == nil || tx.SeqNum <= acct.SeqNum || tb != nil && tb.MaxTime != 0 && tb.MaxTime <= w.closeTime
	})
}

// admin applies at once an operation on source i's behalf, in a
// transaction from the master signed by every key it might need, so that
// source i's sequence number and pooled chain stay as they are.
func (w *epochWorld) admin(i int, body ledger.OpBody) {
	if !w.st.HasAccount(w.ids[i]) {
		return
	}
	tx := &ledger.Transaction{Source: w.masterID, Fee: ledger.DefaultBaseFee, SeqNum: w.st.Account(w.masterID).SeqNum + 1,
		Operations: []ledger.Operation{{Source: w.ids[i], Body: body}}}
	for _, kp := range append([]stellarcrypto.KeyPair{w.master, w.srcs[i]}, w.signers...) {
		tx.Sign(w.nid, kp)
	}
	w.apply(tx)
}

// create funds source i from the master, if it does not exist.
func (w *epochWorld) create(i int) {
	if w.st.HasAccount(w.ids[i]) {
		return
	}
	acct := w.st.Account(w.masterID)
	tx := &ledger.Transaction{Source: w.masterID, Fee: ledger.DefaultBaseFee, SeqNum: acct.SeqNum + 1,
		Operations: []ledger.Operation{{Body: &ledger.CreateAccount{Destination: w.ids[i], StartingBalance: 10 * ledger.One}}}}
	tx.Sign(w.nid, w.master)
	w.apply(tx)
}

// submit pools a payment from source i as the herder admits one: seal, add,
// prove. b picks the sequence number — mostly the one after the source's
// pooled chain, sometimes one past a gap or the chain's last again — and the
// signing key; c the fee and the time bounds.
func (w *epochWorld) submit(i int, b, c byte) {
	tail := uint64(0)
	if acct := w.st.Account(w.ids[i]); acct != nil {
		tail = acct.SeqNum
	}
	if chain := w.pool.Chain(w.ids[i], math.MaxUint64); len(chain) > 0 {
		tail = max(tail, chain[len(chain)-1].SeqNum)
	}
	tx := &ledger.Transaction{
		Source: w.ids[i],
		Fee:    []ledger.Amount{1, 1, 1, 1, 1, 2, 4 * ledger.One / ledger.DefaultBaseFee, 0}[c%8] * ledger.DefaultBaseFee,
		SeqNum: tail + []uint64{1, 1, 1, 2, 0}[b%5],
		Memo:   fmt.Sprint(b), // distinct payloads at one sequence
		Operations: []ledger.Operation{{Body: &ledger.Payment{
			Destination: w.masterID, Asset: ledger.NativeAsset(), Amount: 1}}},
	}
	switch (c >> 3) % 8 {
	case 5:
		tx.TimeBounds = &ledger.TimeBounds{MaxTime: w.closeTime + 1} // ends at the next close
	case 6:
		tx.TimeBounds = &ledger.TimeBounds{MinTime: w.closeTime + 3} // not open yet
	case 7:
		tx.TimeBounds = &ledger.TimeBounds{MinTime: w.closeTime - 5, MaxTime: w.closeTime + 50}
	}
	switch k := (b >> 4) % 8; {
	case k < 5:
		tx.Sign(w.nid, w.srcs[i])
	case k < 7:
		tx.Sign(w.nid, w.signers[k-5])
	default:
		tx.Sign(w.nid, w.srcs[(i+1)%epochSources])
	}
	h := tx.Seal(w.nid)
	if w.pool.Add(tx, h).Outcome.Admitted() {
		w.pool.Prove(h, w.st, w.st.CheckAuth(tx, w.nid))
	}
}

// reference is what Candidates must return at closeTime, from CheckValid's
// parts applied to every pooled transaction with nothing remembered.
func (w *epochWorld) reference(closeTime int64) []*ledger.Transaction {
	var pooled []*ledger.Transaction
	w.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) { pooled = append(pooled, tx) })
	slices.SortFunc(pooled, func(a, b *ledger.Transaction) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.SeqNum, b.SeqNum))
	})
	var out []*ledger.Transaction
	for i := 0; i < len(pooled); {
		j := i + 1
		for j < len(pooled) && pooled[j].Source == pooled[i].Source {
			j++
		}
		if acct := w.st.Account(pooled[i].Source); acct != nil {
			next, fees := acct.SeqNum+1, ledger.Amount(0)
			for _, tx := range pooled[i:j] {
				fees += tx.Fee
				if tx.SeqNum != next || !tx.TimeBounds.Contains(closeTime) || tx.Fee < w.st.MinFee(tx) ||
					fees > acct.Balance || tx.CheckStructure() != nil || w.st.CheckSignatures(tx, w.nid) != nil {
					break
				}
				out = append(out, tx)
				next++
			}
		}
		i = j
	}
	return out
}

// compare fails the test unless Candidates equals the reference.
func (w *epochWorld) compare(step int) []*ledger.Transaction {
	closeTime := w.closeTime + 1
	got := w.pool.Candidates(w.st, w.nid, closeTime)
	want := w.reference(closeTime)
	if !slices.Equal(got, want) {
		w.t.Fatalf("step %d (epoch %d): Candidates offers %d transactions, the reference %d",
			step, w.st.AuthEpoch(), len(got), len(want))
	}
	w.calls++
	w.offered += len(got)
	return got
}

// runAuthEpoch plays data against a fresh world.
func runAuthEpoch(t *testing.T, data []byte) *epochWorld {
	w := newEpochWorld(t)
	weight := func(b byte) *uint8 { v := []uint8{1, 1, 2, 0}[b%4]; return &v }
	threshold := func(b byte) *uint8 { v := []uint8{0, 0, 1, 2}[b%4]; return &v }
	for step := 0; len(data) >= epochOpLen; step++ {
		op := data[:epochOpLen]
		data = data[epochOpLen:]
		i := int(op[1]) % epochSources
		switch op[0] % 10 {
		case 0, 1, 2, 3:
			w.submit(i, op[2], op[3])
		case 4, 5:
			w.compare(step)
		case 6: // a signer comes or goes
			k := w.signers[op[2]%2]
			w.admin(i, &ledger.SetOptions{Signer: &ledger.Signer{
				Key: ledger.AccountIDFromPublicKey(k.Public), Weight: op[3] % 2}})
		case 7: // master weight and thresholds
			w.admin(i, &ledger.SetOptions{MasterWeight: weight(op[2]),
				LowThreshold: threshold(op[3]), MedThreshold: threshold(op[3] >> 2), HighThreshold: threshold(op[3] >> 4)})
		case 8: // merge into the master, or come back
			if op[2]%2 == 0 {
				w.admin(i, &ledger.AccountMerge{Destination: w.masterID})
			} else {
				w.create(i)
			}
		case 9: // close a ledger on what the pool proposes
			w.apply(ledger.SurgePrice(w.compare(step), ledger.DefaultMaxTxSetSize)...)
		}
	}
	return w
}

// authEpochSeeds is FuzzAuthEpoch's seed corpus: pseudo-random runs, and two
// built to catch a proof kept across an epoch bump and a chain whose fees
// are checked one at a time.
func authEpochSeeds() [][]byte {
	seeds := [][]byte{
		// A signer added; a payment signed by it is pooled and proven; the
		// signer goes (the epoch moves); Candidates must drop the payment.
		{6, 0, 0, 1, 0, 0, 5 << 4, 0, 4, 0, 0, 0, 6, 0, 0, 0, 4, 0, 0, 0},
		// Three payments in a chain offering 4 XLM each from a 10 XLM
		// balance: only the first two can be paid for.
		{0, 1, 0, 6, 0, 1, 0, 6, 0, 1, 0, 6, 4, 0, 0, 0, 9, 0, 0, 0},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		seeds = append(seeds, poolOpsSeed(seed, 128))
	}
	return seeds
}

func FuzzAuthEpoch(f *testing.F) {
	for _, s := range authEpochSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128*epochOpLen {
			return
		}
		runAuthEpoch(t, data)
	})
}

// TestAuthEpochSeedsPropose: the seed corpus makes Candidates offer
// something, so the comparisons are not all of empty proposals.
func TestAuthEpochSeedsPropose(t *testing.T) {
	calls, offered := 0, 0
	for _, s := range authEpochSeeds() {
		w := runAuthEpoch(t, s)
		calls += w.calls
		offered += w.offered
	}
	if calls == 0 || offered < calls/4 {
		t.Fatalf("%d Candidates calls offered %d transactions", calls, offered)
	}
	t.Logf("%d Candidates calls offered %d transactions", calls, offered)
}
