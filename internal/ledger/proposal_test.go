package ledger_test

// Differential test for proposals built from remembered proofs: a world
// that admits transactions the way the herder does — seal, pool, prove —
// and proposes with mempool.Pool.Candidates must propose, ledger after
// ledger, exactly what a world running the full CheckValid over its whole
// pool at every trigger proposes, and so close byte-identical ledgers. The
// submissions are the conflictGen modes of pipeline_test.go, 50 seeds × 4
// ledgers each; "rotate-signers-then-pay" is the one built to be wrong if
// a proof outlives the signers it was made against. Run under -race via
// `make race`.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// proposerWorld is a pipeWorld with the herder's pool in front of it.
type proposerWorld struct {
	*pipeWorld
	pool *mempool.Pool
	reg  *obs.Registry
	v    *verify.Verifier
	// proofs selects how the world proposes: from the pool's remembered
	// proofs, or (the reference) by full validation of every entry.
	proofs bool
}

func newProposerWorld(t *testing.T, f *pipeFixture, proofs bool) *proposerWorld {
	v := verify.New(1, 1<<12)
	w := &proposerWorld{pipeWorld: f.buildWorld(t, v), pool: mempool.New(mempool.Config{}),
		reg: obs.NewRegistry(), v: v, proofs: proofs}
	w.st.SetObs(w.reg)
	return w
}

// admit is herder.AdmitTx/onTx without the network: seal, pool, prove. The
// reference pre-verifies into the cache instead and remembers nothing.
func (w *proposerWorld) admit(tx *ledger.Transaction, networkID stellarcrypto.Hash) {
	h := tx.Seal(networkID)
	if res := w.pool.Add(tx, h); !res.Outcome.Admitted() {
		return
	}
	if w.proofs {
		w.pool.Prove(h, w.st, networkID)
	} else {
		_ = w.st.CheckSignatures(tx, networkID)
	}
}

// propose is herder.triggerNextLedger's set construction. The reference
// branch is the trigger as it was before the pool remembered anything.
func (w *proposerWorld) propose(networkID stellarcrypto.Hash, closeTime int64) *ledger.TxSet {
	var candidates []*ledger.Transaction
	if w.proofs {
		candidates = w.pool.Candidates(w.st, networkID, closeTime)
	} else {
		w.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) {
			if w.st.CheckValid(tx, networkID, closeTime) == nil {
				candidates = append(candidates, tx)
			}
		})
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].Source != candidates[j].Source {
				return candidates[i].Source < candidates[j].Source
			}
			return candidates[i].SeqNum < candidates[j].SeqNum
		})
	}
	candidates = ledger.SurgePrice(candidates, w.st.MaxTxSetSize)
	return &ledger.TxSet{PrevLedgerHash: w.hdr.Hash(), Txs: candidates}
}

// prune is applyLedger's pool maintenance.
func (w *proposerWorld) prune() {
	w.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := w.st.Account(tx.Source)
		return acct == nil || tx.SeqNum <= acct.SeqNum
	})
}

func (w *proposerWorld) failedTotal() float64 {
	return w.reg.CounterVec("ledger_txs_applied_total", "", "result").With("failed").Value()
}

func (w *proposerWorld) lookups() uint64 {
	st := w.v.Cache.Stats()
	return st.Hits + st.Misses
}

func TestProposalsFromProofsMatchFullValidation(t *testing.T) {
	const seeds = 50
	const ledgersPerSeed = 4
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
				full := newProposerWorld(t, f, false)
				proved := newProposerWorld(t, f, true)
				g := &conflictGen{f: f}
				if mode == 3 {
					creates := g.createDisposables(seed, full.hdr.Hash(), full.hdr.LedgerSeq+1)
					full.closeLedger(t, creates, nid, 2_500)
					proved.closeLedger(t, creates, nid, 2_500)
				}
				proposed := 0
				for l := 0; l < ledgersPerSeed; l++ {
					closeTime := int64(3_000 + l)
					for _, tx := range g.txSet(rng, full.hdr.Hash(), mode, full.hdr.LedgerSeq+1).Txs {
						full.admit(tx, nid)
						proved.admit(tx, nid)
					}
					want, got := full.propose(nid, closeTime), proved.propose(nid, closeTime)
					if want.Hash(nid) != got.Hash(nid) {
						t.Fatalf("ledger %d: proposed tx-set hash %s, full validation proposes %s (%d vs %d txs)",
							l, got.Hash(nid), want.Hash(nid), len(got.Txs), len(want.Txs))
					}
					for i := range want.Txs {
						if want.Txs[i] != got.Txs[i] {
							t.Fatalf("ledger %d: proposal order differs at %d", l, i)
						}
					}
					proposed += len(got.Txs)
					wantRes, wantRH := full.closeLedger(t, want, nid, closeTime)
					gotRes, gotRH := proved.closeLedger(t, got, nid, closeTime)
					if !reflect.DeepEqual(wantRes, gotRes) || wantRH != gotRH {
						t.Fatalf("ledger %d: results diverged", l)
					}
					if full.hdr.Hash() != proved.hdr.Hash() {
						t.Fatalf("ledger %d: headers diverged", l)
					}
					full.prune()
					proved.prune()
					if full.pool.Len() != proved.pool.Len() {
						t.Fatalf("ledger %d: pools hold %d and %d transactions", l, full.pool.Len(), proved.pool.Len())
					}
					// The generators assume their transactions applied; what
					// was only pooled did not, so re-read the sequence numbers.
					for _, id := range f.ids {
						f.seqs[id] = full.st.Account(id).SeqNum + 1
					}
					for _, d := range g.disp {
						acct := full.st.Account(d.id)
						if d.alive = acct != nil; d.alive {
							d.seq = acct.SeqNum + 1
						}
					}
				}
				if full.failedTotal() != proved.failedTotal() {
					t.Fatalf("ledger_txs_applied_total{failed}: %v with proofs, %v with full validation",
						proved.failedTotal(), full.failedTotal())
				}
				if proposed == 0 {
					t.Fatal("nothing was ever proposed")
				}
				// Same proposals for less: the proofs must actually have
				// spared signature lookups at the triggers.
				if proved.lookups() >= full.lookups() {
					t.Fatalf("proofs saved nothing: %d signature lookups against %d", proved.lookups(), full.lookups())
				}
			})
		}
	}
}
