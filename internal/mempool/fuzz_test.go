package mempool

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// The model test drives a small pool — 8 transactions, 3 per source, 4
// sources, sequences 1..6 — through a byte-coded sequence of Add, Remove
// and PruneStale, and after every step compares it with a plain map that
// applies the admission policy by linear scans.

const (
	modelMaxTxs       = 8
	modelMaxPerSource = 3
	modelSources      = 4
	modelOpLen        = 4 // bytes per step
)

type modelTx struct {
	tx    *ledger.Transaction
	h     stellarcrypto.Hash
	at    time.Duration
	taken bool // TakeAdmittedAt has returned at
}

// modelRateLess is rateLess over model entries: fee per operation
// ascending, then hash descending.
func modelRateLess(a, b modelTx) bool {
	ra := a.tx.Fee * ledger.Amount(b.tx.NumOperations())
	rb := b.tx.Fee * ledger.Amount(a.tx.NumOperations())
	if ra != rb {
		return ra < rb
	}
	return bytes.Compare(a.h[:], b.h[:]) > 0
}

// poolModel is the map the pool is checked against.
type poolModel map[stellarcrypto.Hash]modelTx

// add applies the admission policy to the model and returns the result
// the pool must report.
func (m poolModel) add(tx *ledger.Transaction, h stellarcrypto.Hash, at time.Duration) AddResult {
	if _, dup := m[h]; dup {
		return AddResult{Outcome: Duplicate}
	}
	res := AddResult{Outcome: Added}
	pending := 0
	for _, r := range m {
		if r.tx.Source != tx.Source {
			continue
		}
		pending++
		if r.tx.SeqNum != tx.SeqNum {
			continue
		}
		if tx.Fee*ledger.Amount(r.tx.NumOperations()) <= r.tx.Fee*ledger.Amount(tx.NumOperations()) {
			return AddResult{Outcome: RejectedSeqConflict,
				MinFeeToEnter: r.tx.Fee*ledger.Amount(tx.NumOperations())/ledger.Amount(r.tx.NumOperations()) + 1}
		}
		res.Outcome = Replaced
		res.Evicted = append(res.Evicted, EvictedTx{Hash: r.h, Tx: r.tx})
	}
	if res.Outcome == Replaced {
		delete(m, res.Evicted[0].Hash)
		pending--
	}
	if pending >= modelMaxPerSource {
		return AddResult{Outcome: RejectedSourceCap}
	}
	for len(m) >= modelMaxTxs {
		worst, _ := m.floor()
		if tx.Fee*ledger.Amount(worst.tx.NumOperations()) <= worst.tx.Fee*ledger.Amount(tx.NumOperations()) {
			return AddResult{Outcome: RejectedFull,
				MinFeeToEnter: worst.tx.Fee*ledger.Amount(tx.NumOperations())/ledger.Amount(worst.tx.NumOperations()) + 1}
		}
		delete(m, worst.h)
		res.Evicted = append(res.Evicted, EvictedTx{Hash: worst.h, Tx: worst.tx})
	}
	m[h] = modelTx{tx: tx, h: h, at: at}
	return res
}

// floor returns the cheapest resident.
func (m poolModel) floor() (modelTx, bool) {
	var worst modelTx
	found := false
	for _, r := range m {
		if !found || modelRateLess(r, worst) {
			worst, found = r, true
		}
	}
	return worst, found
}

// poolOpsCoverage counts what a run exercised.
type poolOpsCoverage struct {
	outcomes      [RejectedSeqConflict + 1]int
	evictions     int // residents displaced by a full pool
	removed       int
	pruned        int
	deepestSource int // most pending transactions one source held
	retaken       int // TakeAdmittedAt on a resident whose time was taken
}

// runPoolOps plays data against a pool and the model, failing t at the
// first step where they disagree.
func runPoolOps(t *testing.T, data []byte) poolOpsCoverage {
	var cov poolOpsCoverage
	p := New(Config{MaxTxs: modelMaxTxs, MaxPerSource: modelMaxPerSource})
	m := poolModel{}
	var known []stellarcrypto.Hash // every distinct hash offered so far
	for step := 0; len(data) >= modelOpLen; step++ {
		op := data[:modelOpLen]
		data = data[modelOpLen:]
		src := fmt.Sprintf("s%d", op[1]%modelSources)
		switch op[0] % 8 {
		case 6: // Remove a resident, or a hash that is not pooled
			if len(known) == 0 {
				continue
			}
			h := known[int(op[2])%len(known)]
			if _, ok := m[h]; ok {
				cov.removed++
			}
			delete(m, h)
			p.Remove(h)
		case 7: // PruneStale: the source's account reached sequence op[2]%7
			upTo := uint64(op[2] % 7)
			var want []stellarcrypto.Hash
			for h, r := range m {
				if string(r.tx.Source) == src && r.tx.SeqNum <= upTo {
					want = append(want, h)
					delete(m, h)
				}
			}
			slices.SortFunc(want, func(a, b stellarcrypto.Hash) int { return bytes.Compare(a[:], b[:]) })
			got := p.PruneStale(func(tx *ledger.Transaction) bool {
				return string(tx.Source) == src && tx.SeqNum <= upTo
			})
			if len(got) != len(want) {
				t.Fatalf("step %d: PruneStale removed %d, model %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i].Hash != want[i] {
					t.Fatalf("step %d: PruneStale victim %d differs from the model's", step, i)
				}
			}
			cov.pruned += len(got)
		default: // Add
			seq := 1 + uint64(op[2]%6)
			fee := ledger.Amount(100 + 50*int(op[3]%8))
			txn, h := tx(src, seq, fee, 1+int(op[3]>>3)%3)
			at := time.Duration(step)
			want := m.add(txn, h, at)
			got := p.AddAt(txn, h, at)
			if got.Outcome != want.Outcome || got.MinFeeToEnter != want.MinFeeToEnter {
				t.Fatalf("step %d: Add(%s seq=%d fee=%d ops=%d) = %v min %d, model %v min %d", step,
					src, seq, fee, txn.NumOperations(), got.Outcome, got.MinFeeToEnter, want.Outcome, want.MinFeeToEnter)
			}
			if len(got.Evicted) != len(want.Evicted) {
				t.Fatalf("step %d: %d evicted, model %d", step, len(got.Evicted), len(want.Evicted))
			}
			for i := range got.Evicted {
				if got.Evicted[i].Hash != want.Evicted[i].Hash || got.Evicted[i].Tx != want.Evicted[i].Tx {
					t.Fatalf("step %d: eviction %d differs from the model's", step, i)
				}
			}
			cov.outcomes[got.Outcome]++
			if got.Outcome == Added {
				cov.evictions += len(got.Evicted)
			}
			if !slices.Contains(known, h) {
				known = append(known, h)
			}
		}
		comparePool(t, step, p, m, known, &cov)
	}
	return cov
}

// comparePool checks every index of p against the model.
func comparePool(t *testing.T, step int, p *Pool, m poolModel, known []stellarcrypto.Hash, cov *poolOpsCoverage) {
	if p.Len() != len(m) {
		t.Fatalf("step %d: Len %d, model %d", step, p.Len(), len(m))
	}
	for _, h := range known {
		if _, in := m[h]; p.Contains(h) != in {
			t.Fatalf("step %d: Contains = %v, model %v", step, p.Contains(h), in)
		}
	}
	// Each step takes one known hash's admission time, so some residents
	// have handed it out and some not.
	if len(known) > 0 {
		h := known[step%len(known)]
		r, in := m[h]
		at, ok := p.TakeAdmittedAt(h)
		if ok != (in && !r.taken) || ok && at != r.at {
			t.Fatalf("step %d: TakeAdmittedAt = %v %v, model %v pooled %v taken %v", step, at, ok, r.at, in, r.taken)
		}
		if in && r.taken {
			cov.retaken++
		}
		if in {
			r.taken = true
			m[h] = r
		}
	}
	for s := 0; s < modelSources; s++ {
		src := ledger.AccountID(fmt.Sprintf("s%d", s))
		var want uint64
		n := 0
		for _, r := range m {
			if r.tx.Source == src {
				want = max(want, r.tx.SeqNum)
				n++
			}
		}
		cov.deepestSource = max(cov.deepestSource, n)
		// The source's chain holds exactly its pooled transactions, in
		// sequence order.
		var chain []uint64
		for e := p.bySource[src]; e != nil; e = e.next {
			chain = append(chain, e.tx.SeqNum)
		}
		if len(chain) != n || n > 0 && (chain[n-1] != want || !slices.IsSorted(chain)) {
			t.Fatalf("step %d: %s's chain holds sequences %v, model %d ending at %d", step, src, chain, n, want)
		}
	}
	worst, found := m.floor()
	fee, ops, ok := p.FloorRate()
	if ok != found || found && (fee != worst.tx.Fee || ops != worst.tx.NumOperations()) {
		t.Fatalf("step %d: FloorRate = (%d,%d) %v, model (%d,%d) %v", step, fee, ops, ok,
			worst.tx.Fee, worst.tx.NumOperations(), found)
	}
	if ok && p.evict[0].hash != worst.h {
		t.Fatalf("step %d: eviction root is not the model's cheapest resident", step)
	}
}

// poolOpsSeed is a seeded pseudo-random op sequence of n steps. runPoolOps
// reads six op codes in eight as Add, so the pool fills and sources stack
// several sequences.
func poolOpsSeed(seed uint64, n int) []byte {
	x := seed*0x9e3779b97f4a7c15 + 1
	out := make([]byte, 0, n*modelOpLen)
	for range n * modelOpLen {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out = append(out, byte(x))
	}
	return out
}

// poolOpsSeeds is FuzzPoolOps's seed corpus.
func poolOpsSeeds() [][]byte {
	var seeds [][]byte
	for seed := uint64(1); seed <= 8; seed++ {
		seeds = append(seeds, poolOpsSeed(seed, 256))
	}
	return seeds
}

func FuzzPoolOps(f *testing.F) {
	for _, s := range poolOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256*modelOpLen {
			return
		}
		runPoolOps(t, data)
	})
}

// TestPoolOpsSeedsCoverThePolicy: the seed corpus reaches every admission
// outcome, full-pool eviction, Remove and PruneStale of residents,
// sources holding the per-source cap, and a resident asked for its
// admission time a second time.
func TestPoolOpsSeedsCoverThePolicy(t *testing.T) {
	var total poolOpsCoverage
	for _, s := range poolOpsSeeds() {
		cov := runPoolOps(t, s)
		for o, n := range cov.outcomes {
			total.outcomes[o] += n
		}
		total.evictions += cov.evictions
		total.removed += cov.removed
		total.pruned += cov.pruned
		total.deepestSource = max(total.deepestSource, cov.deepestSource)
		total.retaken += cov.retaken
	}
	for o, n := range total.outcomes {
		if n == 0 {
			t.Errorf("no seed step ends in %v", Outcome(o))
		}
	}
	if total.evictions == 0 || total.removed == 0 || total.pruned == 0 || total.retaken == 0 {
		t.Errorf("full-pool evictions %d, removals %d, pruned %d, admission times asked for twice %d: want each > 0",
			total.evictions, total.removed, total.pruned, total.retaken)
	}
	if total.deepestSource != modelMaxPerSource {
		t.Errorf("deepest source chain %d, want %d", total.deepestSource, modelMaxPerSource)
	}
	t.Logf("outcomes %v, evictions %d, removed %d, pruned %d, retaken %d",
		total.outcomes, total.evictions, total.removed, total.pruned, total.retaken)
}
