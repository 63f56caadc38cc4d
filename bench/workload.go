package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// workload is one traffic mix. All four run a majority quorum of real
// stellar-node processes at production defaults (1 s interval, durable
// data dir, 8192-tx mempool, no rate limits, tracing off).
type workload struct {
	Name     string  `json:"name"`
	Nodes    int     `json:"nodes"`
	Rate     float64 `json:"tx_per_second"` // open-loop offered rate
	OpsPerTx int     `json:"ops_per_tx"`
	Accounts int     `json:"accounts"`
	// Backlog, when not 0, makes the generator heed backpressure: it holds
	// back while node-0's pool, as GET /fee_stats reported it after the last
	// close, plus what was sent since would exceed it.
	Backlog int    `json:"max_backlog,omitempty"`
	Why     string `json:"why"`
}

// The names are the contract every later performance claim is made with.
// Rates sit where the scratch runs on the 2-core reference box were steady.
// pay_saturate offers 1200 tx/s, half again what full 1000-op ledgers
// closing every ~1.2 s take, as a client that heeds backpressure would: it
// keeps node-0's pool at two ledgers' worth and holds back the rest. Every
// ledger is full, the pool never refuses (the driver wants workloads on
// which no operation fails), and a 2 s stall leaves no backlog behind it: a
// plain open loop above the ceiling has no steady state, and its latency
// measured how long the run had lasted and how many stalls it had met
// (spread across runs up to 40 %).
var workloads = []workload{
	{
		Name: "pay_steady", Nodes: 3, Rate: 300, OpsPerTx: 1, Accounts: 2000,
		Why: "nominal load: per-transaction layers (horizon ingress, xdr, verify, mempool, tx flood, tx-set hash) do most of the work; the latency workload",
	},
	{
		Name: "pay_saturate", Nodes: 3, Rate: 1200, OpsPerTx: 1, Accounts: 4000, Backlog: 2000,
		Why: "offers 1200 tx/s against a ceiling near 830 but keeps the pool at two ledgers' worth (GET /fee_stats): every ledger is full, so applied_tx_s is the sustained ceiling, in a steady state",
	},
	{
		Name: "batch_ops", Nodes: 3, Rate: 30, OpsPerTx: 20, Accounts: 1000,
		Why: "600 ops/s in 30 tx/s: per-operation layers (apply, dirty snapshot, bucket AddBatch, archive) work twice as hard as on pay_steady, per-transaction layers a tenth",
	},
	{
		Name: "quorum7_light", Nodes: 7, Rate: 50, OpsPerTx: 1, Accounts: 1000,
		Why: "seven validators, light load: ledger layers idle while scp, envelope flood, framing and envelope signature checks grow as n squared",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// networkPassphrase is stellar-node's -network default.
	networkPassphrase = "stellar-node-network"
	// baseFee is the genesis fee per operation, in stroops.
	baseFee ledger.Amount = 100
	// startingBalance funds each workload account: far above what the
	// payments (at most 1000 stroops) and fees of a run can spend.
	startingBalance = 50 * ledger.One
	// maxOpsPerTx is the protocol's per-transaction operation cap, which
	// sets the fan-out of the funding tree.
	maxOpsPerTx = 100
)

var networkID = stellarcrypto.HashBytes([]byte(networkPassphrase))

// plannedOp is one payment of a planned transaction.
type plannedOp struct {
	Dest   int // account index
	Amount ledger.Amount
}

// plannedTx is the seed-determined part of one transaction: who pays whom
// how much. The sequence number is not part of the plan: it depends on the
// ledger the account was created in and on which submissions were accepted,
// so it is filled in at send time.
type plannedTx struct {
	Source int // account index
	Ops    []plannedOp
}

// planner yields the workload's transactions in order. The same workload
// and seed give the same sequence; nodes receive nothing but what it yields.
type planner struct {
	w     workload
	rng   *rand.Rand
	order []int // seeded permutation: the round-robin order of sources
	next  int
}

func newPlanner(w workload, seed int64) *planner {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	return &planner{w: w, rng: rng, order: rng.Perm(w.Accounts)}
}

// Next returns the next planned transaction. Sources go round robin over
// the permutation, so an account is reused only every Accounts/Rate
// seconds — longer than a transaction takes to apply, which matters
// because only one transaction per source is valid in any one ledger.
func (p *planner) Next() plannedTx {
	src := p.order[p.next%len(p.order)]
	p.next++
	tx := plannedTx{Source: src, Ops: make([]plannedOp, p.w.OpsPerTx)}
	for i := range tx.Ops {
		dest := p.rng.Intn(p.w.Accounts - 1)
		if dest >= src {
			dest++ // never pay oneself
		}
		tx.Ops[i] = plannedOp{Dest: dest, Amount: ledger.Amount(1 + p.rng.Intn(1000))}
	}
	return tx
}

// account is one funded workload account. Seq is the last sequence number
// the network is known to have accepted from it.
type account struct {
	KP  stellarcrypto.KeyPair
	ID  ledger.AccountID
	Seq uint64
}

func newAccount(label string) *account {
	kp := stellarcrypto.KeyPairFromString(label)
	return &account{KP: kp, ID: ledger.AccountIDFromPublicKey(kp.Public)}
}

// workloadAccounts derives the workload's accounts. Keys depend only on the
// index: the seed chooses traffic, not identities.
func workloadAccounts(n int) []*account {
	out := make([]*account, n)
	for i := range out {
		out[i] = newAccount(fmt.Sprintf("bench-account-%d", i))
	}
	return out
}

// buildTx turns a planned transaction into a signed one at the source's
// next sequence number. It does not advance the account: the caller does
// that once the network has accepted the transaction.
func buildTx(p plannedTx, accts []*account) *ledger.Transaction {
	src := accts[p.Source]
	tx := &ledger.Transaction{
		Source:     src.ID,
		Fee:        baseFee * ledger.Amount(len(p.Ops)),
		SeqNum:     src.Seq + 1,
		Operations: make([]ledger.Operation, len(p.Ops)),
	}
	for i, op := range p.Ops {
		tx.Operations[i].Body = &ledger.Payment{
			Destination: accts[op.Dest].ID,
			Asset:       ledger.NativeAsset(),
			Amount:      op.Amount,
		}
	}
	tx.Sign(networkID, src.KP)
	return tx
}

// fundingPlan is the tree that creates the accounts: demo-master creates
// the hubs in one transaction, then each hub creates its share. A source
// lands one transaction per ledger and a ledger takes 1000 operations, so
// a flat fan-out from one account would take a ledger per 100 accounts.
type fundingPlan struct {
	Hubs   []*account
	Shares [][]int // Shares[h] = account indexes hub h creates
}

func newFundingPlan(accounts int) fundingPlan {
	nHubs := (accounts + maxOpsPerTx - 1) / maxOpsPerTx
	if nHubs > maxOpsPerTx {
		panic(fmt.Sprintf("bench: %d accounts need more than one hub transaction", accounts))
	}
	fp := fundingPlan{Hubs: make([]*account, nHubs), Shares: make([][]int, nHubs)}
	for h := range fp.Hubs {
		fp.Hubs[h] = newAccount(fmt.Sprintf("bench-hub-%d", h))
	}
	for i := 0; i < accounts; i++ {
		fp.Shares[i%nHubs] = append(fp.Shares[i%nHubs], i)
	}
	return fp
}

// hubsTx is demo-master's transaction creating every hub with enough to
// fund its share.
func (fp fundingPlan) hubsTx(master *account) *ledger.Transaction {
	tx := &ledger.Transaction{
		Source: master.ID,
		Fee:    baseFee * ledger.Amount(len(fp.Hubs)),
		SeqNum: master.Seq + 1,
	}
	for h, hub := range fp.Hubs {
		tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.CreateAccount{
			Destination:     hub.ID,
			StartingBalance: startingBalance * ledger.Amount(len(fp.Shares[h])+1),
		}})
	}
	tx.Sign(networkID, master.KP)
	return tx
}

// shareTx is hub h's transaction creating its accounts.
func (fp fundingPlan) shareTx(h int, accts []*account) *ledger.Transaction {
	hub := fp.Hubs[h]
	tx := &ledger.Transaction{
		Source: hub.ID,
		Fee:    baseFee * ledger.Amount(len(fp.Shares[h])),
		SeqNum: hub.Seq + 1,
	}
	for _, i := range fp.Shares[h] {
		tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.CreateAccount{
			Destination:     accts[i].ID,
			StartingBalance: startingBalance,
		}})
	}
	tx.Sign(networkID, hub.KP)
	return tx
}
