// Package loadgen reproduces stellar-core's generateload facility (§7.3):
// it pre-populates a ledger with synthetic accounts and submits XLM
// payments at a target transactions-per-second rate through the simulated
// network's validators.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Account is a synthetic account whose key the generator controls.
type Account struct {
	ID  ledger.AccountID
	Key stellarcrypto.KeyPair
}

// ballastAddress derives a well-formed but keyless account address for
// ledger-size ballast; such accounts never sign anything, so deriving a
// real ed25519 key for each (expensive at 10^6+ accounts, as the paper
// also found: "Generation of test accounts became a lengthy process")
// is unnecessary.
func ballastAddress(i int) ledger.AccountID {
	h := stellarcrypto.HashBytes([]byte(fmt.Sprintf("ballast-account-%d", i)))
	pk, err := stellarcrypto.PublicKeyFromBytes(h[:])
	if err != nil {
		panic(err)
	}
	return ledger.AccountIDFromPublicKey(pk)
}

// Populate inserts total synthetic accounts directly into genesis state:
// nActive fully keyed accounts used to generate load, and total−nActive
// keyless ballast accounts that exercise ledger size (Figure 9's sweep).
// It must run before the state is bootstrapped into validators.
func Populate(st *ledger.State, master ledger.AccountID, masterKey stellarcrypto.KeyPair,
	networkID stellarcrypto.Hash, total, nActive int) ([]Account, error) {
	if nActive > total {
		return nil, fmt.Errorf("loadgen: nActive %d > total %d", nActive, total)
	}
	actives := make([]Account, 0, nActive)
	const activeBalance = 10_000 * ledger.One
	const ballastBalance = 100 * ledger.One

	env := &ledger.ApplyEnv{LedgerSeq: 1, CloseTime: 0}
	// Direct insertion through CreateAccount preserves all invariants
	// (reserves, sequence numbering) while skipping per-tx signatures.
	for i := 0; i < total; i++ {
		var id ledger.AccountID
		var bal ledger.Amount
		if i < nActive {
			kp := stellarcrypto.KeyPairFromString(fmt.Sprintf("active-account-%d", i))
			id = ledger.AccountIDFromPublicKey(kp.Public)
			bal = activeBalance
			actives = append(actives, Account{ID: id, Key: kp})
		} else {
			id = ballastAddress(i)
			bal = ballastBalance
		}
		op := &ledger.CreateAccount{Destination: id, StartingBalance: bal}
		if err := op.Apply(st, env, master); err != nil {
			return nil, fmt.Errorf("loadgen: populate account %d: %w", i, err)
		}
	}
	_ = masterKey
	_ = networkID
	return actives, nil
}

// Generator submits payment transactions at a fixed target rate.
type Generator struct {
	net       *simnet.Network
	nodes     []*herder.Node
	accounts  []Account
	networkID stellarcrypto.Hash
	rng       *rand.Rand

	// Rate is transactions per (virtual) second.
	Rate float64
	// Fee per transaction; defaults to the base fee.
	Fee ledger.Amount

	next      int
	Submitted int
	stopped   bool
}

// NewGenerator builds a generator submitting through the given validators.
func NewGenerator(net *simnet.Network, nodes []*herder.Node, accounts []Account,
	networkID stellarcrypto.Hash, rate float64) *Generator {
	return &Generator{
		net:       net,
		nodes:     nodes,
		accounts:  accounts,
		networkID: networkID,
		rng:       rand.New(rand.NewSource(12345)),
		Rate:      rate,
	}
}

// Start begins submitting at the configured rate until Stop.
func (g *Generator) Start() {
	if g.Rate <= 0 || len(g.accounts) < 2 {
		return
	}
	g.stopped = false
	g.scheduleNext()
}

// Stop halts submission.
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) scheduleNext() {
	if g.stopped {
		return
	}
	interval := time.Duration(float64(time.Second) / g.Rate)
	owner := g.nodes[0].Addr()
	g.net.After(owner, interval, func() {
		g.submitOne()
		g.scheduleNext()
	})
}

// submitOne sends one XLM payment between two active accounts via a
// random validator. Source accounts rotate round-robin so client-side
// sequence numbers never conflict.
func (g *Generator) submitOne() {
	if g.stopped {
		return
	}
	node := g.nodes[g.rng.Intn(len(g.nodes))]
	if node.State() == nil {
		return
	}
	from := g.accounts[g.next%len(g.accounts)]
	to := g.accounts[(g.next+1+g.rng.Intn(len(g.accounts)-1))%len(g.accounts)]
	g.next++

	acct := node.State().Account(from.ID)
	if acct == nil {
		return
	}
	fee := g.Fee
	if fee == 0 {
		fee = node.State().BaseFee
	}
	tx := &ledger.Transaction{
		Source: from.ID,
		Fee:    fee,
		SeqNum: acct.SeqNum + 1,
		Operations: []ledger.Operation{{
			Body: &ledger.Payment{Destination: to.ID, Asset: ledger.NativeAsset(), Amount: ledger.One},
		}},
	}
	tx.Sign(g.networkID, from.Key)
	if c := node.AdmitTx(tx).Code; c == herder.AdmitAccepted || c == herder.AdmitDuplicate {
		g.Submitted++
	}
}
