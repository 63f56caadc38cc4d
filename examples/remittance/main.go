// Remittance: the paper's motivating scenario (§1, §7.1) — "making it
// literally possible to send $0.50 to Mexico in 5 seconds with a fee of
// $0.000001". A US anchor issues USD, a Mexican anchor issues MXN, market
// makers quote USD/MXN on the built-in order book, and a path payment
// moves value end-to-end atomically: no solvency or exchange-rate risk
// from the intermediaries.
//
// This example runs a real 4-validator SCP network on the simulator: the
// remittance rides through nomination, balloting, and externalization
// exactly as it would on the production network.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 4-validator network at the production 5-second cadence.
	sim, err := experiments.Build(experiments.Options{
		Validators: 4,
		Accounts:   16,   // tiny ledger; the story is the payment path
		NoLoad:     true, // we submit by hand
	})
	if err != nil {
		return err
	}
	sim.Start()
	node := sim.Nodes[0]
	networkID := sim.NetworkID
	record := node.OnLedgerClose // Build's hook keeps the close records
	node.OnLedgerClose = func(h *ledger.Header, results []ledger.TxResult, cs herder.CloseStats) {
		record(h, results, cs)
		for _, r := range results {
			if !r.Success {
				fmt.Fprintf(w, "  ! tx failed in ledger %d: %s %v\n", h.LedgerSeq, r.Err, r.OpErrors)
			}
		}
	}

	master := ledger.AccountIDFromPublicKey(sim.MasterKey.Public)
	// submit hands a transaction to the first validator and lets the
	// network close a ledger with it; the first refusal sticks in err.
	submit := func(desc string, source ledger.AccountID, kp stellarcrypto.KeyPair, ops ...ledger.Operation) {
		if err != nil {
			return
		}
		acct := node.State().Account(source)
		tx := &ledger.Transaction{
			Source:     source,
			Fee:        node.State().MinFee(&ledger.Transaction{Operations: ops}),
			SeqNum:     acct.SeqNum + 1,
			Operations: ops,
		}
		tx.Sign(networkID, kp)
		if res := node.AdmitTx(tx); res.Code != herder.AdmitAccepted {
			err = fmt.Errorf("%s: %s: %v", desc, res.Code, res.Err)
			return
		}
		sim.Run(6 * time.Second)
		fmt.Fprintf(w, "  ✓ %s (ledger %d)\n", desc, node.LastHeader().LedgerSeq)
	}

	newAccount := func(label string, xlm ledger.Amount) (ledger.AccountID, stellarcrypto.KeyPair) {
		kp := stellarcrypto.KeyPairFromString(label)
		id := ledger.AccountIDFromPublicKey(kp.Public)
		submit("create "+label, master, sim.MasterKey,
			ledger.Operation{Body: &ledger.CreateAccount{Destination: id, StartingBalance: xlm}})
		return id, kp
	}

	fmt.Fprintln(w, "setting up anchors and market makers:")
	usAnchor, usKP := newAccount("us-anchor", 100*ledger.One)
	mxAnchor, mxKP := newAccount("mx-anchor", 100*ledger.One)
	maker, makerKP := newAccount("market-maker", 1000*ledger.One)
	sender, senderKP := newAccount("maria-in-us", 100*ledger.One)
	recipient, _ := newAccount("luis-in-mx", 100*ledger.One)

	usd := ledger.MustAsset("USD", usAnchor)
	mxn := ledger.MustAsset("MXN", mxAnchor)

	fmt.Fprintln(w, "\nissuing anchor tokens (§5.1 trustlines):")
	submit("maker trusts USD+MXN", maker, makerKP,
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: usd, Limit: 1_000_000 * ledger.One}},
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: mxn, Limit: 1_000_000 * ledger.One}})
	submit("sender trusts USD", sender, senderKP,
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: usd, Limit: 1000 * ledger.One}})
	recipientKP := stellarcrypto.KeyPairFromString("luis-in-mx")
	submit("recipient trusts MXN", recipient, recipientKP,
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: mxn, Limit: 1000 * ledger.One}})
	submit("US anchor funds sender with $20", usAnchor, usKP,
		ledger.Operation{Body: &ledger.Payment{Destination: sender, Asset: usd, Amount: 20 * ledger.One}})
	submit("MX anchor funds market maker with 20,000 MXN", mxAnchor, mxKP,
		ledger.Operation{Body: &ledger.Payment{Destination: maker, Asset: mxn, Amount: 20_000 * ledger.One}})

	fmt.Fprintln(w, "\nmarket maker quotes USD/MXN at 17.5 (§5.1 order book):")
	submit("maker sells MXN for USD", maker, makerKP,
		ledger.Operation{Body: &ledger.ManageOffer{
			Selling: mxn, Buying: usd,
			Amount: 10_000 * ledger.One,
			Price:  ledger.MustPrice(2, 35), // 2/35 USD per MXN = 17.5 MXN/USD
		}})

	// The remittance: $0.50 → 8.75 MXN, limit price protects the sender.
	fmt.Fprintln(w, "\nsending $0.50 from the US to Mexico (PathPayment, §5.2):")
	destAmount, _ := ledger.ParseAmount("8.75")
	sendMax, _ := ledger.ParseAmount("0.51") // end-to-end limit price
	before := node.LastHeader().CloseTime
	submit("remittance USD→MXN", sender, senderKP,
		ledger.Operation{Body: &ledger.PathPayment{
			SendAsset: usd, SendMax: sendMax,
			Destination: recipient, DestAsset: mxn, DestAmount: destAmount,
		}})
	after := node.LastHeader().CloseTime
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nresult:\n")
	fmt.Fprintf(w, "  recipient MXN balance: %s\n", ledger.FormatAmount(node.State().BalanceOf(recipient, mxn)))
	fmt.Fprintf(w, "  sender USD balance:    %s (spent ≤ $0.51 by the limit price)\n",
		ledger.FormatAmount(node.State().BalanceOf(sender, usd)))
	fmt.Fprintf(w, "  settled in %d ledger close(s) ≈ %d seconds of network time\n", 1, after-before)
	fmt.Fprintf(w, "  fee paid: %s XLM (≈ $0.000001 at paper prices)\n", ledger.FormatAmount(100))

	if err := sim.CheckAgreement(); err != nil {
		return err
	}
	fmt.Fprintln(w, "  all 4 validators agree on every ledger hash ✓")
	return nil
}
