// Quickstart: the core ledger API in one file — create accounts, issue an
// asset (paper §5.1), open a trustline, make payments, place orders on the
// built-in order book, and send a cross-asset path payment (§5.2).
//
// This example drives the transaction engine directly (no consensus); see
// examples/federation for a multi-validator network running SCP.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

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
	networkID := stellarcrypto.HashBytes([]byte("quickstart"))

	// Genesis: the master account holds the XLM supply.
	state, masterKP := herder.GenesisState(networkID)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	env := &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 1}

	// Keys for our cast. Deterministic seeds keep the run reproducible.
	bankKP := stellarcrypto.KeyPairFromString("first-national-bank")
	aliceKP := stellarcrypto.KeyPairFromString("alice")
	bobKP := stellarcrypto.KeyPairFromString("bob")
	bank := ledger.AccountIDFromPublicKey(bankKP.Public)
	alice := ledger.AccountIDFromPublicKey(aliceKP.Public)
	bob := ledger.AccountIDFromPublicKey(bobKP.Public)

	// apply builds, signs, and applies one transaction; the first failure
	// sticks in err and makes later calls no-ops.
	var err error
	apply := func(source ledger.AccountID, kp stellarcrypto.KeyPair, ops ...ledger.Operation) {
		if err != nil {
			return
		}
		acct := state.Account(source)
		tx := &ledger.Transaction{
			Source:     source,
			Fee:        state.MinFee(&ledger.Transaction{Operations: ops}),
			SeqNum:     acct.SeqNum + 1,
			Operations: ops,
		}
		tx.Sign(networkID, kp)
		res := state.ApplyTransaction(tx, networkID, env)
		if !res.Success {
			err = fmt.Errorf("tx failed: %s %v", res.Err, res.OpErrors)
		}
	}

	// 1. Fund three accounts with XLM.
	fmt.Fprintln(w, "1. creating accounts (CreateAccount)")
	apply(master, masterKP,
		ledger.Operation{Body: &ledger.CreateAccount{Destination: bank, StartingBalance: 1000 * ledger.One}},
		ledger.Operation{Body: &ledger.CreateAccount{Destination: alice, StartingBalance: 100 * ledger.One}},
		ledger.Operation{Body: &ledger.CreateAccount{Destination: bob, StartingBalance: 100 * ledger.One}},
	)

	// 2. The bank issues USD; Alice consents by opening a trustline.
	usd := ledger.MustAsset("USD", bank)
	fmt.Fprintln(w, "2. issuing USD (ChangeTrust + Payment from the issuer mints)")
	apply(alice, aliceKP, ledger.Operation{Body: &ledger.ChangeTrust{Asset: usd, Limit: 10_000 * ledger.One}})
	apply(bank, bankKP, ledger.Operation{Body: &ledger.Payment{Destination: alice, Asset: usd, Amount: 500 * ledger.One}})
	fmt.Fprintf(w, "   alice now holds %s USD\n", ledger.FormatAmount(state.BalanceOf(alice, usd)))

	// 3. A simple XLM payment.
	fmt.Fprintln(w, "3. paying 25 XLM alice → bob (Payment)")
	apply(alice, aliceKP, ledger.Operation{Body: &ledger.Payment{Destination: bob, Asset: ledger.NativeAsset(), Amount: 25 * ledger.One}})

	// 4. The bank makes a market: sells USD for XLM at 2 XLM per USD.
	fmt.Fprintln(w, "4. market making (ManageOffer): bank sells USD at 2 XLM/USD")
	apply(bank, bankKP, ledger.Operation{Body: &ledger.ManageOffer{
		Selling: usd, Buying: ledger.NativeAsset(),
		Amount: 1000 * ledger.One, Price: ledger.MustPrice(2, 1),
	}})
	if err != nil {
		return err
	}
	book := state.OffersBook(usd, ledger.NativeAsset())
	fmt.Fprintf(w, "   order book now has %d offer(s); best price %s XLM/USD\n", len(book), book[0].Price)

	// 5. Bob pays Alice 10 USD — but Bob only holds XLM. PathPayment
	//    converts through the order book atomically, with bob's cost
	//    capped at 21 XLM (the end-to-end limit price, §1).
	fmt.Fprintln(w, "5. cross-asset payment (PathPayment): bob sends XLM, alice receives USD")
	before := state.BalanceOf(bob, ledger.NativeAsset())
	apply(bob, bobKP, ledger.Operation{Body: &ledger.PathPayment{
		SendAsset: ledger.NativeAsset(), SendMax: 21 * ledger.One,
		Destination: alice, DestAsset: usd, DestAmount: 10 * ledger.One,
	}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   bob spent %s XLM; alice now holds %s USD\n",
		ledger.FormatAmount(before-state.BalanceOf(bob, ledger.NativeAsset())),
		ledger.FormatAmount(state.BalanceOf(alice, usd)))

	// 6. Ledger totals.
	fmt.Fprintf(w, "\nledger: %d accounts, %d trustlines, %d offers; fee pool %s XLM\n",
		state.NumAccounts(), state.NumTrustlines(), state.NumOffers(),
		ledger.FormatAmount(state.FeePool))
	return nil
}
