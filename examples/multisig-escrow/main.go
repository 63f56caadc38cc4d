// Multisig escrow: the §5.2 land-deal scenario. "Suppose an issuer creates
// an asset to represent land deeds, and user A wants to exchange a small
// land parcel plus $10,000 for a bigger land parcel owned by B. The two
// users can both sign a single transaction containing three operations:
// two land payments and one dollar payment." The transaction is atomic —
// if any leg fails, none execute — and time bounds keep B from sitting on
// A's signature for a year.
package main

import (
	"errors"
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
	networkID := stellarcrypto.HashBytes([]byte("escrow-example"))
	state, masterKP := herder.GenesisState(networkID)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	env := &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 1_700_000_000}

	registryKP := stellarcrypto.KeyPairFromString("land-registry")
	bankKP := stellarcrypto.KeyPairFromString("dollar-bank")
	aKP := stellarcrypto.KeyPairFromString("user-a")
	bKP := stellarcrypto.KeyPairFromString("user-b")
	registry := ledger.AccountIDFromPublicKey(registryKP.Public)
	bank := ledger.AccountIDFromPublicKey(bankKP.Public)
	a := ledger.AccountIDFromPublicKey(aKP.Public)
	b := ledger.AccountIDFromPublicKey(bKP.Public)

	// mustApply applies a transaction that must succeed; the first failure
	// sticks in err and makes later calls no-ops.
	var err error
	mustApply := func(desc string, tx *ledger.Transaction) {
		if err != nil {
			return
		}
		if res := state.ApplyTransaction(tx, networkID, env); !res.Success {
			err = fmt.Errorf("%s: %s %v", desc, res.Err, res.OpErrors)
			return
		}
		fmt.Fprintf(w, "  ✓ %s\n", desc)
	}
	simpleTx := func(source ledger.AccountID, kp stellarcrypto.KeyPair, ops ...ledger.Operation) *ledger.Transaction {
		tx := &ledger.Transaction{
			Source: source, SeqNum: state.Account(source).SeqNum + 1,
			Fee:        state.MinFee(&ledger.Transaction{Operations: ops}),
			Operations: ops,
		}
		tx.Sign(networkID, kp)
		return tx
	}

	fmt.Fprintln(w, "setup:")
	mustApply("fund accounts", simpleTx(master, masterKP,
		ledger.Operation{Body: &ledger.CreateAccount{Destination: registry, StartingBalance: 100 * ledger.One}},
		ledger.Operation{Body: &ledger.CreateAccount{Destination: bank, StartingBalance: 100 * ledger.One}},
		ledger.Operation{Body: &ledger.CreateAccount{Destination: a, StartingBalance: 100 * ledger.One}},
		ledger.Operation{Body: &ledger.CreateAccount{Destination: b, StartingBalance: 100 * ledger.One}},
	))

	// The land registry issues parcel tokens; the bank issues USD.
	smallParcel := ledger.MustAsset("PARCELS", registry)
	bigParcel := ledger.MustAsset("PARCELB", registry)
	usd := ledger.MustAsset("USD", bank)

	mustApply("A trusts assets", simpleTx(a, aKP,
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: smallParcel, Limit: ledger.One}},
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: bigParcel, Limit: ledger.One}},
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: usd, Limit: 100_000 * ledger.One}},
	))
	mustApply("B trusts assets", simpleTx(b, bKP,
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: smallParcel, Limit: ledger.One}},
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: bigParcel, Limit: ledger.One}},
		ledger.Operation{Body: &ledger.ChangeTrust{Asset: usd, Limit: 100_000 * ledger.One}},
	))
	mustApply("registry deeds A the small parcel", simpleTx(registry, registryKP,
		ledger.Operation{Body: &ledger.Payment{Destination: a, Asset: smallParcel, Amount: ledger.One}}))
	mustApply("registry deeds B the big parcel", simpleTx(registry, registryKP,
		ledger.Operation{Body: &ledger.Payment{Destination: b, Asset: bigParcel, Amount: ledger.One}}))
	mustApply("bank funds A with $10,000", simpleTx(bank, bankKP,
		ledger.Operation{Body: &ledger.Payment{Destination: a, Asset: usd, Amount: 10_000 * ledger.One}}))

	if err != nil {
		return err
	}

	// The deal: one transaction, three operations, two signers, and a
	// 3-day validity window (§5.2 time bounds).
	fmt.Fprintln(w, "\nthe land deal (single atomic transaction):")
	deal := &ledger.Transaction{
		Source: a,
		SeqNum: state.Account(a).SeqNum + 1,
		Fee:    3 * ledger.DefaultBaseFee,
		TimeBounds: &ledger.TimeBounds{
			MaxTime: env.CloseTime + 3*24*3600, // A won't wait forever
		},
		Operations: []ledger.Operation{
			{Source: a, Body: &ledger.Payment{Destination: b, Asset: smallParcel, Amount: ledger.One}},
			{Source: a, Body: &ledger.Payment{Destination: b, Asset: usd, Amount: 10_000 * ledger.One}},
			{Source: b, Body: &ledger.Payment{Destination: a, Asset: bigParcel, Amount: ledger.One}},
		},
	}
	deal.Sign(networkID, aKP)

	// With only A's signature, B's operation is unauthorized: rejected.
	if res := state.ApplyTransaction(deal, networkID, env); res.Err == "" {
		return errors.New("deal executed without B's signature")
	}
	fmt.Fprintln(w, "  ✓ rejected with only A's signature (B's op needs B's key)")

	deal.Sign(networkID, bKP)
	mustApply("executed with both signatures", deal)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nfinal holdings:")
	fmt.Fprintf(w, "  A: big parcel %s, USD %s\n",
		ledger.FormatAmount(state.BalanceOf(a, bigParcel)), ledger.FormatAmount(state.BalanceOf(a, usd)))
	fmt.Fprintf(w, "  B: small parcel %s, USD %s\n",
		ledger.FormatAmount(state.BalanceOf(b, smallParcel)), ledger.FormatAmount(state.BalanceOf(b, usd)))

	// Atomicity under failure: if B no longer held the big parcel, the
	// whole deal would roll back — including A's two payments.
	fmt.Fprintln(w, "\natomicity check (replay after assets moved):")
	deal2 := &ledger.Transaction{
		Source: a, SeqNum: state.Account(a).SeqNum + 1, Fee: 3 * ledger.DefaultBaseFee,
		Operations: deal.Operations,
	}
	deal2.Sign(networkID, aKP)
	deal2.Sign(networkID, bKP)
	res := state.ApplyTransaction(deal2, networkID, env)
	if res.Success {
		return errors.New("replayed deal succeeded")
	}
	fmt.Fprintf(w, "  ✓ failed as a unit (%d op error(s)); no partial transfers: A USD still %s\n",
		len(res.OpErrors), ledger.FormatAmount(state.BalanceOf(a, usd)))
	return nil
}
