package ledger

import (
	"fmt"

	"stellar/internal/xdr"
)

// The principal ledger operations of Figure 4.

// --- CreateAccount ---

// CreateAccount creates and funds a new account ledger entry.
type CreateAccount struct {
	Destination     AccountID
	StartingBalance Amount
}

// Type implements OpBody.
func (op *CreateAccount) Type() string { return "CreateAccount" }

// Threshold implements OpBody.
func (op *CreateAccount) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *CreateAccount) Validate() error {
	if op.Destination == "" {
		return fmt.Errorf("CreateAccount: empty destination")
	}
	if op.StartingBalance <= 0 {
		return fmt.Errorf("CreateAccount: non-positive starting balance")
	}
	return nil
}

// Apply implements OpBody.
func (op *CreateAccount) Apply(st *State, env *ApplyEnv, source AccountID) error {
	if st.HasAccount(op.Destination) {
		return fmt.Errorf("CreateAccount: %s already exists", op.Destination)
	}
	if op.StartingBalance < 2*st.BaseReserve {
		return fmt.Errorf("CreateAccount: starting balance %s below reserve %s",
			FormatAmount(op.StartingBalance), FormatAmount(2*st.BaseReserve))
	}
	if err := st.debit(source, NativeAsset(), op.StartingBalance); err != nil {
		return err
	}
	st.createAccount(&AccountEntry{
		ID:      op.Destination,
		Balance: op.StartingBalance,
		// Initial sequence numbers contain the ledger number in the high
		// bits to prevent replay after delete/re-create (§5.2).
		SeqNum:     uint64(env.LedgerSeq) << 32,
		Thresholds: DefaultThresholds(),
	})
	return nil
}

// EncodeXDR implements OpBody.
func (op *CreateAccount) EncodeXDR(e *xdr.Encoder) {
	e.PutString(string(op.Destination))
	e.PutInt64(op.StartingBalance)
}

// --- Payment ---

// Payment pays a specific quantity of an asset to a destination account.
type Payment struct {
	Destination AccountID
	Asset       Asset
	Amount      Amount
}

// Type implements OpBody.
func (op *Payment) Type() string { return "Payment" }

// Threshold implements OpBody.
func (op *Payment) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *Payment) Validate() error {
	if op.Destination == "" {
		return fmt.Errorf("Payment: empty destination")
	}
	if op.Amount <= 0 {
		return fmt.Errorf("Payment: non-positive amount")
	}
	return nil
}

// Apply implements OpBody.
func (op *Payment) Apply(st *State, env *ApplyEnv, source AccountID) error {
	if !st.HasAccount(op.Destination) {
		return fmt.Errorf("Payment: destination %s does not exist", op.Destination)
	}
	if err := st.canHold(op.Destination, op.Asset, op.Amount); err != nil {
		return err
	}
	if err := st.debit(source, op.Asset, op.Amount); err != nil {
		return err
	}
	return st.credit(op.Destination, op.Asset, op.Amount)
}

// EncodeXDR implements OpBody.
func (op *Payment) EncodeXDR(e *xdr.Encoder) {
	e.PutString(string(op.Destination))
	op.Asset.EncodeXDR(e)
	e.PutInt64(op.Amount)
}

// --- PathPayment ---

// PathPayment is Payment paying in a different asset, trading through up
// to 5 intermediary assets on the order book with an end-to-end limit
// price (Figure 4; §1 "path payments").
type PathPayment struct {
	SendAsset   Asset
	SendMax     Amount
	Destination AccountID
	DestAsset   Asset
	DestAmount  Amount
	Path        []Asset // up to 5 intermediary assets
}

// Type implements OpBody.
func (op *PathPayment) Type() string { return "PathPayment" }

// Threshold implements OpBody.
func (op *PathPayment) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *PathPayment) Validate() error {
	if op.Destination == "" {
		return fmt.Errorf("PathPayment: empty destination")
	}
	if op.DestAmount <= 0 || op.SendMax <= 0 {
		return fmt.Errorf("PathPayment: non-positive amounts")
	}
	if len(op.Path) > 5 {
		return fmt.Errorf("PathPayment: path longer than 5 assets")
	}
	return nil
}

// Apply implements OpBody.
func (op *PathPayment) Apply(st *State, env *ApplyEnv, source AccountID) error {
	if !st.HasAccount(op.Destination) {
		return fmt.Errorf("PathPayment: destination %s does not exist", op.Destination)
	}
	_, err := st.pathPay(source, op.SendAsset, op.SendMax,
		op.Destination, op.DestAsset, op.DestAmount, op.Path)
	return err
}

// EncodeXDR implements OpBody.
func (op *PathPayment) EncodeXDR(e *xdr.Encoder) {
	op.SendAsset.EncodeXDR(e)
	e.PutInt64(op.SendMax)
	e.PutString(string(op.Destination))
	op.DestAsset.EncodeXDR(e)
	e.PutInt64(op.DestAmount)
	e.PutUint32(uint32(len(op.Path)))
	for _, a := range op.Path {
		a.EncodeXDR(e)
	}
}

// --- ManageOffer ---

// ManageOffer creates, changes, or deletes an offer ledger entry
// (Figure 4). OfferID 0 creates; Amount 0 deletes.
type ManageOffer struct {
	OfferID uint64
	Selling Asset
	Buying  Asset
	Amount  Amount
	Price   Price
	// Passive marks the offer as passive (the -PassiveOffer variant):
	// it will not cross offers at exactly its own price, permitting a
	// zero spread.
	Passive bool
}

// Type implements OpBody.
func (op *ManageOffer) Type() string { return "ManageOffer" }

// Threshold implements OpBody.
func (op *ManageOffer) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *ManageOffer) Validate() error {
	if op.Selling.Equal(op.Buying) {
		return fmt.Errorf("ManageOffer: selling and buying are the same asset")
	}
	if op.Amount < 0 {
		return fmt.Errorf("ManageOffer: negative amount")
	}
	if op.Amount > 0 && !op.Price.Valid() {
		return fmt.Errorf("ManageOffer: invalid price %s", op.Price)
	}
	if op.Passive && op.OfferID != 0 {
		return fmt.Errorf("ManageOffer: passive offers cannot modify existing offers")
	}
	return nil
}

// Apply implements OpBody.
func (op *ManageOffer) Apply(st *State, env *ApplyEnv, source AccountID) error {
	// Deleting or modifying an existing offer.
	if op.OfferID != 0 {
		existing := st.Offer(op.OfferID)
		if existing == nil || existing.Seller != source {
			return fmt.Errorf("ManageOffer: offer %d not owned by %s", op.OfferID, source)
		}
		st.deleteOffer(op.OfferID)
		if err := st.adjustSubEntries(source, -1); err != nil {
			return err
		}
		if op.Amount == 0 {
			return nil // pure deletion; reserve freed
		}
		// Fall through to re-create with new terms.
	} else if op.Amount == 0 {
		return fmt.Errorf("ManageOffer: nothing to do (offerID=0, amount=0)")
	}

	// The seller must be able to deliver the selling asset and hold the
	// buying asset.
	if err := st.canHold(source, op.Buying, 0); err != nil {
		return err
	}
	if bal := st.BalanceOf(source, op.Selling); bal < op.Amount && source != op.Selling.Issuer {
		return fmt.Errorf("%w: offering %s of %s, holds %s", ErrUnderfunded,
			FormatAmount(op.Amount), op.Selling, FormatAmount(bal))
	}

	// Cross against the opposing book first (§5.1: offers are matched and
	// filled when buy/sell prices cross).
	remaining, err := st.crossOffer(source, op.Selling, op.Buying, op.Amount, op.Price, op.Passive)
	if err != nil {
		return err
	}
	if remaining == 0 {
		return nil // fully filled on the spot
	}

	// The rest becomes a standing offer; it consumes a subentry and thus
	// reserve (§5.1).
	a := st.Account(source)
	if a != nil && a.Balance < st.MinBalance(a)+st.BaseReserve {
		return fmt.Errorf("ManageOffer: %s lacks reserve for a new offer", source)
	}
	id := st.allocOfferID()
	st.createOffer(&OfferEntry{
		ID:      id,
		Seller:  source,
		Selling: op.Selling,
		Buying:  op.Buying,
		Amount:  remaining,
		Price:   op.Price,
		Passive: op.Passive,
	})
	return st.adjustSubEntries(source, +1)
}

// EncodeXDR implements OpBody.
func (op *ManageOffer) EncodeXDR(e *xdr.Encoder) {
	e.PutUint64(op.OfferID)
	op.Selling.EncodeXDR(e)
	op.Buying.EncodeXDR(e)
	e.PutInt64(op.Amount)
	op.Price.EncodeXDR(e)
	e.PutBool(op.Passive)
}

// --- SetOptions ---

// SetOptions changes account flags, thresholds, signers, and home domain.
type SetOptions struct {
	SetFlags      AccountFlags
	ClearFlags    AccountFlags
	MasterWeight  *uint8
	LowThreshold  *uint8
	MedThreshold  *uint8
	HighThreshold *uint8
	Signer        *Signer
	HomeDomain    *string
}

// Type implements OpBody.
func (op *SetOptions) Type() string { return "SetOptions" }

// Threshold implements OpBody. Changing signers or thresholds is a
// high-security operation (§5.2).
func (op *SetOptions) Threshold() ThresholdLevel { return ThresholdHigh }

// Validate implements OpBody.
func (op *SetOptions) Validate() error {
	if op.SetFlags&op.ClearFlags != 0 {
		return fmt.Errorf("SetOptions: flag both set and cleared")
	}
	if op.HomeDomain != nil && len(*op.HomeDomain) > 32 {
		return fmt.Errorf("SetOptions: home domain too long")
	}
	return nil
}

// Apply implements OpBody.
func (op *SetOptions) Apply(st *State, env *ApplyEnv, source AccountID) error {
	a := st.mutateAccount(source)
	if a == nil {
		return fmt.Errorf("SetOptions: no account %s", source)
	}
	if a.Flags&FlagAuthImmutable != 0 && (op.SetFlags != 0 || op.ClearFlags != 0) {
		return fmt.Errorf("SetOptions: flags immutable on %s", source)
	}
	a.Flags |= op.SetFlags
	a.Flags &^= op.ClearFlags
	if op.MasterWeight != nil || op.LowThreshold != nil || op.MedThreshold != nil ||
		op.HighThreshold != nil || op.Signer != nil {
		st.authEpoch++ // signature verdicts remembered against this account are void
	}
	if op.MasterWeight != nil {
		a.Thresholds.MasterWeight = *op.MasterWeight
	}
	if op.LowThreshold != nil {
		a.Thresholds.Low = *op.LowThreshold
	}
	if op.MedThreshold != nil {
		a.Thresholds.Medium = *op.MedThreshold
	}
	if op.HighThreshold != nil {
		a.Thresholds.High = *op.HighThreshold
	}
	if op.HomeDomain != nil {
		a.HomeDomain = *op.HomeDomain
	}
	if op.Signer != nil {
		if op.Signer.Key == source {
			return fmt.Errorf("SetOptions: cannot add master key as signer")
		}
		delta := a.setSigner(op.Signer.Key, op.Signer.Weight)
		if delta > 0 {
			// New signer consumes a subentry's reserve.
			if a.Balance < st.MinBalance(a)+st.BaseReserve {
				return fmt.Errorf("SetOptions: %s lacks reserve for a signer", source)
			}
		}
		n := int64(a.NumSubEntries) + int64(delta)
		if n < 0 {
			return fmt.Errorf("SetOptions: subentry underflow")
		}
		a.NumSubEntries = uint32(n)
	}
	return nil
}

// EncodeXDR implements OpBody.
func (op *SetOptions) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(uint32(op.SetFlags))
	e.PutUint32(uint32(op.ClearFlags))
	putOptU8 := func(v *uint8) {
		if v == nil {
			e.PutBool(false)
		} else {
			e.PutBool(true)
			e.PutUint32(uint32(*v))
		}
	}
	putOptU8(op.MasterWeight)
	putOptU8(op.LowThreshold)
	putOptU8(op.MedThreshold)
	putOptU8(op.HighThreshold)
	if op.Signer != nil {
		e.PutBool(true)
		e.PutString(string(op.Signer.Key))
		e.PutUint32(uint32(op.Signer.Weight))
	} else {
		e.PutBool(false)
	}
	if op.HomeDomain != nil {
		e.PutBool(true)
		e.PutString(*op.HomeDomain)
	} else {
		e.PutBool(false)
	}
}

// --- ChangeTrust ---

// ChangeTrust creates, changes, or deletes a trustline (§5.1: "An account
// must explicitly consent to holding an asset by creating a trustline").
type ChangeTrust struct {
	Asset Asset
	Limit Amount // 0 deletes the trustline
}

// Type implements OpBody.
func (op *ChangeTrust) Type() string { return "ChangeTrust" }

// Threshold implements OpBody.
func (op *ChangeTrust) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *ChangeTrust) Validate() error {
	if op.Asset.IsNative() {
		return fmt.Errorf("ChangeTrust: cannot trust native asset")
	}
	if op.Limit < 0 {
		return fmt.Errorf("ChangeTrust: negative limit")
	}
	return nil
}

// Apply implements OpBody.
func (op *ChangeTrust) Apply(st *State, env *ApplyEnv, source AccountID) error {
	if source == op.Asset.Issuer {
		return fmt.Errorf("ChangeTrust: issuer cannot trust own asset")
	}
	existing := st.Trustline(source, op.Asset)
	if op.Limit == 0 {
		if existing == nil {
			return fmt.Errorf("ChangeTrust: no trustline to delete")
		}
		if existing.Balance != 0 {
			return fmt.Errorf("ChangeTrust: trustline balance %s nonzero",
				FormatAmount(existing.Balance))
		}
		st.deleteTrustline(source, op.Asset)
		return st.adjustSubEntries(source, -1)
	}
	if existing != nil {
		if op.Limit < existing.Balance {
			return fmt.Errorf("ChangeTrust: limit below balance")
		}
		t := st.mutateTrustline(source, op.Asset)
		t.Limit = op.Limit
		return nil
	}
	// New trustline: check reserve, then create. Authorization depends on
	// the issuer's auth_required flag (§5.1).
	a := st.Account(source)
	if a == nil {
		return fmt.Errorf("ChangeTrust: no account %s", source)
	}
	if a.Balance < st.MinBalance(a)+st.BaseReserve {
		return fmt.Errorf("ChangeTrust: %s lacks reserve for a trustline", source)
	}
	issuer := st.Account(op.Asset.Issuer)
	if issuer == nil {
		return fmt.Errorf("ChangeTrust: issuer %s does not exist", op.Asset.Issuer)
	}
	st.createTrustline(&TrustlineEntry{
		Account:    source,
		Asset:      op.Asset,
		Limit:      op.Limit,
		Authorized: issuer.Flags&FlagAuthRequired == 0,
	})
	return st.adjustSubEntries(source, +1)
}

// EncodeXDR implements OpBody.
func (op *ChangeTrust) EncodeXDR(e *xdr.Encoder) {
	op.Asset.EncodeXDR(e)
	e.PutInt64(op.Limit)
}

// --- AllowTrust ---

// AllowTrust sets or clears the authorized flag on a trustline; only the
// asset's issuer may do so (§5.1 KYC authorization).
type AllowTrust struct {
	Trustor   AccountID
	AssetCode string
	Authorize bool
}

// Type implements OpBody.
func (op *AllowTrust) Type() string { return "AllowTrust" }

// Threshold implements OpBody. AllowTrust is a low-security operation
// (§5.2), letting issuers delegate KYC approval to low-weight keys.
func (op *AllowTrust) Threshold() ThresholdLevel { return ThresholdLow }

// Validate implements OpBody.
func (op *AllowTrust) Validate() error {
	if op.Trustor == "" || op.AssetCode == "" {
		return fmt.Errorf("AllowTrust: missing trustor or asset code")
	}
	return nil
}

// Apply implements OpBody.
func (op *AllowTrust) Apply(st *State, env *ApplyEnv, source AccountID) error {
	issuer := st.Account(source)
	if issuer == nil {
		return fmt.Errorf("AllowTrust: no issuer account %s", source)
	}
	if op.Authorize && issuer.Flags&FlagAuthRequired == 0 {
		return fmt.Errorf("AllowTrust: %s does not have auth_required set", source)
	}
	if !op.Authorize && issuer.Flags&FlagAuthRevocable == 0 {
		return fmt.Errorf("AllowTrust: %s cannot revoke (auth_revocable unset)", source)
	}
	asset, err := NewAsset(op.AssetCode, source)
	if err != nil {
		return err
	}
	t := st.mutateTrustline(op.Trustor, asset)
	if t == nil {
		return fmt.Errorf("AllowTrust: %s has no trustline for %s", op.Trustor, asset)
	}
	t.Authorized = op.Authorize
	return nil
}

// EncodeXDR implements OpBody.
func (op *AllowTrust) EncodeXDR(e *xdr.Encoder) {
	e.PutString(string(op.Trustor))
	e.PutString(op.AssetCode)
	e.PutBool(op.Authorize)
}

// --- AccountMerge ---

// AccountMerge deletes the source account, transferring its whole XLM
// balance to the destination; this reclaims the entire reserve (§5.1).
type AccountMerge struct {
	Destination AccountID
}

// Type implements OpBody.
func (op *AccountMerge) Type() string { return "AccountMerge" }

// Threshold implements OpBody. Deleting an account is high security.
func (op *AccountMerge) Threshold() ThresholdLevel { return ThresholdHigh }

// Validate implements OpBody.
func (op *AccountMerge) Validate() error {
	if op.Destination == "" {
		return fmt.Errorf("AccountMerge: empty destination")
	}
	return nil
}

// Apply implements OpBody.
func (op *AccountMerge) Apply(st *State, env *ApplyEnv, source AccountID) error {
	if source == op.Destination {
		return fmt.Errorf("AccountMerge: cannot merge into self")
	}
	a := st.Account(source)
	if a == nil {
		return fmt.Errorf("AccountMerge: no account %s", source)
	}
	if a.NumSubEntries != 0 {
		return fmt.Errorf("AccountMerge: %s still owns %d subentries", source, a.NumSubEntries)
	}
	dest := st.Account(op.Destination)
	if dest == nil {
		return fmt.Errorf("AccountMerge: destination %s does not exist", op.Destination)
	}
	balance := a.Balance
	st.deleteAccount(source)
	d := st.mutateAccount(op.Destination)
	if d.Balance > MaxAmount-balance {
		return fmt.Errorf("AccountMerge: destination balance overflow")
	}
	d.Balance += balance
	return nil
}

// EncodeXDR implements OpBody.
func (op *AccountMerge) EncodeXDR(e *xdr.Encoder) {
	e.PutString(string(op.Destination))
}

// --- ManageData ---

// ManageData creates, changes, or deletes an account data entry (§5.1).
type ManageData struct {
	Name  string
	Value []byte // nil deletes
}

// Type implements OpBody.
func (op *ManageData) Type() string { return "ManageData" }

// Threshold implements OpBody.
func (op *ManageData) Threshold() ThresholdLevel { return ThresholdMedium }

// Validate implements OpBody.
func (op *ManageData) Validate() error {
	if op.Name == "" || len(op.Name) > 64 {
		return fmt.Errorf("ManageData: name length must be 1-64")
	}
	if len(op.Value) > 64 {
		return fmt.Errorf("ManageData: value longer than 64 bytes")
	}
	return nil
}

// Apply implements OpBody.
func (op *ManageData) Apply(st *State, env *ApplyEnv, source AccountID) error {
	existing := st.Data(source, op.Name)
	if op.Value == nil {
		if existing == nil {
			return fmt.Errorf("ManageData: no entry %q to delete", op.Name)
		}
		st.deleteData(source, op.Name)
		return st.adjustSubEntries(source, -1)
	}
	if existing != nil {
		st.setData(&DataEntry{Account: source, Name: op.Name, Value: op.Value})
		return nil
	}
	a := st.Account(source)
	if a == nil {
		return fmt.Errorf("ManageData: no account %s", source)
	}
	if a.Balance < st.MinBalance(a)+st.BaseReserve {
		return fmt.Errorf("ManageData: %s lacks reserve for a data entry", source)
	}
	st.setData(&DataEntry{Account: source, Name: op.Name, Value: op.Value})
	return st.adjustSubEntries(source, +1)
}

// EncodeXDR implements OpBody.
func (op *ManageData) EncodeXDR(e *xdr.Encoder) {
	e.PutString(op.Name)
	if op.Value == nil {
		e.PutBool(false)
	} else {
		e.PutBool(true)
		e.PutBytes(op.Value)
	}
}

// --- BumpSequence ---

// BumpSequence increases the sequence number on an account (Figure 4).
type BumpSequence struct {
	BumpTo uint64
}

// Type implements OpBody.
func (op *BumpSequence) Type() string { return "BumpSequence" }

// Threshold implements OpBody.
func (op *BumpSequence) Threshold() ThresholdLevel { return ThresholdLow }

// Validate implements OpBody.
func (op *BumpSequence) Validate() error { return nil }

// Apply implements OpBody.
func (op *BumpSequence) Apply(st *State, env *ApplyEnv, source AccountID) error {
	a := st.mutateAccount(source)
	if a == nil {
		return fmt.Errorf("BumpSequence: no account %s", source)
	}
	if op.BumpTo > a.SeqNum {
		a.SeqNum = op.BumpTo
	}
	return nil
}

// EncodeXDR implements OpBody.
func (op *BumpSequence) EncodeXDR(e *xdr.Encoder) {
	e.PutUint64(op.BumpTo)
}
