package ledger

import (
	"fmt"
	"sort"

	"stellar/internal/obs"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
)

// State is the in-memory ledger state: every live ledger entry plus the
// global parameters adjustable by upgrades (§5.3). It supports journaled
// mutation so that a failed transaction rolls back atomically (§5.2:
// "Transactions are atomic — if any operation fails, none of them execute").
type State struct {
	accounts   map[AccountID]*AccountEntry
	trustlines map[trustKey]*TrustlineEntry
	offers     map[uint64]*OfferEntry
	data       map[dataKey]*DataEntry

	// books indexes live offers by (selling, buying) pair for the order
	// book; values are offer IDs kept price-sorted lazily at read time.
	books map[bookKey][]uint64

	// Global parameters (upgradable, §5.3).
	BaseFee         Amount // minimum fee per operation
	BaseReserve     Amount // reserve per ledger entry (§5.1, 0.5 XLM)
	MaxTxSetSize    int    // operations per ledger before surge pricing
	ProtocolVersion uint32

	// TotalCoins tracks all XLM in existence; fees are recycled into the
	// fee pool rather than destroyed (§5.2).
	TotalCoins Amount
	FeePool    Amount

	nextOfferID uint64

	journal []undo
	dirty   map[string]struct{}

	// authEpoch is AuthEpoch's counter (apply.go).
	authEpoch uint64

	// ins holds the optional apply-path metrics (SetObs).
	ins *ledgerInstruments

	// traceSpan, when set, is the current ledger's apply span
	// (SetTraceSpan); ApplyTxSet hangs measured phase children off it.
	traceSpan *obs.Span

	// verifier, when set, routes signature checks through the shared
	// verification cache and enables the parallel prepass in ApplyTxSet.
	// Nil means direct, uncached, sequential verification — the retained
	// reference implementation the property tests compare against.
	verifier *verify.Verifier
	// spent collects the cache keys of the signature checks ApplyTxSet's
	// sequential loop makes, while it runs; nil at any other time.
	spent []stellarcrypto.Hash
}

type bookKey struct{ selling, buying string }

// Protocol constants matching the paper's description of the production
// network.
const (
	// DefaultBaseFee is 100 stroops = 10^-5 XLM (§5.2).
	DefaultBaseFee Amount = 100
	// DefaultBaseReserve is 0.5 XLM per ledger entry (§5.1).
	DefaultBaseReserve Amount = 5_000_000
	// DefaultMaxTxSetSize bounds operations per ledger.
	DefaultMaxTxSetSize = 1000
	// TotalSupply is the pre-mined XLM supply (100 billion).
	TotalSupply Amount = 100_000_000_000 * One
)

// NewState creates an empty ledger state with default parameters.
func NewState() *State {
	return &State{
		accounts:        make(map[AccountID]*AccountEntry),
		trustlines:      make(map[trustKey]*TrustlineEntry),
		offers:          make(map[uint64]*OfferEntry),
		data:            make(map[dataKey]*DataEntry),
		books:           make(map[bookKey][]uint64),
		BaseFee:         DefaultBaseFee,
		BaseReserve:     DefaultBaseReserve,
		MaxTxSetSize:    DefaultMaxTxSetSize,
		ProtocolVersion: 1,
		nextOfferID:     1,
	}
}

// NewGenesisState creates a ledger whose entire XLM supply is held by the
// master account, as at network genesis.
func NewGenesisState(master AccountID) *State {
	s := NewState()
	s.TotalCoins = TotalSupply
	s.accounts[master] = &AccountEntry{
		ID:         master,
		Balance:    TotalSupply,
		Thresholds: DefaultThresholds(),
	}
	return s
}

// SetVerifier routes the state's signature checks through v's cache and
// pool. A nil v restores the direct sequential reference path.
func (s *State) SetVerifier(v *verify.Verifier) { s.verifier = v }

// Verifier returns the attached verification pipeline, or nil.
func (s *State) Verifier() *verify.Verifier { return s.verifier }

// verifySig checks one signature, through the cache when a verifier is
// attached. The verdict is identical either way: the cache memoizes a
// pure function of (key, msg, sig). Inside ApplyTxSet's loop the lookup's
// key is kept, so the set's verdicts can leave the cache without hashing
// anything twice.
func (s *State) verifySig(pk stellarcrypto.PublicKey, msg, sig []byte) bool {
	if s.spent == nil {
		return s.verifier.Verify(pk, msg, sig) // nil-safe: falls back to pk.Verify
	}
	key := verify.Key(pk, msg, sig)
	s.spent = append(s.spent, key)
	return s.verifier.Cache.VerifyKey(key, pk, msg, sig)
}

// --- journaling ---

type undo func(*State)

func (s *State) record(u undo) {
	if s.journal != nil {
		s.journal = append(s.journal, u)
	}
}

// begin starts a transaction scope; commit with commitTx or roll back with
// rollbackTx. Scopes do not nest.
func (s *State) begin() {
	s.journal = make([]undo, 0, 16)
}

func (s *State) commitTx() {
	s.journal = nil
}

func (s *State) rollbackTx() {
	j := s.journal
	s.journal = nil // undos themselves must not be journaled
	for i := len(j) - 1; i >= 0; i-- {
		j[i](s)
	}
}

// --- accounts ---

// Account returns the entry for id, or nil.
func (s *State) Account(id AccountID) *AccountEntry { return s.accounts[id] }

// HasAccount reports account existence.
func (s *State) HasAccount(id AccountID) bool { return s.accounts[id] != nil }

// NumAccounts returns the number of account entries.
func (s *State) NumAccounts() int { return len(s.accounts) }

// mutateAccount snapshots the account for rollback and returns it for
// in-place modification.
func (s *State) mutateAccount(id AccountID) *AccountEntry {
	a := s.accounts[id]
	if a == nil {
		return nil
	}
	s.markDirty(accountKey(id))
	old := a.clone()
	s.record(func(st *State) { st.accounts[id] = old })
	return a
}

// createAccount inserts a new account entry.
func (s *State) createAccount(a *AccountEntry) {
	s.markDirty(accountKey(a.ID))
	s.accounts[a.ID] = a
	s.record(func(st *State) { delete(st.accounts, a.ID) })
}

// deleteAccount removes an account entry (AccountMerge).
func (s *State) deleteAccount(id AccountID) {
	s.authEpoch++
	s.markDirty(accountKey(id))
	old := s.accounts[id]
	delete(s.accounts, id)
	s.record(func(st *State) { st.accounts[id] = old })
}

// MinBalance is the reserve an account must hold: (2 + subentries) base
// reserves, as in Stellar (§5.1).
func (s *State) MinBalance(a *AccountEntry) Amount {
	return (2 + Amount(a.NumSubEntries)) * s.BaseReserve
}

// --- trustlines ---

// Trustline returns the entry, or nil.
func (s *State) Trustline(acct AccountID, asset Asset) *TrustlineEntry {
	return s.trustlines[trustKey{acct, asset.Key()}]
}

// NumTrustlines returns the number of trustline entries.
func (s *State) NumTrustlines() int { return len(s.trustlines) }

func (s *State) mutateTrustline(acct AccountID, asset Asset) *TrustlineEntry {
	k := trustKey{acct, asset.Key()}
	t := s.trustlines[k]
	if t == nil {
		return nil
	}
	s.markDirty(trustlineKeyOf(k))
	old := t.clone()
	s.record(func(st *State) { st.trustlines[k] = old })
	return t
}

func (s *State) createTrustline(t *TrustlineEntry) {
	k := trustKey{t.Account, t.Asset.Key()}
	s.markDirty(trustlineKeyOf(k))
	s.trustlines[k] = t
	s.record(func(st *State) { delete(st.trustlines, k) })
}

func (s *State) deleteTrustline(acct AccountID, asset Asset) {
	k := trustKey{acct, asset.Key()}
	s.markDirty(trustlineKeyOf(k))
	old := s.trustlines[k]
	delete(s.trustlines, k)
	s.record(func(st *State) { st.trustlines[k] = old })
}

// TrustlinesOf lists an account's trustlines sorted by asset key.
func (s *State) TrustlinesOf(acct AccountID) []*TrustlineEntry {
	var out []*TrustlineEntry
	for k, t := range s.trustlines {
		if k.account == acct {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Asset.Key() < out[j].Asset.Key() })
	return out
}

// --- offers ---

// Offer returns the entry, or nil.
func (s *State) Offer(id uint64) *OfferEntry { return s.offers[id] }

// NumOffers returns the number of live offers.
func (s *State) NumOffers() int { return len(s.offers) }

func (s *State) mutateOffer(id uint64) *OfferEntry {
	o := s.offers[id]
	if o == nil {
		return nil
	}
	s.markDirty(offerKey(id))
	old := o.clone()
	s.record(func(st *State) { st.offers[id] = old })
	return o
}

func (s *State) createOffer(o *OfferEntry) {
	s.markDirty(offerKey(o.ID))
	bk := bookKey{o.Selling.Key(), o.Buying.Key()}
	s.offers[o.ID] = o
	s.books[bk] = append(s.books[bk], o.ID)
	s.record(func(st *State) { st.dropOffer(o.ID) })
}

func (s *State) deleteOffer(id uint64) {
	o := s.offers[id]
	if o == nil {
		return
	}
	s.markDirty(offerKey(id))
	old := o.clone()
	bk := bookKey{o.Selling.Key(), o.Buying.Key()}
	oldBook := append([]uint64(nil), s.books[bk]...)
	s.dropOffer(id)
	s.record(func(st *State) {
		st.offers[id] = old
		st.books[bk] = oldBook
	})
}

// dropOffer removes the offer without journaling (internal helper).
func (s *State) dropOffer(id uint64) {
	o := s.offers[id]
	if o == nil {
		return
	}
	bk := bookKey{o.Selling.Key(), o.Buying.Key()}
	book := s.books[bk]
	for i, oid := range book {
		if oid == id {
			s.books[bk] = append(book[:i], book[i+1:]...)
			break
		}
	}
	if len(s.books[bk]) == 0 {
		delete(s.books, bk)
	}
	delete(s.offers, id)
}

// allocOfferID hands out the next offer ID.
func (s *State) allocOfferID() uint64 {
	id := s.nextOfferID
	s.nextOfferID++
	s.record(func(st *State) { st.nextOfferID = id })
	return id
}

// OffersBook returns the live offers selling `selling` for `buying`,
// sorted by ascending price (best first) then offer ID (oldest first).
func (s *State) OffersBook(selling, buying Asset) []*OfferEntry {
	ids := s.books[bookKey{selling.Key(), buying.Key()}]
	out := make([]*OfferEntry, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.offers[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Price.Cmp(out[j].Price); c != 0 {
			return c < 0
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// AllOffers lists every live offer sorted by ID.
func (s *State) AllOffers() []*OfferEntry {
	out := make([]*OfferEntry, 0, len(s.offers))
	for _, o := range s.offers {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OffersOf lists an account's offers sorted by ID.
func (s *State) OffersOf(acct AccountID) []*OfferEntry {
	var out []*OfferEntry
	for _, o := range s.offers {
		if o.Seller == acct {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- data entries ---

// Data returns the entry, or nil.
func (s *State) Data(acct AccountID, name string) *DataEntry {
	return s.data[dataKey{acct, name}]
}

// NumData returns the number of data entries.
func (s *State) NumData() int { return len(s.data) }

func (s *State) setData(d *DataEntry) {
	k := dataKey{d.Account, d.Name}
	s.markDirty(dataKeyOf(k))
	old := s.data[k]
	s.data[k] = d
	s.record(func(st *State) {
		if old == nil {
			delete(st.data, k)
		} else {
			st.data[k] = old
		}
	})
}

func (s *State) deleteData(acct AccountID, name string) {
	k := dataKey{acct, name}
	s.markDirty(dataKeyOf(k))
	old := s.data[k]
	delete(s.data, k)
	s.record(func(st *State) { st.data[k] = old })
}

// --- balances ---

// BalanceOf returns the account's balance in the given asset: native XLM
// from the account entry, issued assets from the trustline (the issuer has
// an implicit unbounded balance in its own asset).
func (s *State) BalanceOf(acct AccountID, asset Asset) Amount {
	if asset.IsNative() {
		if a := s.accounts[acct]; a != nil {
			return a.Balance
		}
		return 0
	}
	if acct == asset.Issuer {
		return MaxAmount // issuers mint on payment
	}
	if t := s.Trustline(acct, asset); t != nil {
		return t.Balance
	}
	return 0
}

// adjustSubEntries changes an account's subentry count, journaled.
func (s *State) adjustSubEntries(id AccountID, delta int) error {
	a := s.mutateAccount(id)
	if a == nil {
		return fmt.Errorf("ledger: unknown account %s", id)
	}
	n := int64(a.NumSubEntries) + int64(delta)
	if n < 0 {
		return fmt.Errorf("ledger: subentry underflow on %s", id)
	}
	a.NumSubEntries = uint32(n)
	return nil
}

// AccountIDs returns every account ID, sorted. Used by snapshot hashing
// and the bucket list.
func (s *State) AccountIDs() []AccountID {
	out := make([]AccountID, 0, len(s.accounts))
	for id := range s.accounts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
