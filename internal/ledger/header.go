package ledger

import (
	"fmt"
	"slices"
	"strings"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Header is the ledger header of Figure 3: global attributes, a hash chain
// to the previous header (with a skiplist for fast backward traversal),
// the SCP output, the results hash, and the snapshot (bucket list) hash.
type Header struct {
	LedgerSeq uint32
	// Prev is the previous header's hash. SkipList holds hashes of
	// exponentially older headers (rotated every SkipStride ledgers, as
	// in stellar-core), giving Fig 3's "several hashes forming a
	// skiplist". The skiplist is derived purely from the previous
	// header, so every node — including one that bootstrapped from a
	// checkpoint without deep history — computes identical headers.
	Prev     stellarcrypto.Hash
	SkipList [4]stellarcrypto.Hash
	// SCPValueHash commits to the consensus value this ledger applied
	// (transaction set hash, close time, upgrades — §5.3).
	SCPValueHash stellarcrypto.Hash
	TxSetHash    stellarcrypto.Hash
	ResultsHash  stellarcrypto.Hash
	// SnapshotHash is the bucket-list hash over all ledger entries.
	SnapshotHash stellarcrypto.Hash
	CloseTime    int64

	// Upgradable global parameters (§5.3).
	BaseFee         Amount
	BaseReserve     Amount
	MaxTxSetSize    int
	ProtocolVersion uint32

	TotalCoins Amount
	FeePool    Amount
}

// Hash returns the header's content hash.
func (h *Header) Hash() stellarcrypto.Hash {
	e := xdr.NewEncoder(256)
	e.PutUint32(h.LedgerSeq)
	e.PutFixed(h.Prev[:])
	for _, p := range h.SkipList {
		e.PutFixed(p[:])
	}
	e.PutFixed(h.SCPValueHash[:])
	e.PutFixed(h.TxSetHash[:])
	e.PutFixed(h.ResultsHash[:])
	e.PutFixed(h.SnapshotHash[:])
	e.PutInt64(h.CloseTime)
	e.PutInt64(h.BaseFee)
	e.PutInt64(h.BaseReserve)
	e.PutUint32(uint32(h.MaxTxSetSize))
	e.PutUint32(h.ProtocolVersion)
	e.PutInt64(h.TotalCoins)
	e.PutInt64(h.FeePool)
	return stellarcrypto.HashBytes(e.Bytes())
}

// GenesisHeader builds ledger 1's header for a fresh network.
func GenesisHeader(st *State, closeTime int64) *Header {
	return &Header{
		LedgerSeq:       1,
		CloseTime:       closeTime,
		BaseFee:         st.BaseFee,
		BaseReserve:     st.BaseReserve,
		MaxTxSetSize:    st.MaxTxSetSize,
		ProtocolVersion: st.ProtocolVersion,
		TotalCoins:      st.TotalCoins,
		FeePool:         st.FeePool,
	}
}

// SkipStride is how many ledgers pass between skiplist rotations; each
// slot k of the skiplist then references a header ~SkipStride^(k+1)... in
// practice slot k ages by one stride per rotation, matching stellar-core's
// scheme (stride 50 there; smaller here so simulations exercise it).
const SkipStride = 16

// NextHeader chains a new header onto prev. The skiplist carries over from
// the previous header, rotating every SkipStride ledgers — deterministic
// from (prev, prevHash) alone. The caller fills the content hashes.
func NextHeader(prev *Header, prevHash stellarcrypto.Hash) *Header {
	h := &Header{
		LedgerSeq:       prev.LedgerSeq + 1,
		Prev:            prevHash,
		SkipList:        prev.SkipList,
		BaseFee:         prev.BaseFee,
		BaseReserve:     prev.BaseReserve,
		MaxTxSetSize:    prev.MaxTxSetSize,
		ProtocolVersion: prev.ProtocolVersion,
		TotalCoins:      prev.TotalCoins,
		FeePool:         prev.FeePool,
	}
	if prev.LedgerSeq%SkipStride == 0 {
		h.SkipList[3] = h.SkipList[2]
		h.SkipList[2] = h.SkipList[1]
		h.SkipList[1] = h.SkipList[0]
		h.SkipList[0] = prevHash
	}
	return h
}

// PrevHash returns the immediate predecessor hash.
func (h *Header) PrevHash() stellarcrypto.Hash { return h.Prev }

// String summarizes the header.
func (h *Header) String() string {
	return fmt.Sprintf("ledger %d closed at %d (txset %s)", h.LedgerSeq, h.CloseTime, h.TxSetHash)
}

// SnapshotEntryKind tags entries in snapshot encodings.
type SnapshotEntryKind byte

// Entry kinds for the bucket list.
const (
	KindAccount SnapshotEntryKind = iota + 1
	KindTrustline
	KindOffer
	KindData
)

// SnapshotEntry is one ledger entry in canonical encoded form, as stored
// in the bucket list. Dead entries (tombstones) have nil Data.
type SnapshotEntry struct {
	Key  string // canonical entry key, unique across kinds
	Data []byte // canonical encoding; nil = deleted
}

// SnapshotAll encodes every live ledger entry for bucket-list
// initialization, sorted by key.
func (s *State) SnapshotAll() []SnapshotEntry {
	var out []SnapshotEntry
	for _, id := range s.AccountIDs() {
		out = append(out, encodeAccountEntry(s.accounts[id]))
	}
	for k, t := range s.trustlines {
		_ = k
		out = append(out, encodeTrustlineEntry(t))
	}
	for _, o := range s.offers {
		out = append(out, encodeOfferEntry(o))
	}
	for _, d := range s.data {
		out = append(out, encodeDataEntry(d))
	}
	sortSnapshot(out)
	return out
}

// sortSnapshot orders entries by key. Keys are unique across a snapshot,
// so the order — and every bucket hash built on it — is the same whatever
// the algorithm.
func sortSnapshot(entries []SnapshotEntry) {
	slices.SortFunc(entries, func(a, b SnapshotEntry) int { return strings.Compare(a.Key, b.Key) })
}

func encodeAccountEntry(a *AccountEntry) SnapshotEntry {
	e := xdr.NewEncoder(64)
	a.EncodeXDR(e)
	return SnapshotEntry{Key: "a|" + string(a.ID), Data: append([]byte(nil), e.Bytes()...)}
}

func encodeTrustlineEntry(t *TrustlineEntry) SnapshotEntry {
	e := xdr.NewEncoder(64)
	t.EncodeXDR(e)
	return SnapshotEntry{Key: "t|" + string(t.Account) + "|" + t.Asset.Key(), Data: append([]byte(nil), e.Bytes()...)}
}

func encodeOfferEntry(o *OfferEntry) SnapshotEntry {
	e := xdr.NewEncoder(64)
	o.EncodeXDR(e)
	return SnapshotEntry{Key: fmt.Sprintf("o|%020d", o.ID), Data: append([]byte(nil), e.Bytes()...)}
}

func encodeDataEntry(d *DataEntry) SnapshotEntry {
	e := xdr.NewEncoder(64)
	d.EncodeXDR(e)
	return SnapshotEntry{Key: "d|" + string(d.Account) + "|" + d.Name, Data: append([]byte(nil), e.Bytes()...)}
}
