package herder

import (
	"bytes"
	"sort"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Proposed transaction sets (§5.3). A value names its set by hash; the set
// itself reaches a node in one of three ways. The node sealed it (the
// trigger). A peer flooded its reference and the node rebuilt it from its
// own pool — the ordinary case: a proposal is made of transactions that
// were flooded before it. Or the rebuild failed — a listed transaction is
// missing, or the pooled copy is signed differently — and the node asked
// the peer the reference came from for the whole set. A node forwards a
// reference only once it holds the set, so that peer can always answer; if
// it does not, the next peer to deliver the same reference is asked, each
// peer at most once per set, and a set still missing when its slot
// externalizes arrives with the catch-up reply (catchup.go).

// txsetPeer keys the request bookkeeping: one set, one peer.
type txsetPeer struct {
	set  stellarcrypto.Hash
	peer simnet.Addr
}

// txsetKeep is how many ledgers the records of requests outlive the ledger
// they were made at — who was asked for a set, who was served one, and
// which set each recent ledger applied, which a late request may still
// name — and how long a set on a ledger this node does not know is kept.
const txsetKeep = 3

// refOutcome is what became of a delivered reference; it indexes the
// children of herder_txset_refs_total{outcome}.
type refOutcome int

const (
	refResolved   refOutcome = iota // rebuilt from the pool
	refFetched                      // the whole set arrived in reply to a request
	refIgnored                      // for a ledger already closed, or malformed
	refUnanswered                   // a request no reply ever came for
)

var refOutcomeNames = [...]string{"resolved", "fetched", "ignored", "unanswered"}

// holdTxSet stores a transaction set learned from a peer, as given, and
// reports whether the set is new. A resolved reference is made of the pool's
// own instances already; a set that arrived as a body is first built from
// them (ledger.TxSet.Intern, at the caller), since a proposal is mostly
// transactions this node already pooled and their decoded duplicates would
// otherwise live as long as the set.
func (n *Node) holdTxSet(ts *ledger.TxSet) bool {
	h := ts.Hash(n.cfg.NetworkID)
	if n.last != nil {
		n.txsetSeen[h] = n.last.LedgerSeq
	}
	if _, dup := n.txsets[h]; dup {
		return false
	}
	n.txsets[h] = ts
	return true
}

func (n *Node) onTxSet(ts *ledger.TxSet) {
	if n.holdTxSet(ts) {
		// A value referencing this set may have been merely MaybeValid;
		// let nomination re-echo it now that we can judge it (§5.3).
		if n.last != nil {
			n.scp.RetryEcho(uint64(n.last.LedgerSeq) + 1)
		}
	}
	// A buffered decision may now be applicable.
	n.tryApplyDecided()
}

// closedPast reports whether prev is the hash of a ledger this node has
// closed and built on: a set on top of it is for a slot already decided
// here. Only the ledgers of the catch-up window are compared; anything
// older is as unknown as a ledger not reached yet.
func (n *Node) closedPast(prev stellarcrypto.Hash) bool {
	tip := n.last.LedgerSeq
	for seq := tip - 1; seq >= 1 && seq+recentWindow > tip; seq-- {
		if n.headers[seq] == prev {
			return true
		}
	}
	return false
}

// onTxSetRef handles a flooded reference and reports whether the node holds
// the set afterwards, which is what lets the overlay forward it.
func (n *Node) onTxSetRef(from simnet.Addr, ref *ledger.TxSetRef) bool {
	if n.state == nil {
		return false
	}
	if !ref.WellFormed() || n.closedPast(ref.PrevLedgerHash) {
		n.ins.txsetRefs[refIgnored].Inc()
		return false
	}
	h := ref.SetHash()
	if _, held := n.txsets[h]; held {
		n.txsetSeen[h] = n.last.LedgerSeq
		return true
	}
	if ts := ref.Resolve(n.cfg.NetworkID, n.pooled); ts != nil {
		n.ins.txsetRefs[refResolved].Inc()
		n.onTxSet(ts)
		return true
	}
	ask := txsetPeer{h, from}
	if _, asked := n.txsetAsked[ask]; !asked {
		n.txsetAsked[ask] = n.last.LedgerSeq
		n.ov.SendDirect(from, &overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: h})
	}
	return false
}

// serveTxSet answers a peer's request for a set, once per peer and set: an
// honest peer asks once. A set this node holds is sent from RAM; the set one
// of the last txsetKeep ledgers applied — a request that crossed this node's
// close — is read back through ledgerAt, from the archive or the window.
func (n *Node) serveTxSet(peer simnet.Addr, h stellarcrypto.Hash) {
	req := txsetPeer{h, peer}
	if _, served := n.txsetServed[req]; served || n.state == nil {
		return
	}
	ts, held := n.txsets[h]
	if seq, applied := n.txsetApplied[h]; !held && applied {
		it, ok := n.ledgerAt(seq)
		ts, held = it.TxSet, ok
	}
	if !held {
		return
	}
	n.txsetServed[req] = n.last.LedgerSeq
	n.ins.txsetServed.Inc()
	n.ov.SendDirect(peer, &overlay.Packet{Kind: overlay.KindTxSet, TxSet: ts})
}

// onTxSetReply holds a whole set a peer sent because this node asked it to,
// and only then floods the reference on. The set is kept as received except
// where the pool holds the very same envelope (ledger.TxSet.Intern).
func (n *Node) onTxSetReply(from simnet.Addr, ts *ledger.TxSet) {
	h := ts.Hash(n.cfg.NetworkID)
	ask := txsetPeer{h, from}
	if _, asked := n.txsetAsked[ask]; !asked {
		return
	}
	delete(n.txsetAsked, ask)
	if _, held := n.txsets[h]; held {
		return // another peer answered first
	}
	n.ins.txsetRefs[refFetched].Inc()
	ts = ts.Intern(n.cfg.NetworkID, n.pooled)
	n.onTxSet(ts) // which may apply it, and drop it, at once
	n.ov.BroadcastTxSetRef(ts.Ref(n.cfg.NetworkID), obs.TraceContext{})
}

// pruneTxSets runs at the end of every close. RAM holds the sets of open
// slots only: a set built on a ledger this node has closed past is dropped —
// the one the close applied among them, which the archive holds from now on
// — unless a buffered decision still names it. A set on a ledger this node
// does not know (one not reached yet) is kept until txsetKeep ledgers after
// it was last seen: pruning must not discard next-slot proposals that
// arrived before this close, since the overlay dedup would suppress their
// re-floods and the referencing values could never become votable. The
// request records go at the same age; a request still on record then was
// never answered. The verdicts on sets judged on the old tip go at once.
func (n *Node) pruneTxSets() {
	tip := n.last.LedgerSeq
	clear(n.setVerdicts)
	needed := make(map[stellarcrypto.Hash]bool, len(n.decided))
	for _, dv := range n.decided {
		needed[dv.TxSetHash] = true
	}
	tipHash := n.last.Hash()
	for h, ts := range n.txsets {
		if needed[h] || ts.PrevLedgerHash == tipHash {
			continue
		}
		if seen, ok := n.txsetSeen[h]; n.closedPast(ts.PrevLedgerHash) || !ok || seen+txsetKeep < tip {
			delete(n.txsets, h)
			delete(n.txsetSeen, h)
		}
	}
	for h, seq := range n.txsetApplied {
		if seq+txsetKeep <= tip {
			delete(n.txsetApplied, h)
		}
	}
	for ask, at := range n.txsetAsked {
		if at+txsetKeep < tip {
			delete(n.txsetAsked, ask)
			n.ins.txsetRefs[refUnanswered].Inc()
		}
	}
	for served, at := range n.txsetServed {
		if at+txsetKeep < tip {
			delete(n.txsetServed, served)
		}
	}
}

// rebroadcastTxSetRefs re-floods the references of the sets an undecided
// slot can still name — not those built on a ledger already closed past,
// which a lagging peer gets with its catch-up reply. Sorted hash order: send
// order feeds the simulated network's event and RNG sequence, and seeded
// runs must replay bit-identically.
func (n *Node) rebroadcastTxSetRefs() {
	hashes := make([]stellarcrypto.Hash, 0, len(n.txsets))
	for h, ts := range n.txsets {
		if !n.closedPast(ts.PrevLedgerHash) {
			hashes = append(hashes, h)
		}
	}
	sort.Slice(hashes, func(i, j int) bool {
		return bytes.Compare(hashes[i][:], hashes[j][:]) < 0
	})
	for _, h := range hashes {
		n.ov.BroadcastTxSetRef(n.txsets[h].Ref(n.cfg.NetworkID), obs.TraceContext{})
	}
}
