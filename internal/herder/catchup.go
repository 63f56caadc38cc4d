package herder

import (
	"fmt"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Peer catch-up: the §6 post-mortem's corrective action — "once a
// validator moved to the next ledger, it didn't adequately help remaining
// nodes complete the previous ledger". Validators keep a window of
// recently closed ledgers and serve them point-to-point to lagging peers,
// who replay them and verify the result against their own SCP-decided values
// (the hash chain makes forged history unappliable: a wrong intermediate
// ledger changes every later header hash, so the SCP-decided transaction
// set's PrevLedgerHash would no longer match and the replay stalls instead
// of diverging).
//
// History lives on disk; the window is an index. An entry holds the
// consensus value that closed the ledger, which names the transaction set;
// the set itself is served from wherever it already is — the open-slot sets
// for the last few ledgers, the archive after that — and is kept in the
// entry only when there is no such place: on a node without an archive, or
// for a ledger whose set failed to reach it. The window's memory therefore
// does not grow with the size of a ledger.

// recentWindow is how many closed ledgers a validator keeps for peers.
const recentWindow = 128

// catchupReplyBytes bounds the encoded size of one catch-up reply, far
// enough under transport.MaxFramePayload that a reply is always sendable
// and small enough not to hold up a connection consensus traffic shares. A
// reply carries at least one ledger whatever its size; a peer further behind
// than one reply covers asks again from its new tip (applyCatchup).
const catchupReplyBytes = 2 << 20

// recentLedger is one entry of the serving window.
type recentLedger struct {
	value     scp.Value // encoded StellarValue that closed the slot
	txSetHash stellarcrypto.Hash
	txset     *ledger.TxSet // nil when the archive holds it
}

// handleDirect processes point-to-point traffic: catch-up, archive fetch,
// and transaction-set requests and replies (txsets.go).
func (n *Node) handleDirect(from simnet.Addr, p *overlay.Packet) {
	switch p.Kind {
	case overlay.KindTxSetReq:
		n.serveTxSet(from, p.TxSetHash)
	case overlay.KindTxSet:
		n.onTxSetReply(from, p.TxSet)
	case overlay.KindCatchupReq:
		n.serveCatchup(from, p.CatchupFrom)
	case overlay.KindCatchupResp:
		n.applyCatchup(p.CatchupItems)
	case overlay.KindArchiveReq:
		n.serveArchive(from, p)
	case overlay.KindArchiveResp:
		n.onArchiveResp(from, p)
	}
}

// txSetAt returns the transaction set of a ledger in the window, or nil if
// it cannot be produced. A set read back from the archive passed the file's
// checksum and the strict decoder, and must hash to what consensus decided.
func (n *Node) txSetAt(seq uint32) *ledger.TxSet {
	rc, ok := n.recent[seq]
	if !ok {
		return nil
	}
	if rc.txset != nil {
		return rc.txset
	}
	if ts, hot := n.txsets[rc.txSetHash]; hot {
		return ts
	}
	ts, err := n.cfg.Archive.GetTxSet(seq)
	if err == nil && ts.Hash(n.cfg.NetworkID) != rc.txSetHash {
		err = fmt.Errorf("archived set hashes to %s, ledger closed on %s", ts.Hash(n.cfg.NetworkID), rc.txSetHash)
	}
	if err != nil {
		n.log.Error("catch-up: archived tx set unusable", "seq", seq, "err", err)
		return nil
	}
	return ts
}

// serveCatchup replies with the ledgers from `from` to the tip, as many as
// fit catchupReplyBytes. A range that starts before the window gets no
// reply (the peer needs an archive); a ledger whose transaction set cannot
// be produced ends the reply before it.
func (n *Node) serveCatchup(peer simnet.Addr, from uint32) {
	if n.state == nil {
		return
	}
	var items []overlay.CatchupItem
	size := 128 // the packet's own header: kind, TTL, origin, trace context, count
	for seq := from; seq <= n.last.LedgerSeq; seq++ {
		ts := n.txSetAt(seq)
		if ts == nil {
			break
		}
		value := n.recent[seq].value
		size += 16 + len(value) + ts.EncodedLen() // slot, length prefix and padding
		if size > catchupReplyBytes && len(items) > 0 {
			break
		}
		items = append(items, overlay.CatchupItem{Slot: uint64(seq), Value: value, TxSet: ts})
	}
	if len(items) == 0 {
		return
	}
	n.ov.SendDirect(peer, &overlay.Packet{Kind: overlay.KindCatchupResp, CatchupItems: items})
}

// applyCatchup replays served ledgers in order. Each item's value is
// decoded and applied exactly like an SCP decision; the usual
// tryApplyDecided machinery enforces sequencing and tx set presence.
func (n *Node) applyCatchup(items []overlay.CatchupItem) {
	if n.state == nil {
		return
	}
	tip := n.last.LedgerSeq
	for _, it := range items {
		if it.Slot <= uint64(n.last.LedgerSeq) || it.TxSet == nil {
			continue
		}
		sv, err := DecodeValue(it.Value)
		if err != nil {
			return // corrupt response; drop the rest
		}
		n.holdTxSet(it.TxSet)
		if _, decidedAlready := n.decided[it.Slot]; !decidedAlready {
			n.decided[it.Slot] = sv
		}
	}
	n.tryApplyDecided()
	if n.last.LedgerSeq > tip {
		// The reply applied, so whatever is still missing is the next part
		// of the range, not a lost request: ask for it now instead of one
		// ledger interval from the last request.
		n.lastCatchupReq = 0
		n.maybeRequestCatchup()
	}
}

// maybeRequestCatchup fires a catch-up request when we hold a decision for
// a slot we cannot reach sequentially (we missed intermediate ledgers).
// Rate-limited so a stuck node asks roughly once per ledger interval.
func (n *Node) maybeRequestCatchup() {
	if n.state == nil || len(n.ov.Peers()) == 0 {
		return
	}
	next := uint64(n.last.LedgerSeq) + 1
	behind := false
	for slot := range n.decided {
		if slot > next {
			behind = true
			break
		}
	}
	if _, haveNext := n.decided[next]; haveNext {
		// We have the decision but maybe not its tx set; a catch-up
		// response supplies both.
		behind = true
	}
	if !behind {
		return
	}
	now := n.net.Now()
	if n.lastCatchupReq != 0 && now-n.lastCatchupReq < n.cfg.LedgerInterval {
		return
	}
	n.lastCatchupReq = now
	peers := n.ov.Peers()
	peer := peers[int(now/time.Millisecond)%len(peers)]
	n.ov.SendDirect(peer, &overlay.Packet{
		Kind:        overlay.KindCatchupReq,
		CatchupFrom: n.last.LedgerSeq + 1,
	})
}
