package herder

import (
	"fmt"

	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
)

// Peer catch-up: the §6 post-mortem's corrective action — "once a
// validator moved to the next ledger, it didn't adequately help remaining
// nodes complete the previous ledger". A node behind the network asks one
// peer for the ledgers after its tip; the peer replies with (header, tx
// set) pairs, and the node installs each through ReplayLedger, the routine
// that also installs ledgers read back from its own archive.
//
// What a lagging node trusts: it checks every served ledger against the
// chain from its tip (the set must build on it and hash to what the header
// names, and applying it must reproduce the header) and against the SCP
// decisions it holds (the header must carry that slot's decided value). For
// a slot it never decided, it trusts the serving peer: a peer that serves a
// ledger the network did not close, consistently, can lead it onto that
// ledger. A ledger that fails a check is refused, and so is the rest of its
// reply; the request then goes to another peer.
//
// A durable peer serves any ledger its archive holds, checked against its
// own chain of header hashes. One without an archive serves from recent, an
// in-memory window of its last recentWindow (header, set) pairs, which on a
// durable node holds only the ledgers whose archive write failed.

// recentWindow is how many closed ledgers a node without an archive keeps
// for peers, and the most ledgers one catch-up reply carries.
const recentWindow = 128

// catchupReplyBytes bounds the encoded size of one catch-up reply, far
// enough under transport.MaxFramePayload that a reply is always sendable
// and small enough not to hold up a connection consensus traffic shares. A
// reply carries at least one ledger whatever its size; a peer further behind
// than one reply covers asks again from its new tip (applyCatchup).
const catchupReplyBytes = 2 << 20

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
		if n.fetch.awaiting(from) {
			n.applyCatchup(p.CatchupItems)
		}
	case overlay.KindArchiveReq:
		n.serveArchive(from, p)
	case overlay.KindArchiveResp:
		if n.fetch.awaiting(from) {
			n.onArchiveResp(p)
		}
	}
}

// ledgerAt returns the header and transaction set of closed ledger seq,
// from the window or else the archive. What the archive gives back passed
// the file's checksum and the strict decoder, and must still hash to the
// header this node closed and the set that header names.
func (n *Node) ledgerAt(seq uint32) (overlay.CatchupItem, bool) {
	if it, ok := n.recent[seq]; ok {
		return it, true
	}
	want, closed := n.headers[seq]
	a := n.cfg.Archive
	if !closed || a == nil {
		return overlay.CatchupItem{}, false
	}
	hdr, err := a.GetHeader(seq)
	if err == nil && hdr.Hash() != want {
		err = fmt.Errorf("archived header hashes to %s, ledger closed on %s", hdr.Hash(), want)
	}
	var ts *ledger.TxSet
	if err == nil {
		if ts = n.txsets[hdr.TxSetHash]; ts == nil {
			ts, err = a.GetTxSet(seq)
		}
	}
	if err == nil && ts.Hash(n.cfg.NetworkID) != hdr.TxSetHash {
		err = fmt.Errorf("archived set hashes to %s, header names %s", ts.Hash(n.cfg.NetworkID), hdr.TxSetHash)
	}
	if err != nil {
		n.log.Error("catch-up: archived ledger unusable", "seq", seq, "err", err)
		return overlay.CatchupItem{}, false
	}
	return overlay.CatchupItem{Header: hdr, TxSet: ts}, true
}

// serveCatchup replies with the ledgers from `from` to the tip, as many as
// fit catchupReplyBytes and recentWindow. A ledger this node cannot produce
// ends the reply before it; a range that starts at one gets no reply.
func (n *Node) serveCatchup(peer simnet.Addr, from uint32) {
	if n.state == nil {
		return
	}
	var items []overlay.CatchupItem
	size := 128 // the packet's own header: kind, TTL, origin, trace context, count
	for seq := from; seq <= n.last.LedgerSeq && len(items) < recentWindow; seq++ {
		it, ok := n.ledgerAt(seq)
		if !ok {
			break
		}
		size += ledger.HeaderXDRLen + it.TxSet.EncodedLen()
		if size > catchupReplyBytes && len(items) > 0 {
			break
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return
	}
	n.ov.SendDirect(peer, &overlay.Packet{Kind: overlay.KindCatchupResp, CatchupItems: items})
}

// applyCatchup installs the ledgers of a catch-up reply in order, each
// through ReplayLedger, up to the first that fails a check. A reply that
// installed a ledger answered the outstanding request: buffered decisions
// may apply now, and whatever is still missing is the next part of the
// range, asked for at once. One that installed nothing leaves the request
// to its timer, which sends it to the next peer.
func (n *Node) applyCatchup(items []overlay.CatchupItem) {
	if n.state == nil {
		return
	}
	tip := n.last.LedgerSeq
	for _, it := range items {
		if it.Header.LedgerSeq <= n.last.LedgerSeq {
			continue
		}
		// Held like any set learned from a peer, and applied as held: made
		// of the pool's instances wherever the pool has the same envelope.
		n.holdTxSet(it.TxSet)
		ts := n.txsets[it.TxSet.Hash(n.cfg.NetworkID)]
		if err := n.ReplayLedger(it.Header, ts); err != nil {
			n.log.Warn("catch-up: reply refused", "err", err)
			break
		}
		n.ins.catchupReplayed.Inc()
	}
	if n.last.LedgerSeq == tip {
		return
	}
	n.fetch.answered()
	n.tryApplyDecided()
	n.maybeRequestCatchup()
}

// maybeRequestCatchup asks a peer for the ledgers after the tip when the
// node is behind the network (CatchingUp) and no request is outstanding.
func (n *Node) maybeRequestCatchup() {
	f := &n.fetch
	if n.state == nil || f.timer != nil {
		return
	}
	if f.phase == catchupReplaying && n.last.LedgerSeq >= f.tip {
		n.catchupDone()
	}
	if !n.CatchingUp() {
		return
	}
	n.fetchSend(&overlay.Packet{Kind: overlay.KindCatchupReq, CatchupFrom: n.last.LedgerSeq + 1})
}
