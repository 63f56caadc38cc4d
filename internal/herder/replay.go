package herder

// Archive replay: re-closing ledgers from archived headers and tx sets.
// After a node restores a checkpoint (locally via CatchUp, or over the
// network via netcatchup.go) it is at the checkpoint's sequence but the
// network has moved on; replay applies each archived tx set in order and
// proves the result against the archived header's hash, so a replayed
// node is byte-identical to one that closed every ledger live.

import (
	"errors"
	"fmt"
	"io/fs"

	"stellar/internal/history"
	"stellar/internal/ledger"
)

// ReplayLedger applies one archived ledger on top of the current state.
// The archived header is not trusted: the computed header — results hash,
// snapshot hash, chain link and all — must hash to exactly the archived
// header's hash, or the state is rolled forward incorrectly somewhere and
// the node must not continue.
func (n *Node) ReplayLedger(hdr *ledger.Header, ts *ledger.TxSet) error {
	if n.state == nil || n.last == nil {
		return fmt.Errorf("herder: replay: node has no state")
	}
	if hdr.LedgerSeq != n.last.LedgerSeq+1 {
		return fmt.Errorf("herder: replay: header %d does not follow %d", hdr.LedgerSeq, n.last.LedgerSeq)
	}
	prevHash := n.last.Hash()
	if ts.PrevLedgerHash != prevHash {
		return fmt.Errorf("herder: replay %d: tx set chains from %s, have %s",
			hdr.LedgerSeq, ts.PrevLedgerHash.Hex(), prevHash.Hex())
	}
	if got := ts.Hash(n.cfg.NetworkID); got != hdr.TxSetHash {
		return fmt.Errorf("herder: replay %d: tx set hash %s, header says %s",
			hdr.LedgerSeq, got.Hex(), hdr.TxSetHash.Hex())
	}

	env := &ledger.ApplyEnv{LedgerSeq: hdr.LedgerSeq, CloseTime: hdr.CloseTime}
	_, resultsHash := n.state.ApplyTxSet(ts, n.cfg.NetworkID, env)

	// Adopt the archived header's network parameters after apply, the same
	// position upgrades take in a live close.
	n.state.BaseFee = hdr.BaseFee
	n.state.BaseReserve = hdr.BaseReserve
	n.state.MaxTxSetSize = hdr.MaxTxSetSize
	n.state.ProtocolVersion = hdr.ProtocolVersion

	computed := n.sealLedger(hdr.SCPValueHash, hdr.TxSetHash, resultsHash, hdr.CloseTime)
	if computed.Hash() != hdr.Hash() {
		return fmt.Errorf("herder: replay %d: computed header %s, archive has %s",
			hdr.LedgerSeq, computed.Hash().Hex(), hdr.Hash().Hex())
	}

	n.last = computed
	n.headers[computed.LedgerSeq] = computed.Hash()
	n.nextSlot = uint64(computed.LedgerSeq) + 1
	delete(n.decided, uint64(computed.LedgerSeq))
	delete(n.triggered, uint64(computed.LedgerSeq))
	n.lastLedgerTxs = len(ts.Txs)
	n.ins.ledgersClosed.Inc()
	n.log.Debug("ledger replayed", "seq", computed.LedgerSeq, "txs", len(ts.Txs))
	return nil
}

// RestoreFromArchive cold-boots the node from an archive: restore the
// latest checkpoint, then replay every archived ledger past it. Returns
// how many ledgers were replayed beyond the checkpoint. Running off the
// end of the archive (no header for the next sequence) is the normal
// stopping condition; a corrupt file is an error.
func (n *Node) RestoreFromArchive(a *history.Archive) (replayed int, err error) {
	if err := n.CatchUp(a); err != nil {
		return 0, err
	}
	for {
		seq := n.last.LedgerSeq + 1
		hdr, err := a.GetHeader(seq)
		if errors.Is(err, fs.ErrNotExist) {
			return replayed, nil // reached the archive tip
		}
		if err != nil {
			return replayed, err
		}
		ts, err := a.GetTxSet(seq)
		if err != nil {
			return replayed, err
		}
		if err := n.ReplayLedger(hdr, ts); err != nil {
			return replayed, err
		}
		replayed++
	}
}
