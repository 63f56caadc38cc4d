package herder

// Installing ledgers this node did not close live. Every such ledger is a
// (header, tx set) pair — read back from the node's own archive at boot, or
// served by a peer (catchup.go) — and goes through ReplayLedger, which
// checks it against the tip and the node's own decisions and closes it with
// applyLedger, the routine of a live close, against the header it must
// reproduce: a replayed node is byte-identical to one that closed every
// ledger live.

import (
	"errors"
	"fmt"
	"io/fs"

	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// ReplayLedger installs one ledger on top of the tip. The header is not
// trusted: its sequence must follow the tip, the set must chain from the
// tip and hash to the header's TxSetHash, a decision this node's SCP holds
// for the slot must be the value the header commits to, and the header
// computed by applying the set — results hash, snapshot hash, chain link
// and all — must hash to exactly the given one. A ledger that fails a
// check is refused and leaves the node as it was.
func (n *Node) ReplayLedger(hdr *ledger.Header, ts *ledger.TxSet) error {
	if n.state == nil || n.last == nil {
		return fmt.Errorf("herder: replay: node has no state")
	}
	seq := hdr.LedgerSeq
	if seq != n.last.LedgerSeq+1 {
		return fmt.Errorf("herder: replay: header %d does not follow %d", seq, n.last.LedgerSeq)
	}
	prevHash := n.last.Hash()
	if ts.PrevLedgerHash != prevHash {
		return fmt.Errorf("herder: replay %d: tx set chains from %s, have %s",
			seq, ts.PrevLedgerHash.Hex(), prevHash.Hex())
	}
	if got := ts.Hash(n.cfg.NetworkID); got != hdr.TxSetHash {
		return fmt.Errorf("herder: replay %d: tx set hash %s, header says %s",
			seq, got.Hex(), hdr.TxSetHash.Hex())
	}
	sv := n.decided[uint64(seq)]
	if sv != nil && (sv.TxSetHash != hdr.TxSetHash || sv.CloseTime != hdr.CloseTime ||
		stellarcrypto.HashBytes(sv.Encode()) != hdr.SCPValueHash) {
		return fmt.Errorf("herder: replay %d: header contradicts this node's decision for the slot", seq)
	}
	return n.applyLedger(ts, sv, hdr)
}

// RestoreFromArchive cold-boots the node from its own archive: restore the
// latest checkpoint or, while the archive holds none yet, start from
// genesis, the state the network began from; then replay every archived
// ledger past that point. Every replayed header must be the one its replay
// computes (ReplayLedger), so a restarted node resumes at its archived tip
// on the chain it closed, whether or not a checkpoint was due yet. Returns
// how many ledgers were replayed. Running off the end of the archive (no
// header for the next sequence) is the normal stopping condition; a corrupt
// file is an error.
func (n *Node) RestoreFromArchive(a *history.Archive, genesis *ledger.State) (replayed int, err error) {
	switch _, err := a.LatestCheckpointSeq(); {
	case err == nil:
		if err := n.CatchUp(a); err != nil {
			return 0, err
		}
	case errors.Is(err, fs.ErrNotExist):
		n.Bootstrap(genesis, 0)
	default:
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

// ArchiveHoldsLedgers reports whether a holds a checkpoint or any ledger
// closed after genesis: whether RestoreFromArchive resumes past genesis.
func ArchiveHoldsLedgers(a *history.Archive) bool {
	_, err := a.LatestCheckpointSeq()
	return err == nil || a.HasLedger(2)
}
