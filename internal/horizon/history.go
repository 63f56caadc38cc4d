package horizon

import (
	"net/http"
	"strconv"

	"stellar/internal/ledger"
)

// Historical lookups (§5.4): "there needs to be some place one can look up
// a transaction from two years ago." A node with a data dir serves the
// transactions of its closed ledgers from its own history archive; one
// without answers 501 for them.

func (s *Server) registerHistory(mux *http.ServeMux) {
	s.handle(mux, "GET /ledgers/{seq}", s.handleLedgerBySeq)
	s.handle(mux, "GET /ledgers/{seq}/transactions", s.handleLedgerTxs)
	s.handle(mux, "GET /transactions/{hash}", s.handleTxByHash)
}

// handleLedgerBySeq serves the hash of a header the node chained itself,
// which is what cross-node divergence checks compare (the cluster smoke
// test and the benchmark poll it across the TCP quorum).
func (s *Server) handleLedgerBySeq(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ledger sequence")
		return
	}
	s.Mu.Lock()
	h, ok := s.Node.HeaderHash(uint32(seq))
	s.Mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "ledger %d not known to this node", seq)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sequence": seq,
		"hash":     h.Hex(),
	})
}

// TxInfo is the public view of an archived transaction.
type TxInfo struct {
	Hash       string `json:"hash"`
	Ledger     uint32 `json:"ledger"`
	Source     string `json:"source"`
	Fee        string `json:"fee"`
	SeqNum     uint64 `json:"sequence"`
	Operations []struct {
		Type string `json:"type"`
	} `json:"operations"`
}

func txInfo(tx *ledger.Transaction, seq uint32, hash string) TxInfo {
	info := TxInfo{
		Hash:   hash,
		Ledger: seq,
		Source: string(tx.Source),
		Fee:    strconv.FormatInt(tx.Fee, 10),
		SeqNum: tx.SeqNum,
	}
	for _, op := range tx.Operations {
		info.Operations = append(info.Operations, struct {
			Type string `json:"type"`
		}{op.Body.Type()})
	}
	return info
}

// handleLedgerTxs reads the ledger's transaction set from the archive; the
// archive is read without the node's lock.
func (s *Server) handleLedgerTxs(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ledger sequence")
		return
	}
	a := s.Node.Archive()
	if a == nil {
		writeError(w, http.StatusNotImplemented, "node keeps no history archive")
		return
	}
	ts, err := a.GetTxSet(uint32(seq))
	if err != nil {
		writeError(w, http.StatusNotFound, "ledger %d not archived", seq)
		return
	}
	out := make([]TxInfo, 0, len(ts.Txs))
	for _, tx := range ts.Txs {
		out = append(out, txInfo(tx, uint32(seq), tx.Hash(s.NetworkID).Hex()))
	}
	writeJSON(w, http.StatusOK, map[string]any{"ledger": seq, "transactions": out})
}

// handleTxByHash scans the archive backward from the node's tip, which the
// close that moved it archived under the same lock. A real deployment would
// keep an index; the scan keeps the archive the single source of truth, as
// §5.4 describes. The lock is held only to read the tip.
func (s *Server) handleTxByHash(w http.ResponseWriter, r *http.Request) {
	want := r.PathValue("hash")
	a := s.Node.Archive()
	if a == nil {
		writeError(w, http.StatusNotImplemented, "node keeps no history archive")
		return
	}
	s.Mu.Lock()
	tip := s.Node.LastHeader()
	s.Mu.Unlock()
	if tip == nil {
		writeError(w, http.StatusServiceUnavailable, "node not bootstrapped")
		return
	}
	const scanWindow = 1024
	lo := uint32(2)
	if tip.LedgerSeq > scanWindow {
		lo = tip.LedgerSeq - scanWindow
	}
	for seq := tip.LedgerSeq; seq >= lo; seq-- {
		ts, err := a.GetTxSet(seq)
		if err != nil {
			continue
		}
		for _, tx := range ts.Txs {
			if tx.Hash(s.NetworkID).Hex() == want {
				writeJSON(w, http.StatusOK, txInfo(tx, seq, want))
				return
			}
		}
	}
	writeError(w, http.StatusNotFound, "transaction %s not found in the last %d ledgers", want, scanWindow)
}
