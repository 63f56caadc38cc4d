package horizon

import (
	"net/http"
	"strconv"

	"stellar/internal/history"
	"stellar/internal/ledger"
)

// Historical lookups (§5.4): "there needs to be some place one can look up
// a transaction from two years ago." When the server is configured with a
// history archive, horizon serves old ledgers and transactions from it.

// WithArchive attaches a history archive for the /ledgers/{seq} and
// /transactions/{hash} endpoints.
func (s *Server) WithArchive(a *history.Archive) *Server {
	s.archive = a
	return s
}

func (s *Server) registerHistory(mux *http.ServeMux) {
	s.handle(mux, "GET /ledgers/{seq}", s.handleLedgerBySeq)
	s.handle(mux, "GET /ledgers/{seq}/transactions", s.handleLedgerTxs)
	s.handle(mux, "GET /transactions/{hash}", s.handleTxByHash)
}

func (s *Server) handleLedgerBySeq(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ledger sequence")
		return
	}
	if s.archive != nil {
		hdr, err := s.archive.GetHeader(uint32(seq))
		if err != nil {
			writeError(w, http.StatusNotFound, "ledger %d not archived", seq)
			return
		}
		writeJSON(w, http.StatusOK, ledgerInfo(hdr))
		return
	}
	// Without an archive the node still remembers every header hash it
	// chained, which is exactly what cross-node divergence checks need
	// (the cluster smoke test compares this across the TCP quorum).
	if h, ok := s.Node.HeaderHash(uint32(seq)); ok {
		writeJSON(w, http.StatusOK, map[string]any{
			"sequence": seq,
			"hash":     h.Hex(),
		})
		return
	}
	writeError(w, http.StatusNotFound, "ledger %d not known to this node", seq)
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

func (s *Server) handleLedgerTxs(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ledger sequence")
		return
	}
	if s.archive == nil {
		writeError(w, http.StatusNotImplemented, "no history archive configured")
		return
	}
	ts, err := s.archive.GetTxSet(uint32(seq))
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

// handleTxByHash scans backward from the latest archived ledger. A real
// deployment would keep an index; the archive scan keeps the archive the
// single source of truth, as §5.4 describes.
func (s *Server) handleTxByHash(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	want := r.PathValue("hash")
	if s.archive == nil {
		writeError(w, http.StatusNotImplemented, "no history archive configured")
		return
	}
	cp, err := s.archive.LatestCheckpoint()
	if err != nil {
		writeError(w, http.StatusNotFound, "archive empty")
		return
	}
	const scanWindow = 1024
	lo := uint32(2)
	if cp.LedgerSeq > scanWindow {
		lo = cp.LedgerSeq - scanWindow
	}
	for seq := cp.LedgerSeq; seq >= lo; seq-- {
		ts, err := s.archive.GetTxSet(seq)
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
