package horizon

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
)

// POST /transactions takes one body, {"envelope_xdr": hex}: a transaction
// envelope its source signed (§5.2), so the server never sees a secret.
// The pipeline is body cap → readiness → decode → the node's admission
// gate (herder.AdmitTx: structure, fee floor, time bounds, signatures,
// pool) → flood, and every refusal is explicit (DESIGN.md §8): 400 for a
// transaction that can never be admitted, 429 with Retry-After and a
// min-fee hint while the pool pushes back, 503 while the node catches up.
// GET /fee_stats exposes the same fee floor so well-behaved clients can
// price themselves in before submitting.

// maxBodyBytes caps a submission request body. Generous: the XDR
// decoder itself caps envelopes at 100 ops / 20 sigs, far below this.
const maxBodyBytes = 64 << 10

// SubmitRequest is the JSON transaction submission format.
type SubmitRequest struct {
	// EnvelopeXDR is a hex-encoded signed transaction envelope.
	EnvelopeXDR string `json:"envelope_xdr"`
}

// SubmitResponse is the accepted/duplicate submission body.
type SubmitResponse struct {
	Hash   string `json:"hash"`
	Status string `json:"status"` // pending | duplicate
}

// RejectBody is the backpressure response contract: every 429/503
// carries the machine-readable retry hints alongside the error text.
type RejectBody struct {
	Error string `json:"error"`
	// RetryAfter mirrors the Retry-After header, in seconds.
	RetryAfter int64 `json:"retry_after,omitempty"`
	// MinFee, when present, is the smallest total fee (in stroops, the
	// unit of a transaction's fee) that would currently be admitted.
	MinFee string `json:"min_fee,omitempty"`
}

// countSubmit records one ingress decision.
func (s *Server) countSubmit(outcome string) {
	s.ingressReqs.With(outcome).Inc()
}

// retryAfterSeconds rounds a wait up to whole seconds (minimum 1, the
// smallest honest Retry-After).
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeReject emits a backpressure response: status 429 or 503, the
// Retry-After header, and the structured hint body.
func writeReject(w http.ResponseWriter, status int, retryAfter time.Duration, minFee ledger.Amount, format string, args ...any) {
	secs := retryAfterSeconds(retryAfter)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	body := RejectBody{Error: fmt.Sprintf(format, args...), RetryAfter: secs}
	if minFee > 0 {
		body.MinFee = strconv.FormatInt(int64(minFee), 10)
	}
	writeJSON(w, status, body)
}

// handleSubmit is the submit pipeline. Order matters: the body cap runs
// before any decoding, a node that is not bootstrapped or is catching up
// answers 503 before it judges anything against state it does not have
// yet, and the admission gate decides last.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countSubmit("malformed")
		writeError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}

	s.Mu.Lock()
	defer s.Mu.Unlock()
	if s.Node.CatchingUp() {
		s.countSubmit("not_ready")
		writeReject(w, http.StatusServiceUnavailable, s.retryInterval(), 0, "node is not bootstrapped or is catching up with the network")
		return
	}
	tx, err := decodeEnvelope(req.EnvelopeXDR)
	if err != nil {
		s.countSubmit("malformed")
		writeError(w, http.StatusBadRequest, "bad envelope_xdr: %v", err)
		return
	}

	res := s.Node.AdmitTx(tx)
	s.countSubmit(res.Code.String())
	switch res.Code {
	case herder.AdmitAccepted:
		writeJSON(w, http.StatusAccepted, SubmitResponse{Hash: res.Hash.Hex(), Status: "pending"})
	case herder.AdmitDuplicate:
		writeJSON(w, http.StatusOK, SubmitResponse{Hash: res.Hash.Hex(), Status: "duplicate"})
	case herder.AdmitInvalid, herder.AdmitBadSignature, herder.AdmitBadSeq:
		writeError(w, http.StatusBadRequest, "%v", res.Err)
	case herder.AdmitPoolFull, herder.AdmitSourceCap, herder.AdmitSeqConflict:
		writeReject(w, http.StatusTooManyRequests, s.retryInterval(), res.MinFee, "%v", res.Err)
	default: // AdmitNotReady
		writeReject(w, http.StatusServiceUnavailable, s.retryInterval(), 0, "%v", res.Err)
	}
}

// decodeEnvelope decodes a hex-encoded signed transaction envelope.
func decodeEnvelope(envelopeXDR string) (*ledger.Transaction, error) {
	raw, err := hex.DecodeString(envelopeXDR)
	if err != nil {
		return nil, err
	}
	return ledger.DecodeSignedTransactionXDR(raw)
}

// retryInterval is the backpressure Retry-After hint: one ledger close,
// the soonest the pool can have drained anything.
func (s *Server) retryInterval() time.Duration {
	return s.Node.LedgerInterval()
}

// FeeStatsResponse is the GET /fee_stats body: the admission price
// surface clients consult before submitting (min_fee_per_op is the same
// floor 429 bodies hint at).
type FeeStatsResponse struct {
	BaseFee      string `json:"base_fee"`       // protocol minimum per op, stroops
	MinFeePerOp  string `json:"min_fee_per_op"` // current admission floor per op, stroops
	PoolSize     int    `json:"pool_size"`
	PoolCap      int    `json:"pool_cap"`
	PerSourceCap int    `json:"per_source_cap"`
	PoolFull     bool   `json:"pool_full"`
	Evictions    uint64 `json:"evictions"`
	LastLedgerTx int    `json:"last_ledger_tx_count"`
	MaxTxSetSize int    `json:"max_tx_set_size"`
}

func (s *Server) handleFeeStats(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if s.Node.State() == nil {
		writeError(w, http.StatusServiceUnavailable, "node not bootstrapped")
		return
	}
	fs := s.Node.FeeStats()
	writeJSON(w, http.StatusOK, FeeStatsResponse{
		BaseFee:      strconv.FormatInt(int64(fs.BaseFee), 10),
		MinFeePerOp:  strconv.FormatInt(int64(fs.MinFeePerOp), 10),
		PoolSize:     fs.PoolSize,
		PoolCap:      fs.PoolCap,
		PerSourceCap: fs.PerSourceCap,
		PoolFull:     fs.PoolFull,
		Evictions:    fs.Evictions,
		LastLedgerTx: fs.LastLedgerTxs,
		MaxTxSetSize: fs.MaxTxSetSize,
	})
}
