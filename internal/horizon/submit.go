package horizon

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// The hardened transaction ingress (ROADMAP item 1, DESIGN.md §8):
// POST /transactions runs decode → rate limit → signature
// pre-verification (through the shared verify cache) → mempool admission
// → flood, and maps every rejection onto explicit backpressure — 429
// with Retry-After and a min-fee hint when the pool or a token bucket is
// saturated, 503 while the node catches up. GET /fee_stats exposes the
// same fee floor so well-behaved clients can price themselves in before
// submitting.

// maxBodyBytes caps a submission request body. Generous: the XDR
// decoder itself caps envelopes at 100 ops / 20 sigs, far below this.
const maxBodyBytes = 64 << 10

// IngressConfig tunes the submit pipeline's client-facing limits. Zero
// rates mean unlimited; the zero value disables all throttling (the
// in-process simulations and existing tests see no behavior change).
type IngressConfig struct {
	// SourceRate/SourceBurst throttle submissions per source account in
	// tx/sec — the identity a fee actually spends.
	SourceRate  float64
	SourceBurst int
	// IPRate/IPBurst throttle submissions per remote IP, the cheap outer
	// gate that runs before the body is even decoded.
	IPRate  float64
	IPBurst int
}

// SetIngress installs the ingress limits; call before serving.
func (s *Server) SetIngress(cfg IngressConfig) {
	s.srcLimiter = newRateLimiter(cfg.SourceRate, cfg.SourceBurst)
	s.ipLimiter = newRateLimiter(cfg.IPRate, cfg.IPBurst)
}

// SubmitRequest is the JSON transaction submission format: either a
// pre-signed envelope (hex XDR, the production path — the server never
// sees a secret) or the simplified seed-signed operation list the demos
// use.
type SubmitRequest struct {
	// EnvelopeXDR, when set, is a hex-encoded signed transaction
	// envelope; all other fields are ignored.
	EnvelopeXDR string `json:"envelope_xdr,omitempty"`

	SourceSeed string      `json:"source_seed,omitempty"` // signing seed label (demo)
	Fee        string      `json:"fee,omitempty"`
	Operations []SubmitOp  `json:"operations,omitempty"`
	TimeBounds *TimeBounds `json:"time_bounds,omitempty"`
}

// TimeBounds mirrors ledger.TimeBounds in JSON.
type TimeBounds struct {
	MinTime int64 `json:"min_time,omitempty"`
	MaxTime int64 `json:"max_time,omitempty"`
}

// SubmitOp is a JSON operation union.
type SubmitOp struct {
	Type        string `json:"type"` // payment | create_account | change_trust | manage_offer
	Destination string `json:"destination,omitempty"`
	Asset       string `json:"asset,omitempty"`
	Amount      string `json:"amount,omitempty"`
	Limit       string `json:"limit,omitempty"`
	Selling     string `json:"selling,omitempty"`
	Buying      string `json:"buying,omitempty"`
	PriceN      int32  `json:"price_n,omitempty"`
	PriceD      int32  `json:"price_d,omitempty"`
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
	// MinFee, when present, is the smallest total fee (in stroops, same
	// unit as SubmitRequest.Fee) that would currently be admitted.
	MinFee string `json:"min_fee,omitempty"`
}

// remoteIP extracts the client address for IP-keyed limiting.
func remoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
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

// handleSubmit is the submit pipeline. Order matters: the IP gate and
// body cap run before any decoding (cheapest rejection first), the
// source-account gate after decode (the key is inside the envelope),
// signature pre-verification before admission (an unverifiable tx must
// not occupy pool space or flood), and the pool decides last.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, wait := s.ipLimiter.allow(remoteIP(r)); !ok {
		s.countSubmit("rate_limited_ip")
		writeReject(w, http.StatusTooManyRequests, wait, 0, "rate limit exceeded for this address")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countSubmit("malformed")
		writeError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}

	s.Mu.Lock()
	defer s.Mu.Unlock()
	st := s.Node.State()
	if st == nil {
		s.countSubmit("not_ready")
		writeReject(w, http.StatusServiceUnavailable, s.retryInterval(), 0, "node not bootstrapped")
		return
	}
	tx, err := s.buildTx(&req)
	if err != nil {
		s.countSubmit("malformed")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ok, wait := s.srcLimiter.allow(string(tx.Source)); !ok {
		s.countSubmit("rate_limited_source")
		writeReject(w, http.StatusTooManyRequests, wait, 0, "rate limit exceeded for account %s", tx.Source)
		return
	}
	// Signature pre-verification through the shared verify cache: a tx
	// admitted here verifies for free again at nomination and apply.
	if err := st.CheckSignatures(tx, s.NetworkID); err != nil {
		s.countSubmit("bad_signature")
		writeError(w, http.StatusBadRequest, "signature verification failed: %v", err)
		return
	}
	if s.Node.CatchingUp() {
		s.countSubmit("not_ready")
		writeReject(w, http.StatusServiceUnavailable, s.retryInterval(), 0, "node is catching up with the network")
		return
	}

	res := s.Node.AdmitTx(tx)
	s.countSubmit(res.Code.String())
	switch res.Code {
	case herder.AdmitAccepted:
		writeJSON(w, http.StatusAccepted, SubmitResponse{Hash: res.Hash.Hex(), Status: "pending"})
	case herder.AdmitDuplicate:
		writeJSON(w, http.StatusOK, SubmitResponse{Hash: res.Hash.Hex(), Status: "duplicate"})
	case herder.AdmitInvalid:
		writeError(w, http.StatusBadRequest, "%v", res.Err)
	case herder.AdmitPoolFull, herder.AdmitSourceCap, herder.AdmitSeqConflict:
		writeReject(w, http.StatusTooManyRequests, s.retryInterval(), res.MinFee, "%v", res.Err)
	default: // AdmitNotReady
		writeReject(w, http.StatusServiceUnavailable, s.retryInterval(), 0, "%v", res.Err)
	}
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

// buildTx turns a submission into a signed transaction: either by
// decoding a client-signed envelope, or by building and seed-signing the
// demo operation list. Demo sequence numbers chain past pending
// submissions — max(ledger seq, highest pooled seq) + 1 — so a client
// can keep one transaction per future ledger in flight instead of
// colliding on the same next sequence.
func (s *Server) buildTx(req *SubmitRequest) (*ledger.Transaction, error) {
	if req.EnvelopeXDR != "" {
		raw, err := hex.DecodeString(req.EnvelopeXDR)
		if err != nil {
			return nil, fmt.Errorf("bad envelope_xdr: %v", err)
		}
		tx, err := ledger.DecodeSignedTransactionXDR(raw)
		if err != nil {
			return nil, fmt.Errorf("bad envelope_xdr: %v", err)
		}
		return tx, nil
	}
	kp := stellarcrypto.KeyPairFromString(req.SourceSeed)
	source := ledger.AccountIDFromPublicKey(kp.Public)
	st := s.Node.State()
	acct := st.Account(source)
	if acct == nil {
		return nil, fmt.Errorf("source account %s does not exist", source)
	}
	var ops []ledger.Operation
	for _, op := range req.Operations {
		body, err := buildOp(op)
		if err != nil {
			return nil, err
		}
		ops = append(ops, ledger.Operation{Body: body})
	}
	fee := st.BaseFee * ledger.Amount(len(ops))
	if req.Fee != "" {
		f, err := strconv.ParseInt(req.Fee, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fee: %v", err)
		}
		fee = f
	}
	seq := acct.SeqNum + 1
	if maxPending, ok := s.Node.PendingMaxSeq(source); ok && maxPending+1 > seq {
		seq = maxPending + 1
	}
	tx := &ledger.Transaction{
		Source:     source,
		Fee:        fee,
		SeqNum:     seq,
		Operations: ops,
	}
	if req.TimeBounds != nil {
		tx.TimeBounds = &ledger.TimeBounds{MinTime: req.TimeBounds.MinTime, MaxTime: req.TimeBounds.MaxTime}
	}
	tx.Sign(s.NetworkID, kp)
	return tx, nil
}

func buildOp(op SubmitOp) (ledger.OpBody, error) {
	switch op.Type {
	case "payment":
		asset, err := parseAsset(op.Asset)
		if err != nil {
			return nil, err
		}
		amt, err := ledger.ParseAmount(op.Amount)
		if err != nil {
			return nil, err
		}
		return &ledger.Payment{Destination: ledger.AccountID(op.Destination), Asset: asset, Amount: amt}, nil
	case "create_account":
		amt, err := ledger.ParseAmount(op.Amount)
		if err != nil {
			return nil, err
		}
		return &ledger.CreateAccount{Destination: ledger.AccountID(op.Destination), StartingBalance: amt}, nil
	case "change_trust":
		asset, err := parseAsset(op.Asset)
		if err != nil {
			return nil, err
		}
		limit, err := ledger.ParseAmount(op.Limit)
		if err != nil {
			return nil, err
		}
		return &ledger.ChangeTrust{Asset: asset, Limit: limit}, nil
	case "manage_offer":
		selling, err := parseAsset(op.Selling)
		if err != nil {
			return nil, err
		}
		buying, err := parseAsset(op.Buying)
		if err != nil {
			return nil, err
		}
		amt, err := ledger.ParseAmount(op.Amount)
		if err != nil {
			return nil, err
		}
		price, err := ledger.NewPrice(op.PriceN, op.PriceD)
		if err != nil {
			return nil, err
		}
		return &ledger.ManageOffer{Selling: selling, Buying: buying, Amount: amt, Price: price}, nil
	default:
		return nil, fmt.Errorf("unknown operation type %q", op.Type)
	}
}
