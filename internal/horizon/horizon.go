// Package horizon implements the client-facing API daemon of paper §5.4
// and Figure 5: stellar-core exposes only a narrow interface for
// submitting transactions, so applications talk to horizon, which provides
// an HTTP interface for submitting and learning of transactions, reading
// accounts, trustlines, offers, and ledgers, and finding payment paths —
// a feature "implemented entirely in horizon" that can evolve without
// coordinating with other validators.
package horizon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/obs/slo"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Server is a horizon instance bound to one validator node. Because the
// validator runs single-threaded inside its network environment, every
// request takes the environment's lock: for a simulated node that mutex
// excludes the goroutine advancing virtual time; for a TCP node
// (cmd/stellar-node) it is the transport loop's lock, so requests see the
// herder's state between events.
type Server struct {
	Mu   sync.Locker
	Node *herder.Node
	Net  simnet.Env

	NetworkID stellarcrypto.Hash
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and cost CPU, so the
	// operator opts in per process (horizon-demo -pprof).
	EnablePprof bool
	archive     *history.Archive

	// Submit-pipeline limits (submit.go, ratelimit.go). The zero config
	// disables throttling; nil limiters allow everything.
	ingress    IngressConfig
	srcLimiter *rateLimiter
	ipLimiter  *rateLimiter

	httpReqs    *obs.CounterVec   // horizon_http_requests_total{route,code}
	httpLat     *obs.HistogramVec // horizon_http_request_seconds{route}
	ingressReqs *obs.CounterVec   // ingress_submissions_total{outcome}

	// SLO alert surface (alerts.go). Nil until SetAlerts; the endpoint
	// then serves a uniform enabled=false report.
	alerts      *slo.Engine
	alertsNode  string
	alertsClock func() time.Duration
}

// New builds a Server for the node with its own lock. Callers whose node
// is driven by another goroutine (the simulation driver, the transport
// loop) must replace Mu with that driver's lock before serving.
func New(node *herder.Node, net simnet.Env, networkID stellarcrypto.Hash) *Server {
	s := &Server{Mu: &sync.Mutex{}, Node: node, Net: net, NetworkID: networkID}
	s.httpReqs, s.httpLat = newHTTPInstruments(node.Obs().Reg)
	s.ingressReqs = node.Obs().Reg.CounterVec("ingress_submissions_total",
		"transaction submissions through POST /transactions, by admission outcome", "outcome")
	return s
}

// Handler returns the HTTP routing table. Every route passes through the
// instrumentation middleware (see obs.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "GET /ledgers/latest", s.handleLatestLedger)
	s.handle(mux, "GET /accounts/{id}", s.handleAccount)
	s.handle(mux, "GET /order_book", s.handleOrderBook)
	s.handle(mux, "GET /fee_stats", s.handleFeeStats)
	s.handle(mux, "GET /paths", s.handlePaths)
	s.handle(mux, "GET /metrics", s.handlePromMetrics)
	s.handle(mux, "GET /debug/slots/{seq}/trace", s.handleSlotTrace)
	s.handle(mux, "GET /debug/trace/export", s.handleTraceExport)
	s.handle(mux, "GET /debug/quorum", s.handleQuorum)
	s.handle(mux, "GET /debug/alerts", s.handleAlerts)
	s.handle(mux, "POST /transactions", s.handleSubmit)
	s.registerHistory(mux)
	if s.EnablePprof {
		registerPprof(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// LedgerInfo is the public view of a ledger header.
type LedgerInfo struct {
	Sequence     uint32 `json:"sequence"`
	Hash         string `json:"hash"`
	PrevHash     string `json:"prev_hash"`
	CloseTime    int64  `json:"close_time"`
	TxSetHash    string `json:"tx_set_hash"`
	SnapshotHash string `json:"snapshot_hash"`
	BaseFee      string `json:"base_fee"`
	BaseReserve  string `json:"base_reserve"`
}

func (s *Server) handleLatestLedger(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	h := s.Node.LastHeader()
	if h == nil {
		writeError(w, http.StatusServiceUnavailable, "node not bootstrapped")
		return
	}
	writeJSON(w, http.StatusOK, LedgerInfo{
		Sequence:     h.LedgerSeq,
		Hash:         h.Hash().Hex(),
		PrevHash:     h.PrevHash().Hex(),
		CloseTime:    h.CloseTime,
		TxSetHash:    h.TxSetHash.Hex(),
		SnapshotHash: h.SnapshotHash.Hex(),
		BaseFee:      ledger.FormatAmount(h.BaseFee),
		BaseReserve:  ledger.FormatAmount(h.BaseReserve),
	})
}

// AccountInfo is the public view of an account and its trustlines.
type AccountInfo struct {
	ID         string          `json:"id"`
	Balance    string          `json:"balance"`
	SeqNum     uint64          `json:"sequence"`
	SubEntries uint32          `json:"subentries"`
	Trustlines []TrustlineInfo `json:"trustlines,omitempty"`
	Offers     []OfferInfo     `json:"offers,omitempty"`
}

// TrustlineInfo describes one trustline.
type TrustlineInfo struct {
	Asset      string `json:"asset"`
	Balance    string `json:"balance"`
	Limit      string `json:"limit"`
	Authorized bool   `json:"authorized"`
}

// OfferInfo describes one offer.
type OfferInfo struct {
	ID      uint64 `json:"id"`
	Seller  string `json:"seller"`
	Selling string `json:"selling"`
	Buying  string `json:"buying"`
	Amount  string `json:"amount"`
	Price   string `json:"price"`
}

func (s *Server) handleAccount(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	id := ledger.AccountID(r.PathValue("id"))
	st := s.Node.State()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable, "node not bootstrapped")
		return
	}
	a := st.Account(id)
	if a == nil {
		writeError(w, http.StatusNotFound, "account %s not found", id)
		return
	}
	info := AccountInfo{
		ID:         string(a.ID),
		Balance:    ledger.FormatAmount(a.Balance),
		SeqNum:     a.SeqNum,
		SubEntries: a.NumSubEntries,
	}
	for _, t := range st.TrustlinesOf(id) {
		info.Trustlines = append(info.Trustlines, TrustlineInfo{
			Asset:      t.Asset.String(),
			Balance:    ledger.FormatAmount(t.Balance),
			Limit:      ledger.FormatAmount(t.Limit),
			Authorized: t.Authorized,
		})
	}
	for _, o := range st.OffersOf(id) {
		info.Offers = append(info.Offers, offerInfo(o))
	}
	writeJSON(w, http.StatusOK, info)
}

func offerInfo(o *ledger.OfferEntry) OfferInfo {
	return OfferInfo{
		ID:      o.ID,
		Seller:  string(o.Seller),
		Selling: o.Selling.String(),
		Buying:  o.Buying.String(),
		Amount:  ledger.FormatAmount(o.Amount),
		Price:   o.Price.String(),
	}
}

// parseAsset parses "native" or "CODE:ISSUER".
func parseAsset(s string) (ledger.Asset, error) {
	if s == "native" || s == "XLM" || s == "" {
		return ledger.NativeAsset(), nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return ledger.Asset{}, fmt.Errorf("asset %q must be native or CODE:ISSUER", s)
	}
	return ledger.NewAsset(parts[0], ledger.AccountID(parts[1]))
}

func (s *Server) handleOrderBook(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	selling, err := parseAsset(r.URL.Query().Get("selling"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	buying, err := parseAsset(r.URL.Query().Get("buying"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.Node.State()
	var out []OfferInfo
	for _, o := range st.OffersBook(selling, buying) {
		out = append(out, offerInfo(o))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"selling": selling.String(),
		"buying":  buying.String(),
		"offers":  out,
	})
}
