package horizon

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"stellar/internal/obs"
)

// Observability endpoints and middleware: every route is wrapped with
// per-route request/latency instruments; GET /metrics exposes the node's
// registry in Prometheus text format, and GET /debug/slots/{seq}/trace
// serves the node's record of one slot's consensus phases (§7.3).

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handle registers a route wrapped with request count and latency
// recording; the route label is the mux pattern, so label cardinality is
// bounded by the routing table.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.httpReqs.With(pattern, strconv.Itoa(sw.status)).Inc()
		s.httpLat.With(pattern).ObserveDuration(time.Since(start))
	})
}

// handlePromMetrics serves the registry in Prometheus text exposition
// format. The registry is internally synchronized, so this does not take
// the simulation lock and never blocks consensus.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.Node.Obs().Reg.WritePrometheus(w)
}

// SlotTraceInfo is this node's record of one slot (herder.SlotRecord):
// its phase boundaries on the node's clock, the phase durations derived
// from them, and its timeout, round and envelope counts.
type SlotTraceInfo struct {
	Slot         uint64 `json:"slot"`
	Externalized bool   `json:"externalized"`
	Applied      bool   `json:"applied"`

	NominationStart    string `json:"nomination_start,omitempty"`
	CandidateConfirmed string `json:"candidate_confirmed,omitempty"`
	FirstPrepare       string `json:"first_prepare,omitempty"`
	AcceptCommit       string `json:"accept_commit,omitempty"`
	Externalize        string `json:"externalize,omitempty"`
	LedgerApplied      string `json:"ledger_applied,omitempty"`

	Nomination string `json:"nomination,omitempty"` // start → first prepare
	Balloting  string `json:"balloting,omitempty"`  // first prepare → externalize
	Total      string `json:"total,omitempty"`      // start → externalize

	Timeouts int `json:"timeouts"`
	// NominationRounds counts every round started, round 1 included, as
	// scp_nomination_rounds_total does: a normal slot reads 1, and each
	// timeout escalation adds one.
	NominationRounds  int `json:"nomination_rounds"`
	EnvelopesEmitted  int `json:"envelopes_emitted"`
	EnvelopesReceived int `json:"envelopes_received"`
}

func fmtAt(d time.Duration, ok bool) string {
	if !ok {
		return ""
	}
	return d.String()
}

// handleSlotTrace serves the slot's record. The record has its own lock,
// so like /metrics this never takes the loop lock or blocks consensus.
func (s *Server) handleSlotTrace(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad slot %q", r.PathValue("seq"))
		return
	}
	rec, ok := s.Node.SlotRecord(seq)
	if !ok {
		writeError(w, http.StatusNotFound,
			"no record of slot %d (not seen, or no longer among the recent slots the node keeps)", seq)
		return
	}
	// A zero time is a boundary not seen; durations may legitimately be
	// zero in virtual time (a self-quorum node externalizes without network
	// delay), so they are gated on boundary presence, not on the value.
	nom, prep, ext := rec.NominationStart > 0, rec.Prepared(), rec.Externalized > 0
	writeJSON(w, http.StatusOK, SlotTraceInfo{
		Slot:               rec.Slot,
		Externalized:       ext,
		Applied:            rec.Applied > 0,
		NominationStart:    fmtAt(rec.NominationStart, nom),
		CandidateConfirmed: fmtAt(rec.CandidateConfirmed, rec.CandidateConfirmed > 0),
		FirstPrepare:       fmtAt(rec.FirstPrepare, prep),
		AcceptCommit:       fmtAt(rec.AcceptCommit, rec.AcceptCommit > 0),
		Externalize:        fmtAt(rec.Externalized, ext),
		LedgerApplied:      fmtAt(rec.Applied, rec.Applied > 0),
		Nomination:         fmtAt(rec.FirstPrepare-rec.NominationStart, nom && prep),
		Balloting:          fmtAt(rec.Externalized-rec.FirstPrepare, prep && ext),
		Total:              fmtAt(rec.Externalized-rec.NominationStart, nom && ext),
		Timeouts:           rec.NominationTimeouts + rec.BallotTimeouts,
		NominationRounds:   rec.NominationRounds,
		EnvelopesEmitted:   rec.EnvelopesEmitted,
		EnvelopesReceived:  rec.EnvelopesReceived,
	})
}

// handleQuorum serves the live quorum-health report (tentpole: per-node
// externalization lag, missing/behind validators per slice, and whether
// the unhealthy set is v-blocking). Refreshing through the node also
// republishes the quorum_* gauges, so /metrics and this endpoint agree.
func (s *Server) handleQuorum(w http.ResponseWriter, r *http.Request) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	rep := s.Node.RefreshQuorumHealth()
	if rep == nil {
		writeError(w, http.StatusServiceUnavailable, "node not bootstrapped")
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleTraceExport serves the node's span store as a
// stellar-trace-export/v1 document — the raw material the fleet collector
// (internal/obs/collect, stellar-obs) skew-aligns and merges into one
// cluster trace. The tracer is internally synchronized, so like /metrics
// this never takes the loop lock or blocks consensus. With tracing off it
// serves an empty document rather than a 404, so scraping stays uniform.
func (s *Server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.Node.Obs().Tracer.WriteExport(w, string(s.Node.ID()))
}

// registerPprof mounts the standard profiling handlers. They bypass the
// metrics middleware on purpose: profile downloads can run for tens of
// seconds and would distort the latency histograms.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// newHTTPInstruments resolves the middleware's registry series.
func newHTTPInstruments(reg *obs.Registry) (*obs.CounterVec, *obs.HistogramVec) {
	reqs := reg.CounterVec("horizon_http_requests_total",
		"horizon API requests, by route and status code", "route", "code")
	lat := reg.HistogramVec("horizon_http_request_seconds",
		"horizon API request latency, by route", nil, "route")
	return reqs, lat
}
