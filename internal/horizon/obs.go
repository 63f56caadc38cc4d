package horizon

import (
	"net/http"
	"strconv"
	"time"

	"stellar/internal/herder"
)

// Observability endpoints and middleware: every route is wrapped with a
// per-route request counter; GET /metrics exposes the node's
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

// handle registers a route wrapped with request counting by status; the
// route label is the mux pattern, so label cardinality is bounded by the
// routing table.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.httpReqs.With(pattern, strconv.Itoa(sw.status)).Inc()
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

func fmtStamp(s herder.Stamp) string { return fmtAt(s.At, s.Seen) }

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
	// Durations may legitimately be zero in virtual time (a self-quorum
	// node externalizes without network delay), so they are gated on
	// boundary presence, not on the value.
	nom, prep, ext := rec.NominationStart, rec.FirstPrepare, rec.Externalized
	writeJSON(w, http.StatusOK, SlotTraceInfo{
		Slot:               rec.Slot,
		Externalized:       ext.Seen,
		Applied:            rec.Applied.Seen,
		NominationStart:    fmtStamp(nom),
		CandidateConfirmed: fmtStamp(rec.CandidateConfirmed),
		FirstPrepare:       fmtStamp(prep),
		AcceptCommit:       fmtStamp(rec.AcceptCommit),
		Externalize:        fmtStamp(ext),
		LedgerApplied:      fmtStamp(rec.Applied),
		Nomination:         fmtAt(prep.Since(nom), nom.Seen && prep.Seen),
		Balloting:          fmtAt(ext.Since(prep), prep.Seen && ext.Seen),
		Total:              fmtAt(ext.Since(nom), nom.Seen && ext.Seen),
		Timeouts:           rec.NominationTimeouts + rec.BallotTimeouts,
		NominationRounds:   rec.NominationRounds,
		EnvelopesEmitted:   rec.EnvelopesEmitted,
		EnvelopesReceived:  rec.EnvelopesReceived,
	})
}

// handleQuorum serves the live quorum-health report: per-node
// externalization lag, missing/behind validators per slice, and whether
// the healthy ones still satisfy a slice. Refreshing through the node
// also republishes quorum_available, so /metrics and this endpoint agree.
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
