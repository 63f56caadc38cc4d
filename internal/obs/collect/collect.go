// Package collect is the fleet-side half of the observability layer: it
// scrapes every node's /metrics, /ledgers/latest, /debug/alerts and
// /debug/trace/export endpoints, estimates per-node clock offsets from the
// scrape exchange itself (NTP-style midpoint correction), and merges the
// per-process span stores into one skew-aligned, Perfetto-loadable trace. The
// stellar-obs CLI is a thin front end over this package; the cluster smoke
// tests (internal/cluster) use the same scrapes, and TraceLatencies turns
// them into the paper's §7.3 cross-node submit→applied latency.
package collect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/slo"
)

// Target is one node's scrape endpoint.
type Target struct {
	// Name labels the node in tables and merged traces; defaults to the
	// export's self-reported node id when empty.
	Name string
	// URL is the node's HTTP base, e.g. "http://127.0.0.1:28000".
	URL string
}

// ParseTargets splits a comma-separated list of URLs, optionally prefixed
// "name=": "node-0=http://127.0.0.1:28000,http://127.0.0.1:28001".
func ParseTargets(s string) []Target {
	var out []Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t := Target{URL: part}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			t.Name, t.URL = name, url
		}
		t.URL = strings.TrimSuffix(t.URL, "/")
		out = append(out, t)
	}
	return out
}

// Metrics is a parsed Prometheus text scrape: full series key (name plus
// label block, exactly as exposed) → value.
type Metrics map[string]float64

// Value reads one exact series ("transport_peers", or a labeled key like
// `foo{peer="G..."}`).
func (m Metrics) Value(series string) (float64, bool) {
	v, ok := m[series]
	return v, ok
}

// Sum adds every series of one family (all label combinations of name).
func (m Metrics) Sum(name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name) && len(k) > len(name) && k[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}

// ParseMetrics parses Prometheus text exposition (the subset our registry
// emits: HELP/TYPE comments and `series value` lines).
func ParseMetrics(r *bufio.Scanner) (Metrics, error) {
	m := make(Metrics)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the text after the last space outside braces; our
		// label values never contain spaces, so LastIndexByte suffices.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, r.Err()
}

// LedgerInfo is the subset of GET /ledgers/latest the collector reads.
type LedgerInfo struct {
	Sequence  uint32 `json:"sequence"`
	Hash      string `json:"hash"`
	CloseTime int64  `json:"close_time"`
}

// Scrape is everything collected from one node in one pass.
type Scrape struct {
	Target  Target
	Export  *obs.Export
	Metrics Metrics
	Ledger  *LedgerInfo
	Alerts  *slo.Report
	// AlertsErr is why a reachable node's /debug/alerts could not be read.
	AlertsErr error

	// OffsetNanos estimates the node's wall clock minus the collector's,
	// from the trace-export exchange: the server stamps NowUnixNanos while
	// handling the request, which in the collector's frame happened at
	// roughly t0+RTT/2, so offset = serverNow − (t0 + RTT/2). RTTNanos is
	// that exchange's full round trip.
	OffsetNanos int64
	RTTNanos    int64

	FetchedAt time.Time
	Err       error
}

// Name returns the node's display name: the target label, else the
// export's self-reported id, else the URL.
func (s *Scrape) Name() string {
	if s.Target.Name != "" {
		return s.Target.Name
	}
	if s.Export != nil && s.Export.Node != "" {
		return s.Export.Node
	}
	return s.Target.URL
}

// Client scrapes targets over HTTP.
type Client struct {
	HTTP *http.Client
}

// NewClient builds a collector client with a bounded per-request timeout.
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Client{HTTP: &http.Client{Timeout: timeout}}
}

func (c *Client) get(url string) (*http.Response, error) {
	resp, err := c.HTTP.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("collect: GET %s: status %d", url, resp.StatusCode)
	}
	return resp, nil
}

// FetchExport retrieves one node's span store and estimates its clock
// offset from the exchange.
func (c *Client) FetchExport(t Target) (*obs.Export, int64, int64, error) {
	t0 := time.Now()
	resp, err := c.get(t.URL + "/debug/trace/export")
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	exp, err := obs.DecodeExport(resp.Body)
	rtt := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, 0, rtt, err
	}
	offset := exp.NowUnixNanos - (t0.UnixNano() + rtt/2)
	return exp, offset, rtt, nil
}

// FetchMetrics retrieves and parses one node's /metrics.
func (c *Client) FetchMetrics(t Target) (Metrics, error) {
	resp, err := c.get(t.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ParseMetrics(bufio.NewScanner(resp.Body))
}

// getJSON decodes the JSON document at url into v.
func (c *Client) getJSON(url string, v any) error {
	resp, err := c.get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// FetchLedger retrieves one node's latest-ledger summary.
func (c *Client) FetchLedger(t Target) (*LedgerInfo, error) {
	var li LedgerInfo
	if err := c.getJSON(t.URL+"/ledgers/latest", &li); err != nil {
		return nil, err
	}
	return &li, nil
}

// fetchAlerts retrieves one node's /debug/alerts report.
func (c *Client) fetchAlerts(t Target) (*slo.Report, error) {
	var rep slo.Report
	if err := c.getJSON(t.URL+"/debug/alerts", &rep); err != nil {
		return nil, err
	}
	if rep.Schema != slo.ReportSchema {
		return nil, fmt.Errorf("collect: %s/debug/alerts: schema %q, want %q",
			t.URL, rep.Schema, slo.ReportSchema)
	}
	return &rep, nil
}

// ScrapeAll collects every surface from every target. Per-node failures
// land in Scrape.Err rather than aborting the pass — a fleet view must
// survive one node being down.
func (c *Client) ScrapeAll(targets []Target) []*Scrape {
	out := make([]*Scrape, len(targets))
	for i, t := range targets {
		s := &Scrape{Target: t, FetchedAt: time.Now()}
		out[i] = s
		exp, offset, rtt, err := c.FetchExport(t)
		if err != nil {
			s.Err = err
			continue
		}
		s.Export, s.OffsetNanos, s.RTTNanos = exp, offset, rtt
		if s.Metrics, err = c.FetchMetrics(t); err != nil {
			s.Err = err
			continue
		}
		if s.Ledger, err = c.FetchLedger(t); err != nil {
			s.Err = err
			continue
		}
		// An unreadable alert report does not hide the node's row, but
		// the fleet counts it as degraded (see Firing).
		s.Alerts, s.AlertsErr = c.fetchAlerts(t)
	}
	return out
}
