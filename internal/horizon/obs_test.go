package horizon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"stellar/internal/herder"
)

// promFamily is one parsed metric family from the text exposition.
type promFamily struct {
	name    string
	kind    string // counter | gauge | histogram
	help    string
	samples map[string]float64 // "name{labels}" → value
}

// parsePrometheus is a hand-rolled exposition-format parser strict enough
// to catch malformed output: every sample line must belong to a family
// declared by a preceding # TYPE line, and values must parse as floats.
func parsePrometheus(t *testing.T, r io.Reader) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	var cur *promFamily
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			fams[name] = &promFamily{name: name, help: help, samples: map[string]float64{}}
			cur = fams[name]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if cur == nil || cur.name != name {
				t.Fatalf("TYPE line for %q without preceding HELP", name)
			}
			cur.kind = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name[{labels}] value
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil && valStr != "+Inf" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		famName := base
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(base, suf); ok && fams[trimmed] != nil {
				famName = trimmed
				break
			}
		}
		fam := fams[famName]
		if fam == nil {
			t.Fatalf("sample %q belongs to no declared family", line)
		}
		v, _ := strconv.ParseFloat(valStr, 64)
		fam.samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

func TestPrometheusMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	// Hit a couple of routes first so the horizon middleware has data.
	f.get("/ledgers/latest", nil)
	f.get("/accounts/GBOGUS", nil)

	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	fams := parsePrometheus(t, resp.Body)
	if len(fams) < 10 {
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("only %d metric families: %v", len(fams), names)
	}

	// The exposition must span every instrumented subsystem. Labeled
	// families in the list only materialize samples once an event with
	// that label occurs, so the single-validator fixture checks samples
	// for the unlabeled overlay series instead of the per-kind vec.
	for _, want := range []string{
		"scp_slots_externalized_total",
		"scp_envelopes_emitted_total",
		"herder_ledgers_closed_total",
		"herder_close_interval_seconds",
		"overlay_peers",
		"ledger_apply_seconds",
		"horizon_http_requests_total",
		"horizon_http_request_seconds",
	} {
		if fams[want] == nil {
			t.Fatalf("missing family %q", want)
		}
		if len(fams[want].samples) == 0 {
			t.Fatalf("family %q has no samples", want)
		}
	}
	for _, want := range []string{
		"overlay_packets_sent_total", "overlay_dupes_suppressed_total",
		"scp_timeouts_total", "herder_tx_per_ledger",
	} {
		if fams[want] == nil {
			t.Fatalf("missing family %q", want)
		}
	}

	// The fixture closed ledgers, so the externalize counter must be >0.
	if v := fams["scp_slots_externalized_total"].samples["scp_slots_externalized_total"]; v < 1 {
		t.Fatalf("scp_slots_externalized_total = %v", v)
	}

	// The middleware recorded this test's earlier requests.
	found := false
	for key, v := range fams["horizon_http_requests_total"].samples {
		if strings.Contains(key, "/ledgers/latest") && strings.Contains(key, `code="200"`) && v >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no request sample for /ledgers/latest: %v",
			fams["horizon_http_requests_total"].samples)
	}

	// Histogram buckets must be cumulative and end at +Inf == _count.
	hist := fams["herder_close_interval_seconds"]
	if hist.kind != "histogram" {
		t.Fatalf("herder_close_interval_seconds kind = %q", hist.kind)
	}
	var infV, countV float64
	prev := -1.0
	var bucketKeys []string
	for key := range hist.samples {
		if strings.HasPrefix(key, "herder_close_interval_seconds_bucket") {
			bucketKeys = append(bucketKeys, key)
		}
	}
	sort.Slice(bucketKeys, func(i, j int) bool {
		return bucketLe(bucketKeys[i]) < bucketLe(bucketKeys[j])
	})
	for _, key := range bucketKeys {
		v := hist.samples[key]
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q = %v after %v", key, v, prev)
		}
		prev = v
		if strings.Contains(key, `le="+Inf"`) {
			infV = v
		}
	}
	countV = hist.samples["herder_close_interval_seconds_count"]
	if infV != countV {
		t.Fatalf("+Inf bucket %v != count %v", infV, countV)
	}
	if countV < 1 {
		t.Fatal("close interval histogram empty")
	}
}

func bucketLe(key string) float64 {
	i := strings.Index(key, `le="`)
	if i < 0 {
		return 0
	}
	s := key[i+4:]
	s = s[:strings.IndexByte(s, '"')]
	if s == "+Inf" {
		return 1e308
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func TestSlotTraceEndpoint(t *testing.T) {
	f := newFixture(t)
	hdr := f.node.LastHeader()
	if hdr == nil || hdr.LedgerSeq < 2 {
		t.Fatal("fixture closed no ledgers")
	}
	slot := uint64(hdr.LedgerSeq)

	var tl SlotTraceInfo
	if code := f.get(fmt.Sprintf("/debug/slots/%d/trace", slot), &tl); code != 200 {
		t.Fatalf("status %d", code)
	}
	if tl.Slot != slot {
		t.Fatalf("slot = %d, want %d", tl.Slot, slot)
	}
	if !tl.Externalized || !tl.Applied {
		t.Fatalf("externalized=%v applied=%v", tl.Externalized, tl.Applied)
	}
	if tl.EnvelopesEmitted == 0 || tl.NominationRounds == 0 || tl.Total == "" {
		t.Fatalf("record missing counts: %+v", tl)
	}

	// Every boundary is present and they are well-ordered: nomination start
	// ≤ candidate confirmed ≤ first prepare ≤ accept commit ≤ externalize ≤
	// ledger applied.
	var prev time.Duration
	for _, b := range []struct{ name, at string }{
		{"nomination_start", tl.NominationStart},
		{"candidate_confirmed", tl.CandidateConfirmed},
		{"first_prepare", tl.FirstPrepare},
		{"accept_commit", tl.AcceptCommit},
		{"externalize", tl.Externalize},
		{"ledger_applied", tl.LedgerApplied},
	} {
		d, err := time.ParseDuration(b.at)
		if err != nil {
			t.Fatalf("%s: bad or missing time %q: %v", b.name, b.at, err)
		}
		if d < prev {
			t.Fatalf("%s at %v, before the previous boundary at %v: %+v", b.name, d, prev, tl)
		}
		prev = d
	}

	// Unknown and malformed slots.
	if code := f.get("/debug/slots/999999/trace", nil); code != 404 {
		t.Fatalf("unknown slot status %d", code)
	}
	if code := f.get("/debug/slots/bogus/trace", nil); code != 400 {
		t.Fatalf("malformed slot status %d", code)
	}
}

// TestSlotTraceWithoutTheLoopLock: the record has its own lock, so the
// endpoint answers while the event loop holds the server lock — as the
// watchdog's crash bundle must while a loop is wedged.
func TestSlotTraceWithoutTheLoopLock(t *testing.T) {
	f := newFixture(t)
	slot := uint64(f.node.LastHeader().LedgerSeq)
	f.srv.Mu.Lock()
	defer f.srv.Mu.Unlock()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/debug/slots/%d/trace", f.ts.URL, slot))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		if code != 200 {
			t.Fatalf("status %d while the loop lock is held", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/debug/slots blocked on the loop lock")
	}
}

// TestSlotTraceWindow: a node keeps the records of its last 128 slots; an
// older slot answers 404 with a JSON error, like one never seen.
func TestSlotTraceWindow(t *testing.T) {
	f := newFixture(t)
	f.advance(140 * time.Second)
	tip := uint64(f.node.LastHeader().LedgerSeq)
	if tip < 140 {
		t.Fatalf("setup: tip %d, want ≥ 140", tip)
	}
	if code := f.get(fmt.Sprintf("/debug/slots/%d/trace", tip-127), nil); code != 200 {
		t.Fatalf("slot tip-127: status %d, want 200", code)
	}
	old := tip - 129
	code, ct, body := getErrorBody(t, f, fmt.Sprintf("/debug/slots/%d/trace", old))
	if code != http.StatusNotFound || !strings.Contains(ct, "application/json") {
		t.Fatalf("slot tip-129: status %d, content type %q, want a JSON 404", code, ct)
	}
	if msg := body["error"]; !strings.Contains(msg, strconv.FormatUint(old, 10)) {
		t.Fatalf("error %q does not name the slot", msg)
	}
}

// getErrorBody fetches a path expected to fail and returns the status,
// content type, and decoded JSON error body.
func getErrorBody(t *testing.T, f *fixture, path string) (int, string, map[string]string) {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: error body is not JSON: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func TestSlotTraceNotFoundJSONBody(t *testing.T) {
	f := newFixture(t)
	// A slot far beyond anything externalized has no timeline: the handler
	// must answer 404 with a JSON error object, not an empty 200.
	code, ct, body := getErrorBody(t, f, "/debug/slots/999999/trace")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q, want application/json", ct)
	}
	msg, ok := body["error"]
	if !ok || msg == "" {
		t.Fatalf("missing error field: %v", body)
	}
	if !strings.Contains(msg, "999999") {
		t.Fatalf("error %q does not name the slot", msg)
	}
}

func TestSlotTraceBadSeqJSONBody(t *testing.T) {
	f := newFixture(t)
	for _, seq := range []string{"bogus", "-1", "1.5", "0x10"} {
		code, ct, body := getErrorBody(t, f, "/debug/slots/"+seq+"/trace")
		if code != http.StatusBadRequest {
			t.Fatalf("seq %q: status %d, want 400", seq, code)
		}
		if !strings.Contains(ct, "application/json") {
			t.Fatalf("seq %q: content type %q", seq, ct)
		}
		msg, ok := body["error"]
		if !ok || msg == "" {
			t.Fatalf("seq %q: missing error field: %v", seq, body)
		}
		if !strings.Contains(msg, seq) {
			t.Fatalf("seq %q: error %q does not echo the input", seq, msg)
		}
	}
}

func TestQuorumEndpoint(t *testing.T) {
	f := newFixture(t)
	var rep herder.QuorumHealthReport
	if code := f.get("/debug/quorum", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	// Single-validator fixture: nothing tracked beyond self, quorum
	// trivially available, nothing v-blocking.
	if rep.Self != f.node.ID() {
		t.Fatalf("self = %v, want %v", rep.Self, f.node.ID())
	}
	if rep.LocalSeq < 2 {
		t.Fatalf("local_seq = %d, fixture should have closed ledgers", rep.LocalSeq)
	}
	if len(rep.Nodes) != 0 || len(rep.MissingOrBehind) != 0 {
		t.Fatalf("self-quorum tracked peers: %+v", rep)
	}
	if !rep.QuorumAvailable || rep.VBlockingAtRisk {
		t.Fatalf("self-quorum health wrong: %+v", rep)
	}
	if len(rep.Slices) == 0 || !rep.Slices[0].Satisfied {
		t.Fatalf("top slice unsatisfied: %+v", rep.Slices)
	}

	// Hitting the endpoint republishes the quorum_* gauges.
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams := parsePrometheus(t, resp.Body)
	avail := fams["quorum_available"]
	if avail == nil {
		t.Fatal("quorum_available gauge not exported")
	}
	if v := avail.samples["quorum_available"]; v != 1 {
		t.Fatalf("quorum_available = %v, want 1", v)
	}
}

func TestPprofBehindFlag(t *testing.T) {
	// Default: profiling routes are absent.
	f := newFixture(t)
	if code := f.get("/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without flag: status %d", code)
	}

	// With the flag, the index and cmdline endpoints answer.
	f.srv.EnablePprof = true
	ts := httptest.NewServer(f.srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
