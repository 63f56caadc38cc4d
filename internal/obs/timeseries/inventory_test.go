package timeseries_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"stellar/internal/obs/slo"
)

// The telemetry inventory. The ring samples every family a running node
// registers, so each one costs memory on every node; it earns its place
// only if something reads it. The same holds for every span name, every
// /debug endpoint and every stellar-obs subcommand. A reader is one of:
type readerKind int

const (
	// sloRule: an SLO rule judges it; ref names the rule.
	sloRule readerKind = iota
	// benchMetric: the end-to-end benchmark (bench/*.go) reads it.
	benchMetric
	// fleetColumn: `stellar-obs fleet` reads it (internal/obs/collect).
	fleetColumn
	// driverTest: a test drives the behaviour and asserts the value moves;
	// ref is "path/to/file_test.go:TestName" from the repository root.
	driverTest
	// operatorDoc: ref (README.md or DESIGN.md) tells an operator what to
	// do when the value moves.
	operatorDoc
)

type reader struct {
	kind readerKind
	ref  string
}

// familyReaders gives every metric family of a running node its reader.
var familyReaders = map[string]reader{
	"catchup_bytes_fetched_total":        {driverTest, "internal/cluster/catchup_test.go:TestColdNodeCatchesUpOverTheWire"},
	"catchup_files_fetched_total":        {driverTest, "internal/herder/netcatchup_test.go:TestColdStartFetchesStateOnly"},
	"catchup_ledgers_replayed_total":     {driverTest, "internal/herder/netcatchup_test.go:TestColdStartFetchesStateOnly"},
	"catchup_state":                      {driverTest, "internal/cluster/catchup_test.go:TestColdNodeCatchesUpOverTheWire"},
	"go_gc_cycles_total":                 {benchMetric, ""},
	"go_gc_pause_seconds_total":          {benchMetric, ""},
	"go_heap_objects_bytes":              {benchMetric, ""},
	"herder_balloting_seconds":           {benchMetric, ""},
	"herder_close_interval_seconds":      {sloRule, slo.RuleCloseIntervalP99},
	"herder_interval_slack_seconds":      {driverTest, "internal/herder/cadence_test.go:TestCatchupReplayArmsOneImmediateTrigger"},
	"herder_ledgers_closed_total":        {sloRule, slo.RuleCloseStall},
	"herder_nomination_seconds":          {benchMetric, ""},
	"herder_submit_applied_seconds":      {sloRule, slo.RuleSubmitAppliedP99},
	"herder_trigger_seconds":             {driverTest, "internal/herder/cadence_test.go:TestCatchupReplayArmsOneImmediateTrigger"},
	"herder_tx_per_ledger":               {benchMetric, ""},
	"herder_txset_refs_total":            {driverTest, "internal/herder/txsetref_test.go:TestTxSetRefMissAndMismatch"},
	"herder_txset_requests_served_total": {driverTest, "internal/herder/txsetref_test.go:TestTxSetRefStaleUnknownAndHostile"},
	"history_write_errors_total":         {driverTest, "internal/herder/window_test.go:TestArchiveWriteErrorKeepsBody"},
	"horizon_http_requests_total":        {driverTest, "internal/horizon/obs_test.go:TestPrometheusMetricsEndpoint"},
	"ingress_submissions_total":          {driverTest, "internal/cluster/ingress_test.go:TestIngressPushesBackWithoutLosingTransactions"},
	"ledger_apply_seconds":               {benchMetric, ""},
	"ledger_txs_applied_total":           {benchMetric, ""},
	"mempool_admitted_total":             {driverTest, "internal/herder/cadence_test.go:TestFloodedTxIsPreVerified"},
	"mempool_capacity":                   {sloRule, slo.RuleMempoolSaturated},
	"mempool_evicted_total":              {benchMetric, ""},
	"mempool_size":                       {sloRule, slo.RuleMempoolSaturated},
	"overlay_bytes_sent_total":           {benchMetric, ""},
	"overlay_dupes_suppressed_total":     {benchMetric, ""},
	"overlay_packets_delivered_total":    {benchMetric, ""},
	"overlay_packets_sent_total":         {benchMetric, ""},
	"quorum_available":                   {sloRule, slo.RuleQuorumUnavailable},
	"scp_envelopes_emitted_total":        {benchMetric, ""},
	"scp_envelopes_received_total":       {benchMetric, ""},
	"scp_nomination_rounds_total":        {benchMetric, ""},
	"scp_slots_externalized_total":       {driverTest, "internal/horizon/obs_test.go:TestPrometheusMetricsEndpoint"},
	"scp_timeouts_total":                 {benchMetric, ""},
	"trace_spans_dropped":                {fleetColumn, ""},
	"trace_spans_recorded":               {fleetColumn, ""},
	"transport_bytes_out_total":          {benchMetric, ""},
	"transport_decode_errors_total":      {driverTest, "internal/transport/transport_test.go:TestDecodePacketRejectsHostile"},
	"transport_dial_failures_total":      {driverTest, "internal/transport/transport_test.go:TestManagerRejectsWrongNetworkPeer"},
	"transport_frames_in_total":          {driverTest, "internal/transport/integration_test.go:TestThreeNodeTCPQuorum"},
	"transport_handshake_failures_total": {driverTest, "internal/transport/transport_test.go:TestManagerRejectsWrongNetworkPeer"},
	"transport_peers":                    {sloRule, slo.RulePeerLoss},
	"transport_queue_sheds_total":        {benchMetric, ""},
	"transport_reconnects_total":         {benchMetric, ""},
	"verify_cache_entries":               {driverTest, "internal/verify/verify_test.go:TestVerifierObs"},
	"verify_cache_hits_total":            {benchMetric, ""},
	"verify_cache_misses_total":          {benchMetric, ""},
	"verify_pool_tasks_total":            {driverTest, "internal/verify/verify_test.go:TestVerifierObs"},
}

// spanReaders gives every span name in internal/obs/span.go its reader.
var spanReaders = map[string]reader{
	"slot":           {driverTest, spanTest},
	"trigger":        {driverTest, spanTest},
	"nomination":     {driverTest, spanTest},
	"balloting":      {driverTest, spanTest},
	"ballot-prepare": {driverTest, spanTest},
	"ballot-commit":  {driverTest, spanTest},
	"apply":          {driverTest, spanTest},
	"sig-prepass":    {driverTest, spanTest},
	"tx-apply":       {driverTest, spanTest},
	"bucket-merge":   {driverTest, spanTest},
	"archive":        {driverTest, "internal/experiments/trace_test.go:TestSimTraceIsAClusterTrace"},
	"tx":             {driverTest, spanTest},
	"submit":         {driverTest, spanTest},
	"admit":          {driverTest, spanTest},
	"pending":        {driverTest, spanTest},
	"consensus":      {driverTest, spanTest},
	"applied":        {driverTest, spanTest},
	"recv-envelope":  {driverTest, spanTest},
	"recv-txset":     {driverTest, "internal/herder/txsetref_test.go:TestTxSetRefFetchedWithinTheRound"},
}

const spanTest = "internal/herder/span_herder_test.go:TestSlotAndTxSpansRecorded"

// endpointReaders gives every /debug route horizon mounts its reader.
var endpointReaders = map[string]reader{
	"/debug/slots/{seq}/trace": {driverTest, "internal/horizon/obs_test.go:TestSlotTraceEndpoint"},
	"/debug/trace/export":      {fleetColumn, ""},
	"/debug/quorum":            {operatorDoc, "README.md"},
	"/debug/alerts":            {fleetColumn, ""},
}

// commandReaders gives every stellar-obs subcommand its reader.
var commandReaders = map[string]reader{
	"stellar-obs fleet":      {operatorDoc, "README.md"},
	"stellar-obs merge":      {operatorDoc, "README.md"},
	"stellar-obs tracecheck": {operatorDoc, "README.md"},
	"stellar-obs fbas":       {driverTest, "cmd/stellar-obs/fbas_test.go:TestFbasExitCodes"},
	"stellar-obs tables":     {operatorDoc, "README.md"},
	"stellar-obs benchjson":  {operatorDoc, "DESIGN.md"},
}

const root = "../../.."

func readFile(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readGo concatenates the non-test Go files matching glob.
func readGo(t *testing.T, glob string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, glob))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files match %s (%v)", glob, err)
	}
	var b strings.Builder
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
	}
	return b.String()
}

// testBody returns the source of the test function ref names
// ("path/to/file_test.go:TestName"), or "" when there is none.
func testBody(t *testing.T, ref string) string {
	t.Helper()
	file, test, _ := strings.Cut(ref, ":")
	src := readFile(t, file)
	i := strings.Index(src, "\nfunc "+test+"(")
	if i < 0 {
		return ""
	}
	body := src[i+1:]
	if j := strings.Index(body, "\nfunc "); j >= 0 {
		body = body[:j]
	}
	return body
}

// checkReaders requires each name in names to have a reader in readers that
// holds, and each reader to name something that exists. names maps each
// name to the pattern a reader's source must match to read it: a family
// is named inside a string literal (`"herder_tx_per_ledger_sum"`, or an
// assertion's message), a span by its name or its obs constant, and so
// on. A driving test must match it in its own body, not merely exist.
func checkReaders(t *testing.T, what string, names map[string]*regexp.Regexp, readers map[string]reader) {
	t.Helper()
	rules := map[string]bool{}
	for _, r := range slo.DefaultRules(slo.Config{MinPeers: 1}) {
		rules[r.Name] = true
	}
	sources := map[readerKind]string{
		sloRule:     readGo(t, "internal/obs/slo/*.go"),
		benchMetric: readGo(t, "bench/*.go"),
		fleetColumn: readGo(t, "internal/obs/collect/*.go"),
	}
	for name, spelled := range names {
		r, ok := readers[name]
		if !ok {
			t.Errorf("%s %q has no reader: give it one, or delete it", what, name)
			continue
		}
		switch r.kind {
		case sloRule:
			if !rules[r.ref] || !spelled.MatchString(sources[sloRule]) {
				t.Errorf("%s %q: no SLO rule %q reads it", what, name, r.ref)
			}
		case benchMetric, fleetColumn:
			if !spelled.MatchString(sources[r.kind]) {
				t.Errorf("%s %q: its reader's source never names it", what, name)
			}
		case driverTest:
			if body := testBody(t, r.ref); body == "" {
				t.Errorf("%s %q: no test %s", what, name, r.ref)
			} else if !spelled.MatchString(body) {
				t.Errorf("%s %q: %s never reads it", what, name, r.ref)
			}
		case operatorDoc:
			if !strings.Contains(readFile(t, r.ref), name) {
				t.Errorf("%s %q: %s never mentions it", what, name, r.ref)
			}
		}
	}
	for name := range readers {
		if names[name] == nil {
			t.Errorf("%s %q has a reader but no longer exists: drop its entry", what, name)
		}
	}
}

func TestEveryFamilyHasAReader(t *testing.T) {
	names := map[string]*regexp.Regexp{}
	for _, f := range nodeRegistry(t).Snapshot() {
		names[f.Name] = regexp.MustCompile("[\"`][^\"`\n]*\\b" + regexp.QuoteMeta(f.Name))
	}
	checkReaders(t, "family", names, familyReaders)
}

func TestEverySpanHasAReader(t *testing.T) {
	names := map[string]*regexp.Regexp{}
	for _, m := range regexp.MustCompile(`(?m)^\s+(Span\w+)\s+= "([^"]+)"`).FindAllStringSubmatch(readGo(t, "internal/obs/span.go"), -1) {
		names[m[2]] = regexp.MustCompile(`"` + regexp.QuoteMeta(m[2]) + `"|\b` + m[1] + `\b`)
	}
	checkReaders(t, "span", names, spanReaders)
}

func TestEveryDebugEndpointHasAReader(t *testing.T) {
	names := map[string]*regexp.Regexp{}
	for _, m := range regexp.MustCompile(`"GET (/debug/[^"]+)"`).FindAllStringSubmatch(readGo(t, "internal/horizon/*.go"), -1) {
		// A templated route is read through its literal prefix.
		prefix, _, _ := strings.Cut(m[1], "{")
		names[m[1]] = regexp.MustCompile(regexp.QuoteMeta(prefix))
	}
	checkReaders(t, "endpoint", names, endpointReaders)
}

func TestEveryObsCommandHasAReader(t *testing.T) {
	names := map[string]*regexp.Regexp{}
	for _, m := range regexp.MustCompile(`(?m)^\tcase "([a-z]+)":`).FindAllStringSubmatch(readGo(t, "cmd/stellar-obs/main.go"), -1) {
		// A test drives a subcommand through its cmdXxx function.
		names["stellar-obs "+m[1]] = regexp.MustCompile(`\bcmd` + strings.ToUpper(m[1][:1]) + m[1][1:] + `\b`)
	}
	checkReaders(t, "subcommand", names, commandReaders)
}

// TestDocsNameOnlyExportedSeries fails when a guide names a metric series
// no running node exports: a word with a family prefix (`quorum_...`)
// must be a family, a family's _sum/_count/_bucket series, or an SLO rule
// name. A word ending in "_" is a pattern (`overlay_packets_{sent,...}`).
func TestDocsNameOnlyExportedSeries(t *testing.T) {
	families := map[string]bool{}
	prefixes := map[string]bool{}
	for _, f := range nodeRegistry(t).Snapshot() {
		families[f.Name] = true
		prefixes[strings.SplitN(f.Name, "_", 2)[0]] = true
	}
	for _, r := range slo.DefaultRules(slo.Config{MinPeers: 1}) {
		families[r.Name] = true
	}
	var alt []string
	for p := range prefixes {
		alt = append(alt, p)
	}
	sort.Strings(alt)
	word := regexp.MustCompile(`\b(?:` + strings.Join(alt, "|") + `)_[a-z0-9_]+\b`)
	suffix := regexp.MustCompile(`_(sum|count|bucket)$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		for i, line := range strings.Split(readFile(t, doc), "\n") {
			for _, w := range word.FindAllString(line, -1) {
				if strings.HasSuffix(w, "_") || families[w] || families[suffix.ReplaceAllString(w, "")] {
					continue
				}
				t.Errorf("%s:%d names %s, which no running node exports", doc, i+1, w)
			}
		}
	}
}
