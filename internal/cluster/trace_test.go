//go:build smoke && linux

package cluster

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"stellar/internal/obs/collect"
)

// TestTracedLoadMergesAcrossProcesses: a traced quorum under payment load.
// Every node's span store merges into one Perfetto trace without losing a
// span, the merged trace passes the cluster check (trace context crossed
// the TCP overlay), and it yields submit→applied latencies from trees that
// span processes.
func TestTracedLoadMergesAcrossProcesses(t *testing.T) {
	const accounts = 8
	c := boot(t, Config{Validators: 3, Args: func(int) []string { return []string{"-trace-live"} }})
	if err := c.WaitLedger(3, bootTimeout); err != nil {
		t.Fatal(err)
	}
	first := c.Nodes[0]
	if err := c.Fund(first, accounts, bootTimeout); err != nil {
		t.Fatal(err)
	}

	// One payment per account per ledger closed on node-0, for ten seconds;
	// each account submits to one node, so its payments reach one pool in
	// sequence order.
	var last uint32
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		li, err := c.Ledger(first, "latest")
		if err != nil || li.Sequence == last {
			continue
		}
		last = li.Sequence
		for i := 0; i < accounts; i++ {
			res, err := c.Pay(c.Nodes[i%len(c.Nodes)], i, accounts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != http.StatusAccepted && res.Status != http.StatusOK {
				t.Fatalf("payment %d: status %d: %s", i, res.Status, res.Err)
			}
		}
	}
	if err := c.WaitLedger(last+2, bootTimeout); err != nil {
		t.Fatal(err)
	}

	scrapes := c.Collect.ScrapeAll(c.Targets())
	for _, s := range scrapes {
		if s.Err != nil {
			t.Fatalf("scrape %s: %v", s.Name(), s.Err)
		}
		if _, ok := s.Metrics.Value("trace_spans_dropped"); !ok {
			t.Errorf("%s /metrics lacks trace_spans_dropped", s.Name())
		}
	}
	var merged bytes.Buffer
	stats, err := collect.Merge(scrapes, &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Lossless() {
		t.Errorf("merge dropped spans: %d in, %d out", stats.SpansIn, stats.SpansOut)
	}
	sum, err := collect.CheckTrace(&merged, false, true)
	if err != nil {
		t.Fatalf("merged trace: %v", err)
	}
	latencies, crossNode := collect.TraceLatencies(scrapes)
	if len(latencies) == 0 || crossNode == 0 {
		t.Errorf("%d submit→applied samples, %d cross-node trees; want both > 0", len(latencies), crossNode)
	}
	t.Logf("merged %d spans from %d processes: %d cross-process remote parents, %d cross-process flows; %d submit→applied samples",
		sum.Spans, sum.Processes, sum.CrossRemoteParents, sum.CrossFlows, len(latencies))
}
