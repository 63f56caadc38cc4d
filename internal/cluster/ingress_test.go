//go:build smoke && linux

package cluster

import (
	"net/http"
	"testing"
	"time"
)

// TestIngressPushesBackWithoutLosingTransactions: against a quorum with a
// deliberately tiny mempool, offered load doubles every step until horizon
// answers 429. Every 429 or 503 must carry a Retry-After of at least a
// second, and every transaction accepted with 202 must apply: acceptance
// is a promise, not a guess.
func TestIngressPushesBackWithoutLosingTransactions(t *testing.T) {
	const accounts = 8
	// 32 pending transactions, 8 per account: the ceiling is reached in
	// seconds rather than minutes.
	c := boot(t, Config{Validators: 3, Args: func(int) []string {
		return []string{"-mempool", "32", "-mempool-per-source", "8"}
	}})
	if err := c.WaitLedger(3, bootTimeout); err != nil {
		t.Fatal(err)
	}
	first := c.Nodes[0]
	if err := c.Fund(first, accounts, bootTimeout); err != nil {
		t.Fatal(err)
	}
	before, err := c.Collect.FetchMetrics(first.Target())
	if err != nil {
		t.Fatal(err)
	}

	var accepted, rejected429, rejected503, badRetry, next int
	for rate := 8.0; rate <= 512 && rejected429 == 0; rate *= 2 {
		gap := time.Duration(float64(time.Second) / rate)
		for end := time.Now().Add(3 * time.Second); time.Now().Before(end); time.Sleep(gap) {
			// Each account submits to one node only, so its payments
			// reach one pool in sequence order.
			src := next % accounts
			next++
			res, err := c.Pay(c.Nodes[src%len(c.Nodes)], src, accounts)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Status {
			case http.StatusAccepted:
				accepted++
			case http.StatusOK: // already pooled
			case http.StatusTooManyRequests:
				rejected429++
			case http.StatusServiceUnavailable:
				rejected503++
			default:
				t.Fatalf("submit: status %d: %s", res.Status, res.Err)
			}
			if res.Status >= http.StatusTooManyRequests && res.RetryAfter < 1 {
				badRetry++
			}
		}
		t.Logf("offered %.0f tx/s: %d accepted, %d×429, %d×503 so far", rate, accepted, rejected429, rejected503)
	}
	if rejected429 == 0 {
		t.Fatal("no 429 at any offered rate: backpressure never exercised")
	}
	if badRetry > 0 {
		t.Errorf("%d of %d pushbacks carried no valid Retry-After", badRetry, rejected429+rejected503)
	}

	// Drain: every 202 must show up in the applied count.
	base := before.Sum("herder_tx_per_ledger_sum")
	var applied float64
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Millisecond) {
		if m, err := c.Collect.FetchMetrics(first.Target()); err == nil {
			if applied = m.Sum("herder_tx_per_ledger_sum") - base; applied >= float64(accepted) {
				break
			}
		}
	}
	if lost := accepted - int(applied); lost > 0 {
		t.Errorf("%d of %d accepted transactions never applied", lost, accepted)
	}

	for _, nd := range c.Nodes {
		m, err := c.Collect.FetchMetrics(nd.Target())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Value("mempool_size"); !ok {
			t.Errorf("%s /metrics lacks mempool_size", nd.Label)
		}
	}
	m, err := c.Collect.FetchMetrics(first.Target())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Value(`ingress_submissions_total{outcome="accepted"}`); v < 1 {
		t.Error("node-0 counted no accepted ingress submission")
	}
	if m.Sum("mempool_admitted_total") < 1 {
		t.Error("node-0 counted no mempool admission")
	}
}
