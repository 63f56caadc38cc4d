//go:build smoke && linux

package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"stellar/internal/herder"
	"stellar/internal/horizon"
)

// The smoke tests each boot a real quorum and hold only their assertions;
// the harness does the rest. They run with `make smoke` (go test -tags
// smoke), one after another.

// bootTimeout bounds every wait for ledgers to close.
const bootTimeout = 2 * time.Minute

var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "stellar-node-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nodeBin, err = Build(dir)
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// boot starts a quorum for the test and stops it when the test ends. A
// failed test prints the tail of every node's log, which is what a failing
// smoke run has to be diagnosed from.
func boot(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Bin, cfg.Dir = nodeBin, t.TempDir()
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Stop()
		if t.Failed() {
			for _, nd := range c.Nodes {
				t.Logf("%s log tail:\n%s", nd.Label, nd.LogTail(40))
			}
		}
	})
	return c
}

// sameHeaders requires every node to hold the same header hash for each
// ledger in [from, to].
func sameHeaders(t *testing.T, c *Cluster, from, to uint32, nodes ...*Node) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		var want string
		for _, nd := range nodes {
			li, err := c.Ledger(nd, strconv.FormatUint(uint64(seq), 10))
			if err != nil {
				t.Fatalf("ledger %d: %v", seq, err)
			}
			if want == "" {
				want = li.Hash
			} else if li.Hash != want {
				t.Fatalf("divergence at ledger %d: %s has %s, %s has %s", seq, nodes[0].Label, want, nd.Label, li.Hash)
			}
		}
	}
}

// TestQuorumClosesIdenticalLedgers: three processes over loopback TCP
// (authenticated handshake, real sockets) close ledger 20 with identical
// headers, and each sees both peers, on the wire and in /debug/quorum.
func TestQuorumClosesIdenticalLedgers(t *testing.T) {
	c := boot(t, Config{Validators: 3})
	if err := c.WaitLedger(20, bootTimeout); err != nil {
		t.Fatal(err)
	}
	sameHeaders(t, c, 2, 20, c.Nodes...)
	for _, nd := range c.Nodes {
		m, err := c.Collect.FetchMetrics(nd.Target())
		if err != nil {
			t.Fatal(err)
		}
		if peers, _ := m.Value("transport_peers"); peers != 2 {
			t.Errorf("%s: transport_peers %v, want 2", nd.Label, peers)
		}
		resp, err := c.Collect.HTTP.Get(nd.Target().URL + "/debug/quorum")
		if err != nil {
			t.Fatal(err)
		}
		var rep herder.QuorumHealthReport
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil || len(rep.Nodes) != 2 || !rep.QuorumAvailable {
			t.Errorf("%s /debug/quorum: %+v (%v), want both peers tracked and quorum available", nd.Label, rep, err)
		}
	}
}

// TestBootClosesFirstLedgerAtOnce: a booted validator's tip (genesis) has no
// local ballot start, so it nominates at once (DESIGN.md §5). With a 2 s
// interval every node closes ledger 2 within 1 s of the last node's start;
// waiting an interval before the first nomination would take 2 s.
func TestBootClosesFirstLedgerAtOnce(t *testing.T) {
	const interval = 2 * time.Second
	c := boot(t, Config{Validators: 3, Args: func(int) []string { return []string{"-interval", interval.String()} }})
	started := time.Now() // the last node's process has just been started
	deadline := started.Add(interval / 2)
	for _, nd := range c.Nodes {
		for {
			li, err := c.Ledger(nd, "latest")
			if err == nil && li.Sequence >= 2 {
				t.Logf("%s: ledger 2 closed by %v after the last node's start", nd.Label, time.Since(started).Round(time.Millisecond))
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s at ledger %d %v after the last node's start, want ledger 2 (last error: %v)",
					nd.Label, li.Sequence, time.Since(started).Round(time.Millisecond), err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Where the saving is: each node's slot 2 record, on its Unix-time
	// clock, against the last node's start.
	at := func(s string) time.Duration {
		d, _ := time.ParseDuration(s)
		return (d - time.Duration(started.UnixNano())).Round(time.Millisecond)
	}
	for _, nd := range c.Nodes {
		var tr horizon.SlotTraceInfo
		if status, body, err := c.get(nd, "/debug/slots/2/trace"); err != nil || status != http.StatusOK || json.Unmarshal(body, &tr) != nil {
			t.Fatalf("%s /debug/slots/2/trace: status %d, %v", nd.Label, status, err)
		}
		t.Logf("%s slot 2: nominated at %v, externalized at %v (from the last node's start)",
			nd.Label, at(tr.NominationStart), at(tr.Externalize))
	}
}
