package horizon

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// ingressFixture is the submit-pipeline test rig: a single-validator
// network with a small configurable mempool, ingress limits, and a set
// of funded accounts to submit from.
type ingressFixture struct {
	*fixture
	accounts []stellarcrypto.KeyPair
}

// newIngressFixture boots a validator with the given mempool bound and
// ingress limits and funds n accounts in one genesis-master transaction.
func newIngressFixture(t *testing.T, poolMax int, ingress IngressConfig, n int) *ingressFixture {
	t.Helper()
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("ingress-test"))
	kp := stellarcrypto.KeyPairFromString("ingress-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := herder.New(net, herder.Config{
		Keys:           kp,
		QSet:           fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID:      nid,
		LedgerInterval: time.Second,
		MempoolMaxTxs:  poolMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis, master := herder.GenesisState(nid)
	node.Bootstrap(genesis, 0)
	node.Start()
	net.RunFor(2 * time.Second)

	srv := New(node, nid)
	srv.SetIngress(ingress)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	f := &ingressFixture{fixture: &fixture{
		t: t, net: net, node: node, srv: srv, ts: ts, nid: nid, master: master,
	}}

	if n > 0 {
		masterID := ledger.AccountIDFromPublicKey(master.Public)
		var ops []ledger.Operation
		for i := 0; i < n; i++ {
			akp := stellarcrypto.KeyPairFromString(fmt.Sprintf("ingress-acct-%d", i))
			f.accounts = append(f.accounts, akp)
			ops = append(ops, ledger.Operation{Body: &ledger.CreateAccount{
				Destination:     ledger.AccountIDFromPublicKey(akp.Public),
				StartingBalance: 1000 * ledger.One,
			}})
		}
		f.srv.Mu.Lock()
		seq := node.State().Account(masterID).SeqNum
		tx := &ledger.Transaction{
			Source: masterID, Fee: ledger.DefaultBaseFee * ledger.Amount(len(ops)),
			SeqNum: seq + 1, Operations: ops,
		}
		tx.Sign(nid, master)
		if err := node.SubmitTx(tx); err != nil {
			f.srv.Mu.Unlock()
			t.Fatal(err)
		}
		f.srv.Mu.Unlock()
		f.advance(3 * time.Second)
	}
	return f
}

// envelope builds a signed single-payment envelope from account i with
// the given fee and sequence offset past the account's current state.
func (f *ingressFixture) envelope(i int, fee ledger.Amount, seqAhead uint64) string {
	f.t.Helper()
	kp := f.accounts[i]
	source := ledger.AccountIDFromPublicKey(kp.Public)
	masterID := ledger.AccountIDFromPublicKey(f.master.Public)
	f.srv.Mu.Lock()
	acct := f.node.State().Account(source)
	if acct == nil {
		f.srv.Mu.Unlock()
		f.t.Fatalf("account %d not funded", i)
	}
	seq := acct.SeqNum + seqAhead
	f.srv.Mu.Unlock()
	tx := &ledger.Transaction{
		Source: source, Fee: fee, SeqNum: seq,
		Operations: []ledger.Operation{{
			Body: &ledger.Payment{Destination: masterID, Amount: ledger.One},
		}},
	}
	tx.Sign(f.nid, kp)
	return hex.EncodeToString(tx.MarshalSignedXDR())
}

// submit posts a request and returns the full response plus decoded body.
func (f *ingressFixture) submit(body any) (*http.Response, RejectBody, SubmitResponse) {
	f.t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(f.ts.URL+"/transactions", "application/json", bytes.NewReader(raw))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var rej RejectBody
	var ok SubmitResponse
	_ = json.Unmarshal(buf.Bytes(), &rej)
	_ = json.Unmarshal(buf.Bytes(), &ok)
	return resp, rej, ok
}

// checkRetryable asserts the 429/503 response contract: a parseable
// positive Retry-After header that matches the body's retry_after.
func checkRetryable(t *testing.T, resp *http.Response, rej RejectBody) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.ParseInt(ra, 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
	}
	if rej.RetryAfter != secs {
		t.Fatalf("body retry_after %d != header %d", rej.RetryAfter, secs)
	}
	if rej.Error == "" {
		t.Fatal("reject body missing error")
	}
}

// TestSubmitAdmissionOutcomes walks the submit pipeline through every
// admission outcome against one fixture (pool of 2, no rate limits).
func TestSubmitAdmissionOutcomes(t *testing.T) {
	f := newIngressFixture(t, 2, IngressConfig{}, 4)
	base := ledger.DefaultBaseFee

	t.Run("accepted", func(t *testing.T) {
		resp, _, ok := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, base, 1)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(ok.Hash) != 64 || ok.Status != "pending" {
			t.Fatalf("body %+v", ok)
		}
	})

	t.Run("duplicate", func(t *testing.T) {
		env := f.envelope(1, base, 1)
		if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: env}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit status %d", resp.StatusCode)
		}
		resp, _, ok := f.submit(SubmitRequest{EnvelopeXDR: env})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("duplicate status %d, want 200", resp.StatusCode)
		}
		if ok.Status != "duplicate" {
			t.Fatalf("duplicate body %+v", ok)
		}
	})

	t.Run("malformed_json", func(t *testing.T) {
		resp, err := http.Post(f.ts.URL+"/transactions", "application/json", bytes.NewReader([]byte("{nope")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})

	t.Run("malformed_xdr", func(t *testing.T) {
		for _, env := range []string{"zz-not-hex", "deadbeef"} {
			resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: env})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("envelope %q: status %d, want 400", env, resp.StatusCode)
			}
		}
	})

	t.Run("bad_signature", func(t *testing.T) {
		// A valid envelope signed by the wrong key.
		kp := f.accounts[2]
		source := ledger.AccountIDFromPublicKey(kp.Public)
		f.srv.Mu.Lock()
		seq := f.node.State().Account(source).SeqNum
		f.srv.Mu.Unlock()
		tx := &ledger.Transaction{
			Source: source, Fee: base, SeqNum: seq + 1,
			Operations: []ledger.Operation{{
				Body: &ledger.Payment{Destination: source, Amount: ledger.One},
			}},
		}
		tx.Sign(f.nid, stellarcrypto.KeyPairFromString("not-the-owner"))
		resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: hex.EncodeToString(tx.MarshalSignedXDR())})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if rej.Error == "" {
			t.Fatal("missing error body")
		}
	})

	// The pool (cap 2) now holds the two accepted txs above.
	t.Run("pool_full", func(t *testing.T) {
		resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(2, base, 1)})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		checkRetryable(t, resp, rej)
		// The fee floor is base (both residents pay base for one op), so
		// entering costs base+1.
		if rej.MinFee != strconv.FormatInt(int64(base)+1, 10) {
			t.Fatalf("min_fee %q, want %d", rej.MinFee, int64(base)+1)
		}
	})

	t.Run("eviction_above_floor", func(t *testing.T) {
		// Paying the hinted fee gets in by evicting a resident.
		resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(2, base+1, 1)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202", resp.StatusCode)
		}
		var fs FeeStatsResponse
		if code := f.get("/fee_stats", &fs); code != 200 {
			t.Fatalf("fee_stats status %d", code)
		}
		if fs.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", fs.Evictions)
		}
		if !fs.PoolFull || fs.PoolSize != 2 {
			t.Fatalf("pool state %+v", fs)
		}
		// The surviving cheapest resident still pays base per op, so the
		// published floor stays base+1 for a one-op entrant.
		if fs.MinFeePerOp != strconv.FormatInt(int64(base)+1, 10) {
			t.Fatalf("min_fee_per_op %q, want %d", fs.MinFeePerOp, int64(base)+1)
		}
	})

	t.Run("seq_conflict", func(t *testing.T) {
		// Account 3's pool entry was evicted or absent; submit twice at
		// the same sequence with different payloads. The second must not
		// silently shadow the first.
		env1 := f.envelope(3, base+5, 1)
		if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: env1}); resp.StatusCode != http.StatusAccepted {
			t.Skip("pool full before seq-conflict setup; covered by mempool unit tests")
		}
		// Same source+seq, same fee, different destination amount: conflict.
		kp := f.accounts[3]
		source := ledger.AccountIDFromPublicKey(kp.Public)
		f.srv.Mu.Lock()
		seq := f.node.State().Account(source).SeqNum
		f.srv.Mu.Unlock()
		tx := &ledger.Transaction{
			Source: source, Fee: base + 5, SeqNum: seq + 1,
			Operations: []ledger.Operation{{
				Body: &ledger.Payment{Destination: source, Amount: 2 * ledger.One},
			}},
		}
		tx.Sign(f.nid, kp)
		resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: hex.EncodeToString(tx.MarshalSignedXDR())})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		checkRetryable(t, resp, rej)
		if rej.MinFee == "" {
			t.Fatal("seq-conflict 429 missing min_fee replace hint")
		}
	})
}

// TestSubmitNotBootstrapped maps the no-state/catching-up path to 503
// with Retry-After.
func TestSubmitNotBootstrapped(t *testing.T) {
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("ingress-503"))
	kp := stellarcrypto.KeyPairFromString("ingress-503-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := herder.New(net, herder.Config{
		Keys: kp, QSet: fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID: nid, LedgerInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(node, nid)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw, _ := json.Marshal(SubmitRequest{EnvelopeXDR: "00"})
	resp, err := http.Post(ts.URL+"/transactions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// TestSubmitSourceRateLimit exercises the per-account token bucket.
func TestSubmitSourceRateLimit(t *testing.T) {
	f := newIngressFixture(t, 0, IngressConfig{SourceRate: 0.01, SourceBurst: 1}, 2)
	base := ledger.DefaultBaseFee
	if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, base, 1)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, base, 2)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", resp.StatusCode)
	}
	checkRetryable(t, resp, rej)
	// A different account is unaffected.
	if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(1, base, 1)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other account status %d", resp.StatusCode)
	}
}

// TestSubmitIPRateLimit exercises the pre-decode IP bucket.
func TestSubmitIPRateLimit(t *testing.T) {
	f := newIngressFixture(t, 0, IngressConfig{IPRate: 0.01, IPBurst: 2}, 1)
	base := ledger.DefaultBaseFee
	for i := uint64(1); i <= 2; i++ {
		if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, base, i)}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
	}
	resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: "ignored"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	checkRetryable(t, resp, rej)
}

// TestFeeStatsQuiescent checks the endpoint's shape on an unloaded node.
func TestFeeStatsQuiescent(t *testing.T) {
	f := newIngressFixture(t, 0, IngressConfig{}, 0)
	var fs FeeStatsResponse
	if code := f.get("/fee_stats", &fs); code != 200 {
		t.Fatalf("status %d", code)
	}
	base := strconv.FormatInt(int64(ledger.DefaultBaseFee), 10)
	if fs.BaseFee != base || fs.MinFeePerOp != base {
		t.Fatalf("fees %+v, want base %s", fs, base)
	}
	if fs.PoolFull || fs.PoolSize != 0 || fs.PoolCap <= 0 {
		t.Fatalf("pool %+v", fs)
	}
}

// TestSubmitConcurrentWithCloses hammers the submit pipeline from 32
// goroutines while a driver goroutine keeps closing ledgers — the
// race-detector gate for the mempool under the loop lock.
func TestSubmitConcurrentWithCloses(t *testing.T) {
	const workers = 32
	f := newIngressFixture(t, 256, IngressConfig{}, workers)
	masterID := ledger.AccountIDFromPublicKey(f.master.Public)

	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.advance(200 * time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, _, _ := f.submit(SubmitRequest{
					SourceSeed: fmt.Sprintf("ingress-acct-%d", w),
					Operations: []SubmitOp{{
						Type: "payment", Destination: string(masterID), Amount: "1",
					}},
				})
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	driver.Wait()
	f.advance(4 * time.Second)

	// Every response must be a deliberate admission outcome — never a
	// 5xx from a race or a panic.
	for code := range statuses {
		switch code {
		case http.StatusAccepted, http.StatusOK, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d (distribution %v)", code, statuses)
		}
	}
	if statuses[http.StatusAccepted] == 0 {
		t.Fatalf("no submissions accepted: %v", statuses)
	}
	// Liveness: accepted payments actually applied (master received funds
	// and at least one account's sequence advanced).
	f.srv.Mu.Lock()
	advanced := 0
	for _, kp := range f.accounts {
		acct := f.node.State().Account(ledger.AccountIDFromPublicKey(kp.Public))
		if acct != nil && acct.SeqNum > 0 {
			advanced++
		}
	}
	f.srv.Mu.Unlock()
	if advanced == 0 {
		t.Fatal("no account sequence advanced; accepted txs never applied")
	}
}
