package horizon

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
// network with a small configurable mempool and a set of funded accounts
// to submit from.
type ingressFixture struct {
	*fixture
	accounts []stellarcrypto.KeyPair
}

// newIngressFixture boots a validator with the given mempool bound and
// funds n accounts in one genesis-master transaction.
func newIngressFixture(t *testing.T, poolMax int, n int) *ingressFixture {
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
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	f := &ingressFixture{fixture: &fixture{
		t: t, net: net, node: node, srv: srv, ts: ts, nid: nid, master: master,
	}}

	if n > 0 {
		var ops []ledger.OpBody
		for i := 0; i < n; i++ {
			akp := stellarcrypto.KeyPairFromString(fmt.Sprintf("ingress-acct-%d", i))
			f.accounts = append(f.accounts, akp)
			ops = append(ops, &ledger.CreateAccount{
				Destination:     ledger.AccountIDFromPublicKey(akp.Public),
				StartingBalance: 1000 * ledger.One,
			})
		}
		if code := f.client(master).submit(ops...); code != http.StatusAccepted {
			t.Fatalf("funding: status %d", code)
		}
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
// admission outcome against one fixture (pool of 2).
func TestSubmitAdmissionOutcomes(t *testing.T) {
	f := newIngressFixture(t, 2, 4)
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

	t.Run("no_envelope", func(t *testing.T) {
		resp, rej, _ := f.submit(map[string]string{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if rej.Error == "" {
			t.Fatal("missing error body")
		}
	})

	t.Run("ended_time_bounds", func(t *testing.T) {
		// Time bounds that ended at the last close: no later ledger can
		// include it, so it is refused before it reaches the pool.
		kp := f.accounts[2]
		source := ledger.AccountIDFromPublicKey(kp.Public)
		f.srv.Mu.Lock()
		seq := f.node.State().Account(source).SeqNum
		closeTime := f.node.LastHeader().CloseTime
		f.srv.Mu.Unlock()
		tx := &ledger.Transaction{
			Source: source, Fee: base, SeqNum: seq + 1,
			TimeBounds: &ledger.TimeBounds{MaxTime: closeTime},
			Operations: []ledger.Operation{{
				Body: &ledger.Payment{Destination: source, Amount: ledger.One},
			}},
		}
		tx.Sign(f.nid, kp)
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

// TestSubmitUsedSequenceIsBadSeq: an envelope that has applied already
// cannot apply again, so posting it again is 400 bad_seq, not a 202 for a
// transaction the next close would drop; so is one past a gap.
func TestSubmitUsedSequenceIsBadSeq(t *testing.T) {
	f := newIngressFixture(t, 0, 1)
	env := f.envelope(0, ledger.DefaultBaseFee, 1)
	if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: env}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first post: status %d, want 202", resp.StatusCode)
	}
	f.advance(3 * time.Second)
	for name, env := range map[string]string{"applied": env, "gapped": f.envelope(0, ledger.DefaultBaseFee, 2)} {
		resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: env})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rej.Error, "bad sequence number") {
			t.Fatalf("%s envelope: status %d %q, want 400 bad sequence number", name, resp.StatusCode, rej.Error)
		}
	}
	if got := f.node.PendingCount(); got != 0 {
		t.Fatalf("pool holds %d after the refusals", got)
	}
}

// TestSubmitSourceCap: an account holding its quota of pending
// transactions gets 429 + Retry-After for the next one, with no min_fee —
// no fee gets it in before one of its transactions applies — while another
// account is unaffected.
func TestSubmitSourceCap(t *testing.T) {
	f := newIngressFixture(t, 0, 2)
	base := ledger.DefaultBaseFee
	var fs FeeStatsResponse
	if code := f.get("/fee_stats", &fs); code != 200 || fs.PerSourceCap < 1 {
		t.Fatalf("fee_stats status %d, per_source_cap %d", code, fs.PerSourceCap)
	}
	quota := uint64(fs.PerSourceCap)
	for i := uint64(1); i <= quota; i++ {
		if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, base, i)}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
	}
	resp, rej, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(0, 10*base, quota+1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	checkRetryable(t, resp, rej)
	if rej.MinFee != "" {
		t.Fatalf("source_cap 429 carries min_fee %q; no fee can enter", rej.MinFee)
	}
	if resp, _, _ := f.submit(SubmitRequest{EnvelopeXDR: f.envelope(1, base, 1)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other account status %d", resp.StatusCode)
	}
}

// TestSubmitBodyCap: a body over the cap is refused as malformed before
// any of it is judged.
func TestSubmitBodyCap(t *testing.T) {
	f := newIngressFixture(t, 0, 1)
	body := `{"envelope_xdr":"` + f.envelope(0, ledger.DefaultBaseFee, 1) + strings.Repeat(" ", maxBodyBytes) + `"}`
	resp, err := http.Post(f.ts.URL+"/transactions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rej RejectBody
	json.NewDecoder(resp.Body).Decode(&rej)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rej.Error, "too large") {
		t.Fatalf("status %d, error %q; want 400, body too large", resp.StatusCode, rej.Error)
	}
	f.srv.Mu.Lock()
	n := f.node.PendingCount()
	f.srv.Mu.Unlock()
	if n != 0 {
		t.Fatalf("pool holds %d after an oversized body", n)
	}
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

// TestFeeStatsQuiescent checks the endpoint's shape on an unloaded node.
func TestFeeStatsQuiescent(t *testing.T) {
	f := newIngressFixture(t, 0, 0)
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
	f := newIngressFixture(t, 256, workers)
	masterID := ledger.AccountIDFromPublicKey(f.master.Public)
	clients := make([]*client, workers)
	for w, kp := range f.accounts {
		clients[w] = f.client(kp)
	}

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
				resp, _, _ := f.submit(envelopeBody(clients[w].sign(&ledger.Payment{Destination: masterID, Amount: ledger.One})))
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

// TestSubmitToLaggingNodeIsNotReady: a node that is catching up answers
// 503 + Retry-After to a valid payment from an account created on a ledger
// it has not applied yet — "not yet", not the permanent 400 that judging
// the signatures against its stale state would give — and accepts the same
// envelope once it has caught up.
func TestSubmitToLaggingNodeIsNotReady(t *testing.T) {
	net := simnet.New(1)
	net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 8*time.Millisecond))
	nid := stellarcrypto.HashBytes([]byte("ingress-lag"))
	kps := stellarcrypto.DeterministicKeyPairs("ingress-lag", 3)
	var ids []fba.NodeID
	for _, kp := range kps {
		ids = append(ids, fba.NodeIDFromPublicKey(kp.Public))
	}
	var nodes []*herder.Node
	var master stellarcrypto.KeyPair
	for _, kp := range kps {
		node, err := herder.New(net, herder.Config{
			Keys: kp, QSet: fba.Majority(ids...), NetworkID: nid, LedgerInterval: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var genesis *ledger.State
		genesis, master = herder.GenesisState(nid)
		node.Bootstrap(genesis, 0)
		nodes = append(nodes, node)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.Overlay().Connect(b.Addr())
			}
		}
		a.Start()
	}
	net.RunFor(3 * time.Second)

	// The lagging node is cut off while the other two create alice.
	lag, ahead := nodes[2], nodes[0]
	for _, n := range nodes[:2] {
		net.Partition(lag.Addr(), n.Addr())
	}
	masterID := ledger.AccountIDFromPublicKey(master.Public)
	aliceKP := stellarcrypto.KeyPairFromString("ingress-lag-alice")
	alice := ledger.AccountIDFromPublicKey(aliceKP.Public)
	create := &ledger.Transaction{
		Source: masterID, Fee: ledger.DefaultBaseFee, SeqNum: ahead.State().Account(masterID).SeqNum + 1,
		Operations: []ledger.Operation{{Body: &ledger.CreateAccount{Destination: alice, StartingBalance: 100 * ledger.One}}},
	}
	create.Sign(nid, master)
	if res := ahead.AdmitTx(create); res.Code != herder.AdmitAccepted {
		t.Fatalf("create alice: %+v", res)
	}
	for end := net.Now() + 30*time.Second; !ahead.State().HasAccount(alice) && net.Now() < end; {
		net.RunFor(time.Second)
	}
	if !ahead.State().HasAccount(alice) || lag.State().HasAccount(alice) {
		t.Fatalf("alice should exist on the connected nodes only: ahead at %d (%v), lag at %d (%v)", ahead.LastHeader().LedgerSeq, ahead.State().HasAccount(alice), lag.LastHeader().LedgerSeq, lag.State().HasAccount(alice))
	}

	// Healed, the lagging node hears a decision for a ledger past its next
	// one and knows it is behind.
	net.HealAll()
	for end := net.Now() + 10*time.Second; !lag.CatchingUp() && net.Now() < end; net.Step() {
	}
	if !lag.CatchingUp() || lag.State().HasAccount(alice) {
		t.Fatalf("lagging node: catching up %v, holds alice %v; want true, false", lag.CatchingUp(), lag.State().HasAccount(alice))
	}
	srv := New(lag, nid)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pay := &ledger.Transaction{
		Source: alice, Fee: ledger.DefaultBaseFee, SeqNum: ahead.State().Account(alice).SeqNum + 1,
		Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: masterID, Amount: ledger.One}}},
	}
	pay.Sign(nid, aliceKP)
	post := func() *http.Response {
		t.Helper()
		raw, _ := json.Marshal(envelopeBody(pay))
		resp, err := http.Post(ts.URL+"/transactions", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("lagging node: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	for end := net.Now() + 10*time.Second; lag.CatchingUp() && net.Now() < end; net.Step() {
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("caught-up node: status %d, want 202", resp.StatusCode)
	}
}
