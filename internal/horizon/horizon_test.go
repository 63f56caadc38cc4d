package horizon

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// fixture: a single-validator network (self-quorum) with a horizon server.
type fixture struct {
	t      *testing.T
	net    *simnet.Network
	node   *herder.Node
	srv    *Server
	ts     *httptest.Server
	nid    stellarcrypto.Hash
	master stellarcrypto.KeyPair
}

func newFixture(t *testing.T) *fixture {
	return newArchivedFixture(t, nil)
}

// newArchivedFixture is newFixture with the validator writing its closed
// ledgers to arch (nil: no archive).
func newArchivedFixture(t *testing.T, arch *history.Archive) *fixture {
	t.Helper()
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("horizon-test"))
	kp := stellarcrypto.KeyPairFromString("horizon-validator")
	self := fba.NodeIDFromPublicKey(kp.Public)
	node, err := herder.New(net, herder.Config{
		Keys:           kp,
		QSet:           fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{self}},
		NetworkID:      nid,
		LedgerInterval: time.Second,
		Archive:        arch,
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
	return &fixture{t: t, net: net, node: node, srv: srv, ts: ts, nid: nid, master: master}
}

// advance runs virtual time under the server lock (as the production
// driver goroutine would).
func (f *fixture) advance(d time.Duration) {
	f.srv.Mu.Lock()
	f.net.RunFor(d)
	f.srv.Mu.Unlock()
}

func (f *fixture) get(path string, out any) int {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			f.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (f *fixture) post(path string, body any, out any) int {
	f.t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// client signs envelopes for one account as a wallet does: it reads the
// account's sequence number from GET /accounts/{id} once and counts up
// locally from there.
type client struct {
	f   *fixture
	kp  stellarcrypto.KeyPair
	id  ledger.AccountID
	seq uint64
}

func (f *fixture) client(kp stellarcrypto.KeyPair) *client {
	f.t.Helper()
	c := &client{f: f, kp: kp, id: ledger.AccountIDFromPublicKey(kp.Public)}
	var info AccountInfo
	if code := f.get("/accounts/"+string(c.id), &info); code != http.StatusOK {
		f.t.Fatalf("GET /accounts/%s: status %d", c.id, code)
	}
	c.seq = info.SeqNum
	return c
}

// sign builds and signs the client's next transaction, paying the base
// fee per operation.
func (c *client) sign(ops ...ledger.OpBody) *ledger.Transaction {
	c.seq++
	tx := &ledger.Transaction{Source: c.id, Fee: ledger.DefaultBaseFee * ledger.Amount(len(ops)), SeqNum: c.seq}
	for _, op := range ops {
		tx.Operations = append(tx.Operations, ledger.Operation{Body: op})
	}
	tx.Sign(c.f.nid, c.kp)
	return tx
}

// submit posts the client's next transaction and returns the status.
func (c *client) submit(ops ...ledger.OpBody) int {
	c.f.t.Helper()
	return c.f.post("/transactions", envelopeBody(c.sign(ops...)), nil)
}

// envelopeBody is the submission body for a signed transaction.
func envelopeBody(tx *ledger.Transaction) SubmitRequest {
	return SubmitRequest{EnvelopeXDR: hex.EncodeToString(tx.MarshalSignedXDR())}
}

func TestLatestLedgerEndpoint(t *testing.T) {
	f := newFixture(t)
	var info LedgerInfo
	if code := f.get("/ledgers/latest", &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if info.Sequence < 2 {
		t.Fatalf("sequence = %d", info.Sequence)
	}
	if len(info.Hash) != 64 {
		t.Fatalf("hash = %q", info.Hash)
	}
}

// TestLatestLedgerRenderedOncePerClose: the latest-ledger body is rendered
// once per header and served as those bytes, which are exactly what
// encoding the header's LedgerInfo on every request gives; after a close it
// names the new tip.
func TestLatestLedgerRenderedOncePerClose(t *testing.T) {
	f := newFixture(t)
	fetch := func() []byte {
		t.Helper()
		resp, err := http.Get(f.ts.URL + "/ledgers/latest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q, %v", resp.StatusCode, resp.Header.Get("Content-Type"), err)
		}
		return body
	}
	perRequest := func(h *ledger.Header) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		_ = enc.Encode(LedgerInfo{
			Sequence:     h.LedgerSeq,
			Hash:         h.Hash().Hex(),
			PrevHash:     h.PrevHash().Hex(),
			CloseTime:    h.CloseTime,
			TxSetHash:    h.TxSetHash.Hex(),
			SnapshotHash: h.SnapshotHash.Hex(),
			BaseFee:      ledger.FormatAmount(h.BaseFee),
			BaseReserve:  ledger.FormatAmount(h.BaseReserve),
		})
		return b.Bytes()
	}
	for round := 0; round < 2; round++ {
		tip := f.node.LastHeader()
		first := fetch()
		if want := perRequest(tip); !bytes.Equal(first, want) {
			t.Fatalf("ledger %d body:\n%s\nwant, as rendered per request:\n%s", tip.LedgerSeq, first, want)
		}
		if again := fetch(); !bytes.Equal(again, first) {
			t.Fatalf("ledger %d: a second request got other bytes", tip.LedgerSeq)
		}
		f.advance(2 * time.Second)
		if f.node.LastHeader() == tip {
			t.Fatal("setup: no ledger closed")
		}
	}
}

func TestAccountEndpoint(t *testing.T) {
	f := newFixture(t)
	master := ledger.AccountIDFromPublicKey(f.master.Public)
	var info AccountInfo
	if code := f.get("/accounts/"+string(master), &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if info.ID != string(master) {
		t.Fatalf("id = %s", info.ID)
	}
	if code := f.get("/accounts/GBOGUS", nil); code != 404 {
		t.Fatalf("missing account status %d", code)
	}
}

func TestSubmitAndQueryFlow(t *testing.T) {
	f := newFixture(t)
	aliceKP := stellarcrypto.KeyPairFromString("hz-alice")
	alice := ledger.AccountIDFromPublicKey(aliceKP.Public)
	if code := f.client(f.master).submit(&ledger.CreateAccount{Destination: alice, StartingBalance: 1000 * ledger.One}); code != http.StatusAccepted {
		t.Fatalf("create alice: status %d", code)
	}
	f.advance(3 * time.Second)

	// Now alice, signing for herself, creates bob.
	bobKP := stellarcrypto.KeyPairFromString("hz-bob")
	bob := ledger.AccountIDFromPublicKey(bobKP.Public)
	var submitResp map[string]string
	code := f.post("/transactions", envelopeBody(f.client(aliceKP).sign(
		&ledger.CreateAccount{Destination: bob, StartingBalance: 50 * ledger.One})), &submitResp)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, submitResp)
	}
	f.advance(3 * time.Second)

	var bobInfo AccountInfo
	if code := f.get("/accounts/"+string(bob), &bobInfo); code != 200 {
		t.Fatalf("bob not created (status %d)", code)
	}
	if bobInfo.Balance != "50.0000000" {
		t.Fatalf("bob balance = %s", bobInfo.Balance)
	}
}

func TestOrderBookAndPathsEndpoints(t *testing.T) {
	f := newFixture(t)
	master := f.client(f.master)
	mmKP := stellarcrypto.KeyPairFromString("hz-mm")
	mmID := ledger.AccountIDFromPublicKey(mmKP.Public)
	usdAsset := ledger.MustAsset("USD", master.id)
	usd := "USD:" + string(master.id)

	// An envelope from an account that does not exist is refused.
	ghost := &client{f: f, kp: mmKP, id: mmID}
	if code := f.post("/transactions", envelopeBody(ghost.sign(&ledger.Payment{Destination: master.id, Amount: ledger.One})), nil); code != http.StatusBadRequest {
		t.Fatalf("envelope from a missing account: status %d, want 400", code)
	}

	// Set up: mm trusts USD:master, master issues to mm, and mm makes a
	// market USD→XLM.
	submit := func(name string, c *client, op ledger.OpBody) {
		t.Helper()
		if code := c.submit(op); code != http.StatusAccepted {
			t.Fatalf("%s: status %d", name, code)
		}
		f.advance(3 * time.Second)
	}
	submit("create mm", master, &ledger.CreateAccount{Destination: mmID, StartingBalance: 10000 * ledger.One})
	mm := f.client(mmKP)
	submit("change_trust", mm, &ledger.ChangeTrust{Asset: usdAsset, Limit: 100000 * ledger.One})
	submit("issue", master, &ledger.Payment{Destination: mmID, Asset: usdAsset, Amount: 5000 * ledger.One})
	submit("manage_offer", mm, &ledger.ManageOffer{
		Selling: usdAsset, Buying: ledger.NativeAsset(), Amount: 1000 * ledger.One,
		Price: ledger.Price{N: 2, D: 1}, // 2 XLM per USD
	})

	var book struct {
		Offers []OfferInfo `json:"offers"`
	}
	if code := f.get("/order_book?selling="+usd+"&buying=native", &book); code != 200 {
		t.Fatalf("order_book status %d", code)
	}
	if len(book.Offers) != 1 {
		t.Fatalf("order book has %d offers", len(book.Offers))
	}

	var paths struct {
		Paths []PathResult `json:"paths"`
	}
	if code := f.get("/paths?destination_asset="+usd+"&destination_amount=10", &paths); code != 200 {
		t.Fatalf("paths status %d", code)
	}
	found := false
	for _, p := range paths.Paths {
		if p.SourceAsset == "XLM" && p.SourceCost == "20.0000000" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected XLM→USD path costing 20 XLM, got %+v", paths.Paths)
	}
}

// TestMetricsEndpoint: the ledger count the JSON summary used to report is
// on GET /metrics, one sample per close, and the JSON route is gone.
func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	fams := parsePrometheus(t, resp.Body)
	closed := float64(f.node.LastHeader().LedgerSeq - 1) // genesis is not a close
	if closed < 1 {
		t.Fatal("fixture closed no ledgers")
	}
	for _, s := range []struct{ fam, key string }{
		{"herder_ledgers_closed_total", "herder_ledgers_closed_total"},
		{"herder_close_interval_seconds", "herder_close_interval_seconds_count"},
		{"herder_tx_per_ledger", "herder_tx_per_ledger_count"},
	} {
		if fams[s.fam] == nil {
			t.Fatalf("missing family %q", s.fam)
		}
		if v := fams[s.fam].samples[s.key]; v != closed {
			t.Fatalf("%s = %v, want %v ledgers closed", s.key, v, closed)
		}
	}
	if code := f.get("/metrics.json", nil); code != http.StatusNotFound {
		t.Fatalf("GET /metrics.json status %d, want 404", code)
	}
}

// TestHistoryEndpoints: a node with an archive serves its closed ledgers'
// transactions from it, the newest included, which no checkpoint covers yet
// at the default cadence of one every 64 ledgers.
func TestHistoryEndpoints(t *testing.T) {
	arch, err := history.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := newArchivedFixture(t, arch)
	tx := f.client(f.master).sign(&ledger.ManageData{Name: "k", Value: []byte("v")})
	txHash := tx.Hash(f.nid).Hex()
	if code := f.post("/transactions", envelopeBody(tx), nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	f.advance(3 * time.Second)
	if cp, err := arch.LatestCheckpoint(); err == nil {
		t.Fatalf("archive holds checkpoint %d; the lookups must not need one", cp.LedgerSeq)
	}

	var ti TxInfo
	if code := f.get("/transactions/"+txHash, &ti); code != 200 {
		t.Fatalf("tx lookup status %d", code)
	}
	if ti.Hash != txHash || ti.Ledger < 2 || len(ti.Operations) != 1 || ti.Operations[0].Type != "ManageData" {
		t.Fatalf("tx info = %+v", ti)
	}
	var txs struct {
		Transactions []TxInfo `json:"transactions"`
	}
	if code := f.get(fmt.Sprintf("/ledgers/%d/transactions", ti.Ledger), &txs); code != 200 {
		t.Fatalf("ledger txs lookup status %d", code)
	}
	if len(txs.Transactions) != 1 || txs.Transactions[0].Hash != txHash {
		t.Fatalf("ledger txs = %+v", txs)
	}
	var li LedgerInfo
	if code := f.get(fmt.Sprintf("/ledgers/%d", ti.Ledger), &li); code != 200 {
		t.Fatalf("ledger lookup status %d", code)
	}
	if want, _ := f.node.HeaderHash(ti.Ledger); li.Sequence != ti.Ledger || li.Hash != want.Hex() {
		t.Fatalf("ledger lookup = %+v, want hash %s", li, want.Hex())
	}
	// The lookups read the archive outside the lock, while closes write it.
	closing := make(chan struct{})
	go func() {
		defer close(closing)
		f.advance(3 * time.Second)
	}()
	for i := 0; i < 10; i++ {
		if code := f.get("/transactions/"+txHash, nil); code != 200 {
			t.Fatalf("tx lookup during closes: status %d", code)
		}
	}
	<-closing
	for path, want := range map[string]int{
		"/transactions/deadbeef":       http.StatusNotFound,
		"/ledgers/999999":              http.StatusNotFound,
		"/ledgers/999999/transactions": http.StatusNotFound,
		"/ledgers/x/transactions":      http.StatusBadRequest,
	} {
		if code := f.get(path, nil); code != want {
			t.Fatalf("GET %s status %d, want %d", path, code, want)
		}
	}
}

func TestHistoryEndpointsNoArchive(t *testing.T) {
	f := newFixture(t)
	// Without an archive the node still serves the hashes of headers it
	// chained itself (the cluster smoke test's divergence check relies on this).
	var lite struct {
		Sequence uint32 `json:"sequence"`
		Hash     string `json:"hash"`
	}
	if code := f.get("/ledgers/2", &lite); code != http.StatusOK {
		t.Fatalf("status %d for live header without archive", code)
	}
	want, ok := f.node.HeaderHash(2)
	if !ok || lite.Hash != want.Hex() {
		t.Fatalf("live header hash = %q, want %q", lite.Hash, want.Hex())
	}
	if code := f.get("/ledgers/999999", nil); code != http.StatusNotFound {
		t.Fatalf("status %d for unknown ledger", code)
	}
	for _, path := range []string{"/transactions/abcd", "/ledgers/2/transactions"} {
		if code := f.get(path, nil); code != http.StatusNotImplemented {
			t.Fatalf("GET %s status %d without archive", path, code)
		}
	}
}
