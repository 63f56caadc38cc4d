package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

var testNetworkID = stellarcrypto.HashBytes([]byte("transport-test"))

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {0x42}, bytes.Repeat([]byte("frame"), 40_000)}
	for _, want := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FramePacket, want); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		appended, err := AppendFrame(nil, FramePacket, want)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), appended) {
			t.Fatalf("WriteFrame and AppendFrame disagree on the wire form")
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != FramePacket || !bytes.Equal(got, want) {
			t.Fatalf("round trip: typ=%v len=%d, want packet len=%d", typ, len(got), len(want))
		}
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	cases := map[string][]byte{
		"zero length":   {0, 0, 0, 0},
		"over limit":    {0xff, 0xff, 0xff, 0xff, 1},
		"truncated":     {0, 0, 0, 10, byte(FramePacket), 1, 2},
		"empty input":   {},
		"header only":   {0, 0, 0, 5},
		"oversize by 1": binary.BigEndian.AppendUint32(nil, MaxFramePayload+2),
	}
	for name, in := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: ReadFrame accepted hostile input", name)
		}
	}
}

// allocatedBy reports the bytes one call of f allocates: the least of a few
// calls, because the counter is the process's and goroutines left over from
// earlier tests allocate too.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestReadFrameAllocation pins both ends of ReadFrame's growth policy: a
// large honest frame costs little more than its own size (it used to cost
// almost five times that, re-grown at every 64 KiB step), and a length
// prefix with nothing behind it costs one small buffer.
func TestReadFrameAllocation(t *testing.T) {
	const size = 2 << 20
	frame, err := AppendFrame(nil, FramePacket, bytes.Repeat([]byte{0x5a}, size))
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	got := allocatedBy(func() { _, payload, err = ReadFrame(bytes.NewReader(frame)) })
	if err != nil || len(payload) != size {
		t.Fatalf("ReadFrame: %d bytes, err %v", len(payload), err)
	}
	if got > size*3/2 {
		t.Fatalf("reading a %d-byte frame allocated %d bytes, want at most 1.5x", size, got)
	}

	hostile := append(binary.BigEndian.AppendUint32(nil, MaxFramePayload+1), byte(FramePacket))
	hostile = append(hostile, bytes.Repeat([]byte{1}, 10)...)
	got = allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(hostile)) })
	if err == nil {
		t.Fatal("ReadFrame accepted a frame cut short")
	}
	if got > readChunk+1024 {
		t.Fatalf("an 8 MiB prefix backed by 10 bytes allocated %d bytes, want one %d-byte buffer", got, readChunk)
	}

	// Every size across the growth steps still reads back whole.
	for _, n := range []int{readChunk - 1, readChunk, readChunk + 1, readGrowth * readChunk, readGrowth*readChunk + 1, 3 << 20} {
		want := bytes.Repeat([]byte{byte(n)}, n)
		want[n-1] ^= 0xff
		frame, _ := AppendFrame(nil, FrameAuth, want)
		typ, got, err := ReadFrame(iotest.OneByteReader(bytes.NewReader(frame)))
		if err != nil || typ != FrameAuth || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte frame did not survive ReadFrame (err %v)", n, err)
		}
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	big := make([]byte, MaxFramePayload+1)
	if err := WriteFrame(io.Discard, FramePacket, big); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
	if _, err := AppendFrame(nil, FramePacket, big); err == nil {
		t.Fatal("AppendFrame accepted an oversized payload")
	}
}

// tcpPair returns two ends of a real loopback TCP connection. The
// symmetric handshake has both sides write their hello before reading, so
// it needs genuinely buffered sockets — net.Pipe deadlocks.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		dialed.Close()
		t.Fatalf("accept: %v", r.err)
	}
	return dialed, r.c
}

// runHandshakePair runs the symmetric handshake over a loopback TCP pair
// and returns each side's result.
func runHandshakePair(t *testing.T, aKeys, bKeys stellarcrypto.KeyPair, aNet, bNet stellarcrypto.Hash) (aID, bID simnet.Addr, aErr, bErr error) {
	t.Helper()
	ca, cb := tcpPair(t)
	defer ca.Close()
	defer cb.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		bID, bErr = handshake(cb, bKeys, bNet, time.Second)
	}()
	aID, aErr = handshake(ca, aKeys, aNet, time.Second)
	<-done
	return aID, bID, aErr, bErr
}

func TestHandshakeAuthenticates(t *testing.T) {
	a := stellarcrypto.KeyPairFromString("hs-a")
	b := stellarcrypto.KeyPairFromString("hs-b")
	aID, bID, aErr, bErr := runHandshakePair(t, a, b, testNetworkID, testNetworkID)
	if aErr != nil || bErr != nil {
		t.Fatalf("handshake failed: a=%v b=%v", aErr, bErr)
	}
	if aID != simnet.Addr(b.Public.Address()) {
		t.Fatalf("side A learned %s, want %s", aID, b.Public.Address())
	}
	if bID != simnet.Addr(a.Public.Address()) {
		t.Fatalf("side B learned %s, want %s", bID, a.Public.Address())
	}
}

func TestHandshakeRejectsWrongNetwork(t *testing.T) {
	a := stellarcrypto.KeyPairFromString("hs-a")
	b := stellarcrypto.KeyPairFromString("hs-b")
	other := stellarcrypto.HashBytes([]byte("some-other-network"))
	_, _, aErr, bErr := runHandshakePair(t, a, b, testNetworkID, other)
	if aErr == nil && bErr == nil {
		t.Fatal("handshake across different network ids succeeded")
	}
}

func TestHandshakeRejectsSelf(t *testing.T) {
	a := stellarcrypto.KeyPairFromString("hs-a")
	_, _, aErr, bErr := runHandshakePair(t, a, a, testNetworkID, testNetworkID)
	if aErr == nil && bErr == nil {
		t.Fatal("handshake with self succeeded")
	}
}

// TestHandshakeRejectsOlderProtocol: a v3 peer floods whole transaction
// sets and would wait for them in vain; it is turned away at the hello.
func TestHandshakeRejectsOlderProtocol(t *testing.T) {
	honest := stellarcrypto.KeyPairFromString("hs-honest")
	old := stellarcrypto.KeyPairFromString("hs-v3")
	ca, cb := tcpPair(t)
	defer ca.Close()
	defer cb.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := handshake(ca, honest, testNetworkID, time.Second)
		errc <- err
	}()
	hello := Hello{Version: 3, NetworkID: testNetworkID, PublicKey: old.Public}
	if err := WriteFrame(cb, FrameHello, hello.encode()); err != nil {
		t.Fatalf("v3 hello: %v", err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "protocol v3") {
		t.Fatalf("handshake with a v3 peer: err %v, want a protocol version refusal", err)
	}
}

// TestHandshakeRejectsBadSignature impersonates a validator: the rogue
// side claims victim's public key in its hello but can only sign with its
// own key. The honest side must refuse.
func TestHandshakeRejectsBadSignature(t *testing.T) {
	honest := stellarcrypto.KeyPairFromString("hs-honest")
	rogue := stellarcrypto.KeyPairFromString("hs-rogue")
	victim := stellarcrypto.KeyPairFromString("hs-victim")

	ca, cb := tcpPair(t)
	defer ca.Close()
	defer cb.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := handshake(ca, honest, testNetworkID, time.Second)
		errc <- err
	}()

	// Rogue speaks the protocol manually, claiming victim's identity.
	hello := Hello{Version: ProtocolVersion, NetworkID: testNetworkID, PublicKey: victim.Public}
	copy(hello.Challenge[:], bytes.Repeat([]byte{7}, 32))
	if err := WriteFrame(cb, FrameHello, hello.encode()); err != nil {
		t.Fatalf("rogue hello: %v", err)
	}
	if _, _, err := ReadFrame(cb); err != nil { // honest hello
		t.Fatalf("rogue read hello: %v", err)
	}
	typ, payload, err := ReadFrame(cb) // honest auth
	if err != nil || typ != FrameAuth {
		t.Fatalf("rogue read auth: typ=%v err=%v", typ, err)
	}
	_ = payload
	// Sign the right payload with the WRONG key (rogue doesn't have
	// victim's secret). The challenge value doesn't matter: any signature
	// rogue can produce fails verification against victim's public key.
	sig := rogue.Secret.Sign([]byte("forged"))
	if err := WriteFrame(cb, FrameAuth, encodeAuth(sig)); err != nil {
		t.Fatalf("rogue auth: %v", err)
	}

	if err := <-errc; err == nil {
		t.Fatal("honest side accepted a forged challenge signature")
	}
}

func TestPeerQueueShedsOldest(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	p := newPeer("peer", client, false, 3)
	defer p.close()

	shed := 0
	for i := 0; i < 5; i++ {
		shed += p.enqueue([]byte{byte(i)})
	}
	if shed != 2 {
		t.Fatalf("shed %d frames, want 2", shed)
	}
	// Oldest (0, 1) are gone; 2, 3, 4 remain in order.
	for _, want := range []byte{2, 3, 4} {
		frame, ok := p.next()
		if !ok || frame[0] != want {
			t.Fatalf("dequeued %v (ok=%v), want [%d]", frame, ok, want)
		}
	}
}

func testEnvelope() *scp.Envelope {
	b := scp.Ballot{Counter: 3, Value: scp.Value("ballot-value")}
	return &scp.Envelope{
		Node: "GNODE",
		Slot: 42,
		Seq:  7,
		QSet: fba.Majority("GNODE", "GOTHER", "GTHIRD"),
		Statement: scp.Statement{
			Type:      scp.StmtPrepare,
			Ballot:    b,
			Prepared:  &b,
			NPrepared: 2,
			NC:        1,
			NH:        3,
		},
		Signature: []byte("not-a-real-signature"),
	}
}

func testTx(t *testing.T) *ledger.Transaction {
	t.Helper()
	kp := stellarcrypto.KeyPairFromString("transport-tx-key")
	src := ledger.AccountIDFromPublicKey(kp.Public)
	other := ledger.AccountIDFromPublicKey(stellarcrypto.KeyPairFromString("transport-tx-other").Public)
	tx := &ledger.Transaction{
		Source: src,
		Fee:    100,
		SeqNum: 7,
		Operations: []ledger.Operation{
			{Body: &ledger.Payment{Destination: other, Asset: ledger.NativeAsset(), Amount: 5}},
		},
	}
	tx.Sign(testNetworkID, kp)
	return tx
}

// fieldsOnly returns a copy of p whose transactions and sets are rebuilt
// from their exported fields: a decoded transaction also carries the bytes
// it came from (ledger/seal.go), which a hand-built one does not, and
// round trips are judged on content.
func fieldsOnly(p *overlay.Packet) *overlay.Packet {
	plainTx := func(tx *ledger.Transaction) *ledger.Transaction {
		return &ledger.Transaction{Source: tx.Source, Fee: tx.Fee, SeqNum: tx.SeqNum,
			TimeBounds: tx.TimeBounds, Memo: tx.Memo, Operations: tx.Operations, Signatures: tx.Signatures}
	}
	plainSet := func(ts *ledger.TxSet) *ledger.TxSet {
		out := &ledger.TxSet{PrevLedgerHash: ts.PrevLedgerHash}
		for _, tx := range ts.Txs {
			out.Txs = append(out.Txs, plainTx(tx))
		}
		return out
	}
	c := *p
	if c.Tx != nil {
		c.Tx = plainTx(c.Tx)
	}
	if c.TxSet != nil {
		c.TxSet = plainSet(c.TxSet)
	}
	if r := c.TxSetRef; r != nil {
		c.TxSetRef = &ledger.TxSetRef{PrevLedgerHash: r.PrevLedgerHash, TxHashes: r.TxHashes, EnvelopeDigest: r.EnvelopeDigest}
	}
	c.CatchupItems = nil
	for _, it := range p.CatchupItems {
		it.TxSet = plainSet(it.TxSet)
		c.CatchupItems = append(c.CatchupItems, it)
	}
	return &c
}

func TestPacketRoundTrip(t *testing.T) {
	tx := testTx(t)
	ts := &ledger.TxSet{PrevLedgerHash: stellarcrypto.HashBytes([]byte("prev")), Txs: []*ledger.Transaction{tx}}
	packets := []*overlay.Packet{
		{Kind: overlay.KindEnvelope, Envelope: testEnvelope(), TTL: 5, Origin: "GORIGIN"},
		{Kind: overlay.KindTx, Tx: tx, TTL: overlay.DefaultTTL, Origin: "GORIGIN"},
		{Kind: overlay.KindTxSet, TxSet: ts, TTL: 0, Origin: "GORIGIN"},
		{Kind: overlay.KindTxSetRef, TxSetRef: ts.Ref(testNetworkID), TTL: overlay.DefaultTTL, Origin: "GORIGIN"},
		{Kind: overlay.KindTxSetRef, TxSetRef: (&ledger.TxSet{}).Ref(testNetworkID), TTL: 1, Origin: "GORIGIN"}, // an empty proposal
		{Kind: overlay.KindTxSetReq, TxSetHash: ts.Hash(testNetworkID), TTL: 0, Origin: "GORIGIN"},
		{Kind: overlay.KindCatchupReq, CatchupFrom: 17, TTL: 0, Origin: "GORIGIN"},
		{Kind: overlay.KindCatchupResp, TTL: 0, Origin: "GORIGIN",
			CatchupItems: []overlay.CatchupItem{{Header: &ledger.Header{LedgerSeq: 9, CloseTime: 90, MaxTxSetSize: 1000}, TxSet: ts}}},
		{Kind: overlay.KindCatchupResp, TTL: 0, Origin: "GORIGIN", // two empty ledgers: the smallest items
			CatchupItems: []overlay.CatchupItem{
				{Header: &ledger.Header{LedgerSeq: 10}, TxSet: &ledger.TxSet{PrevLedgerHash: ts.PrevLedgerHash}},
				{Header: &ledger.Header{LedgerSeq: 11}, TxSet: &ledger.TxSet{}},
			}},
		{Kind: overlay.KindArchiveReq, TTL: 0, Origin: "GORIGIN"}, // discovery: empty path
		{Kind: overlay.KindArchiveReq, TTL: 0, Origin: "GORIGIN",
			ArchivePath: "buckets/ab/cdef.bucket", ArchiveOff: 131072},
		{Kind: overlay.KindArchiveResp, TTL: 0, Origin: "GORIGIN",
			ArchiveData: []byte{}, ArchiveSeq: 16, ArchiveTip: 19}, // discovery answer
		{Kind: overlay.KindArchiveResp, TTL: 0, Origin: "GORIGIN",
			ArchivePath: "headers/00000010.xdr", ArchiveOff: 0, ArchiveTotal: 9,
			ArchiveData: []byte("chunkdata"),
			ArchiveSum:  stellarcrypto.HashBytes([]byte("chunkdata")),
			ArchiveSeq:  16, ArchiveTip: 19},
		{Kind: overlay.KindArchiveResp, TTL: 0, Origin: "GORIGIN",
			ArchivePath: "headers/99999999.xdr", ArchiveData: []byte{}, ArchiveErr: "no such file"},
	}
	for _, want := range packets {
		payload, err := EncodePacket(want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		got, err := DecodePacket(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(fieldsOnly(got), fieldsOnly(want)) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Kind, got, want)
		}
		// What was decoded goes out again from the bytes it kept: the same.
		if again, err := EncodePacket(got); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%v: re-encoding the decoded packet changed it (err %v)", want.Kind, err)
		}
	}
}

func TestDecodePacketRejectsHostile(t *testing.T) {
	base, err := EncodePacket(&overlay.Packet{Kind: overlay.KindCatchupReq, CatchupFrom: 1, TTL: 2, Origin: "G"})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"unknown kind":   binary.BigEndian.AppendUint32(nil, 999),
		"trailing bytes": append(append([]byte{}, base...), 0xde, 0xad),
	}
	// Excessive TTL.
	ttl := make([]byte, 8)
	binary.BigEndian.PutUint32(ttl[:4], uint32(overlay.KindEnvelope))
	binary.BigEndian.PutUint32(ttl[4:], overlay.DefaultTTL+1)
	cases["excessive ttl"] = ttl
	// Catch-up item count far beyond the input.
	huge := binary.BigEndian.AppendUint32(nil, uint32(overlay.KindCatchupResp))
	huge = binary.BigEndian.AppendUint32(huge, 0)         // ttl
	huge = binary.BigEndian.AppendUint32(huge, 0)         // origin ""
	huge = binary.BigEndian.AppendUint32(huge, 1_000_000) // item count
	cases["catchup count"] = huge
	// Archive request whose path exceeds maxArchivePath.
	longPath := xdr.NewEncoder(512)
	longPath.PutUint32(uint32(overlay.KindArchiveReq))
	longPath.PutUint32(0)  // ttl
	longPath.PutString("") // origin
	longPath.PutUint64(0)  // trace
	longPath.PutUint64(0)  // parent
	longPath.PutString(string(bytes.Repeat([]byte{'a'}, maxArchivePath+1)))
	longPath.PutInt64(0) // offset
	cases["archive path"] = append([]byte{}, longPath.Bytes()...)
	// Archive response carrying a chunk beyond maxArchiveChunk.
	bigChunk := xdr.NewEncoder(512)
	bigChunk.PutUint32(uint32(overlay.KindArchiveResp))
	bigChunk.PutUint32(0)  // ttl
	bigChunk.PutString("") // origin
	bigChunk.PutUint64(0)  // trace
	bigChunk.PutUint64(0)  // parent
	bigChunk.PutString("buckets/x")
	bigChunk.PutInt64(0) // offset
	bigChunk.PutInt64(0) // total
	bigChunk.PutBytes(make([]byte, maxArchiveChunk+1))
	cases["archive chunk"] = append([]byte{}, bigChunk.Bytes()...)

	// Tx-set references: a count beyond any set, a count the input does not
	// back, a transaction listed twice, and a request cut short.
	refWith := func(count uint32, hashes ...stellarcrypto.Hash) []byte {
		e := xdr.NewEncoder(512)
		e.PutUint32(uint32(overlay.KindTxSetRef))
		e.PutUint32(1)               // ttl
		e.PutString("")              // origin
		e.PutUint64(0)               // trace
		e.PutUint64(0)               // parent
		e.PutFixed(make([]byte, 32)) // previous ledger hash
		e.PutUint32(count)
		for _, h := range hashes {
			e.PutFixed(h[:])
		}
		e.PutFixed(make([]byte, 32)) // envelope digest
		return bytes.Clone(e.Bytes())
	}
	h1, h2 := stellarcrypto.HashBytes([]byte("1")), stellarcrypto.HashBytes([]byte("2"))
	if _, err := DecodePacket(refWith(2, h1, h2)); err != nil {
		t.Fatalf("well-formed reference rejected: %v", err)
	}
	cases["ref count over cap"] = refWith(1<<16 + 1)
	cases["ref count beyond input"] = refWith(1000, h1, h2)
	cases["ref count short of input"] = refWith(1, h1, h2)
	cases["ref lists a hash twice"] = refWith(3, h1, h2, h1)
	req, err := EncodePacket(&overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: h1})
	if err != nil {
		t.Fatal(err)
	}
	cases["req cut short"] = req[:len(req)-1]
	cases["req trailing bytes"] = append(bytes.Clone(req), 0, 0, 0, 0)

	for name, in := range cases {
		if _, err := DecodePacket(in); err == nil {
			t.Errorf("%s: DecodePacket accepted hostile input", name)
		}
	}
}

// newTestManager wires a manager with no herder node behind it, capturing
// delivered packets via the loop handler.
type captureHandler struct {
	got chan *overlay.Packet
}

func (c *captureHandler) HandleMessage(from simnet.Addr, msg any, size int) {
	if p, ok := msg.(*overlay.Packet); ok {
		c.got <- p
	}
}

func newTestManager(t *testing.T, label string, peers []string) (*Manager, *Loop, *captureHandler) {
	t.Helper()
	keys := stellarcrypto.KeyPairFromString(label)
	loop := NewLoop()
	h := &captureHandler{got: make(chan *overlay.Packet, 64)}
	loop.AddNode(simnet.Addr(keys.Public.Address()), h)
	m, err := NewManager(loop, Config{
		ListenAddr:  "127.0.0.1:0",
		Peers:       peers,
		Keys:        keys,
		NetworkID:   testNetworkID,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatalf("NewManager(%s): %v", label, err)
	}
	t.Cleanup(m.Close)
	return m, loop, h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestManagerConnectSendReconnect(t *testing.T) {
	ma, _, ha := newTestManager(t, "mgr-a", nil)
	mb, loopB, _ := newTestManager(t, "mgr-b", []string{ma.Addr()})

	waitFor(t, "peers up", func() bool { return ma.NumPeers() == 1 && mb.NumPeers() == 1 })

	// B sends a packet to A through the loop Send path; it must arrive at
	// A's handler with B's identity as the sender.
	pkt := &overlay.Packet{Kind: overlay.KindCatchupReq, CatchupFrom: 5, TTL: 0, Origin: mb.Self()}
	loopB.Run(func() { loopB.Send(mb.Self(), ma.Self(), pkt, 0) })
	select {
	case got := <-ha.got:
		if got.Kind != overlay.KindCatchupReq || got.CatchupFrom != 5 {
			t.Fatalf("delivered %+v, want the catch-up request", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("packet never delivered")
	}

	// Sever the connection server-side; B's dial loop must notice and
	// re-establish within its backoff schedule. The transient "zero peers"
	// state is not waited on — B can re-dial inside one poll — only things
	// that stay true once they happen: B's reconnect counter, and A
	// holding a connection that is not the severed one.
	severed := ma.peerByID(mb.Self())
	severed.conn.Close()
	waitFor(t, "reconnect", func() bool {
		cur := ma.peerByID(mb.Self())
		return mb.ins.reconnects.With(string(ma.Self())).Value() >= 1 &&
			cur != nil && cur != severed && mb.NumPeers() == 1
	})
}

// TestRouteEncodesFloodedPacketOnce floods one packet to k peers the way
// the overlay does (consecutive Sends of the same *Packet) and checks that
// every queue holds the very same frame — one encode, not k — and that a
// queued frame is never written to by later sends.
func TestRouteEncodesFloodedPacketOnce(t *testing.T) {
	m, loop, _ := newTestManager(t, "memo", nil)
	// Peers with no writer goroutine, so frames stay queued for inspection.
	peers := make([]*peer, 4)
	for i := range peers {
		local, remote := net.Pipe()
		t.Cleanup(func() { local.Close(); remote.Close() })
		id := simnet.Addr("memo-peer-" + string(rune('a'+i)))
		peers[i] = newPeer(id, local, false, 8)
		peers[i].ins = m.ins.forPeer(id)
		m.mu.Lock()
		m.peers[id] = peers[i]
		m.mu.Unlock()
	}
	flood := func(pkt *overlay.Packet) {
		loop.Run(func() {
			for _, p := range peers {
				loop.Send(m.Self(), p.id, pkt, 0)
			}
		})
	}

	ref := &ledger.TxSetRef{TxHashes: make([]stellarcrypto.Hash, 1000)}
	for i := range ref.TxHashes {
		ref.TxHashes[i] = stellarcrypto.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	first := &overlay.Packet{Kind: overlay.KindTxSetRef, TxSetRef: ref, TTL: overlay.DefaultTTL, Origin: m.Self()}
	flood(first)
	frame := peers[0].queue[0]
	want := append([]byte(nil), frame...)
	for i, p := range peers {
		if len(p.queue) != 1 || &p.queue[0][0] != &frame[0] {
			t.Fatalf("peer %d does not share the one encoded frame", i)
		}
	}

	// A different packet — even an equal copy — is encoded afresh, and the
	// frames already queued keep their bytes.
	second := *first
	second.TTL--
	flood(&second)
	flood(&overlay.Packet{Kind: overlay.KindEnvelope, Envelope: testEnvelope(), TTL: 1, Origin: m.Self()})
	for i, p := range peers {
		if len(p.queue) != 3 {
			t.Fatalf("peer %d queued %d frames, want 3", i, len(p.queue))
		}
		if &p.queue[1][0] == &frame[0] {
			t.Fatalf("peer %d: a different packet reused the memoized frame", i)
		}
		if !bytes.Equal(p.queue[0], want) {
			t.Fatalf("peer %d: queued frame was mutated by later sends", i)
		}
	}
	typ, payload, err := ReadFrame(bytes.NewReader(peers[3].queue[0]))
	if err != nil || typ != FramePacket {
		t.Fatalf("queued frame does not parse: type %v, err %v", typ, err)
	}
	if got, err := DecodePacket(payload); err != nil || !reflect.DeepEqual(fieldsOnly(got), fieldsOnly(first)) {
		t.Fatalf("queued frame decodes to %+v (err %v), want the flooded packet", got, err)
	}

	// The frame is encoded straight into the buffer that is queued: the
	// encoder and its one buffer, of about the frame's size, per flooded
	// packet whatever the kind — not an encoder's buffer, a payload copy
	// and a frame copy.
	for _, pkt := range []*overlay.Packet{
		first,
		{Kind: overlay.KindTx, Tx: testTx(t), TTL: overlay.DefaultTTL, Origin: m.Self()},
	} {
		size := 0
		capture := NewLoop()
		capture.send = func(_, _ simnet.Addr, _ any, n int) { size = n }
		overlay.New(capture, m.Self(), testNetworkID, 0).SendDirect("x", pkt)
		var frame []byte
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			m.memoPkt = nil
			frame, err = m.frameFor(pkt, size)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 2 || cap(frame) > len(frame)+2*frameSlack {
			t.Fatalf("%v: %v allocations and a %d-byte buffer for a %d-byte frame, want the encoder and one buffer of about its size",
				pkt.Kind, allocs, cap(frame), len(frame))
		}
	}
}

// TestManagerDuplicateConnections has both sides dial each other; the
// tie-break must converge on exactly one authenticated connection per
// side, and traffic must still flow.
func TestManagerDuplicateConnections(t *testing.T) {
	// Both managers listen; configure each to dial the other after both
	// listeners are bound, using a fixed pair of ports chosen by the OS.
	keysA := stellarcrypto.KeyPairFromString("dup-a")
	keysB := stellarcrypto.KeyPairFromString("dup-b")
	loopA, loopB := NewLoop(), NewLoop()
	ha := &captureHandler{got: make(chan *overlay.Packet, 64)}
	hb := &captureHandler{got: make(chan *overlay.Packet, 64)}
	loopA.AddNode(simnet.Addr(keysA.Public.Address()), ha)
	loopB.AddNode(simnet.Addr(keysB.Public.Address()), hb)

	ma, err := NewManager(loopA, Config{
		ListenAddr: "127.0.0.1:0", Keys: keysA, NetworkID: testNetworkID,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond, Obs: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ma.Close)
	mb, err := NewManager(loopB, Config{
		ListenAddr: "127.0.0.1:0", Peers: []string{ma.Addr()}, Keys: keysB, NetworkID: testNetworkID,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond, Obs: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mb.Close)
	// A also dials B, creating crossing connections.
	ma.wg.Add(1)
	go ma.dialLoop(mb.Addr())

	waitFor(t, "exactly one peer each", func() bool { return ma.NumPeers() == 1 && mb.NumPeers() == 1 })

	// Give any losing duplicate time to be torn down, then confirm
	// traffic flows in both directions over whatever connection won.
	time.Sleep(100 * time.Millisecond)
	pkt := &overlay.Packet{Kind: overlay.KindCatchupReq, CatchupFrom: 9, TTL: 0, Origin: ma.Self()}
	loopA.Run(func() { loopA.Send(ma.Self(), mb.Self(), pkt, 0) })
	loopB.Run(func() { loopB.Send(mb.Self(), ma.Self(), pkt, 0) })
	for _, ch := range []*captureHandler{ha, hb} {
		select {
		case <-ch.got:
		case <-time.After(10 * time.Second):
			t.Fatal("packet lost after duplicate-connection resolution")
		}
	}
	if ma.NumPeers() != 1 || mb.NumPeers() != 1 {
		t.Fatalf("peers after settle: a=%d b=%d, want 1 and 1", ma.NumPeers(), mb.NumPeers())
	}
}

func TestManagerRejectsWrongNetworkPeer(t *testing.T) {
	ma, _, _ := newTestManager(t, "mgr-a", nil)

	keys := stellarcrypto.KeyPairFromString("mgr-rogue")
	loop := NewLoop()
	loop.AddNode(simnet.Addr(keys.Public.Address()), &captureHandler{got: make(chan *overlay.Packet, 1)})
	rogue, err := NewManager(loop, Config{
		Peers: []string{ma.Addr()}, Keys: keys,
		NetworkID:   stellarcrypto.HashBytes([]byte("wrong-network")),
		BackoffBase: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond, Obs: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Close)

	waitFor(t, "handshake failures", func() bool { return ma.ins.handshakeFailures.Value() >= 1 })
	if n := ma.NumPeers(); n != 0 {
		t.Fatalf("wrong-network peer registered: NumPeers=%d", n)
	}
}
