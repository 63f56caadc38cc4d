package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/stellarcrypto"
)

// floodLoop is a loop hosting a bare overlay that counts the envelopes and
// transactions delivered to it; suppressed is its registry's
// overlay_dupes_suppressed_total.
func floodLoop() (loop *Loop, suppressed *obs.Counter, delivered *int) {
	loop = NewLoop()
	ov := overlay.New(loop, "self")
	reg := obs.NewRegistry()
	ov.SetObs(reg, nil)
	loop.AddNode("self", ov)
	delivered = new(int)
	ov.OnEnvelope = func(*scp.Envelope) bool { *delivered++; return false }
	ov.OnTx = func(*ledger.Transaction) bool { *delivered++; return false }
	return loop, reg.Counter("overlay_dupes_suppressed_total", ""), delivered
}

// signedEnvelopePayload is the packet payload of a signed envelope; its
// signature is the payload's last 64 bytes.
func signedEnvelopePayload(t testing.TB, seq uint64) []byte {
	t.Helper()
	kp := stellarcrypto.KeyPairFromString("flood-test-node")
	id := fba.NodeIDFromPublicKey(kp.Public)
	env := &scp.Envelope{Node: id, Slot: 9, Seq: seq, QSet: fba.Majority(id),
		Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{scp.Value("v")}}}
	env.Sign(kp.Secret.Sign)
	payload, err := EncodePacket(&overlay.Packet{Kind: overlay.KindEnvelope, Envelope: env, TTL: 4, Origin: "origin"})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDuplicateDroppedBeforeDecode: a flooded envelope or transaction the
// node has seen is dropped by one hash of its body, before DecodePacket —
// no allocation — and counted as a suppressed duplicate.
func TestDuplicateDroppedBeforeDecode(t *testing.T) {
	txPayload, err := EncodePacket(&overlay.Packet{Kind: overlay.KindTx, Tx: testTx(), TTL: 4, Origin: "origin"})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{signedEnvelopePayload(t, 1), txPayload} {
		loop, suppressed, delivered := floodLoop()
		if err := loop.Receive("peer", payload); err != nil || *delivered != 1 {
			t.Fatalf("a fresh frame: err %v, %d delivered; want it delivered", err, *delivered)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := loop.Receive("peer", payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a duplicate frame cost %v allocations: it was decoded", allocs)
		}
		if *delivered != 1 || suppressed.Value() != 101 {
			t.Fatalf("%d delivered, %v suppressed; want 1 and the 101 copies", *delivered, suppressed.Value())
		}
	}
}

// TestForgedCopyNeverSuppressesGenuine: a copy with one signature bit
// flipped and the genuine envelope have different keys, in either order of
// arrival.
func TestForgedCopyNeverSuppressesGenuine(t *testing.T) {
	genuine := signedEnvelopePayload(t, 1)
	forged := bytes.Clone(genuine)
	forged[len(forged)-1] ^= 1
	for _, order := range [][][]byte{{genuine, forged}, {forged, genuine}} {
		loop, suppressed, delivered := floodLoop()
		for _, payload := range order {
			if err := loop.Receive("peer", payload); err != nil {
				t.Fatal(err)
			}
		}
		if *delivered != 2 || suppressed.Value() != 0 {
			t.Fatalf("%d delivered, %v suppressed: one copy shadowed the other", *delivered, suppressed.Value())
		}
	}
}

// TestQueuedFramesLeaveInOneWrite: frames queued while the writer sleeps
// leave in one write, and the byte stream is their concatenation, in order.
func TestQueuedFramesLeaveInOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	p := newPeer("peer", client, true, queueSize)
	var want []byte
	for i := 0; i < 20; i++ {
		frame, err := AppendFrame(nil, FramePacket, signedEnvelopePayload(t, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
		p.enqueue(frame)
	}
	writes := make(chan int, 20)
	go p.writeLoop(func(n int) { writes <- n })

	got := make([]byte, len(want))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	p.close()
	if !bytes.Equal(got, want) {
		t.Fatal("the byte stream differs from the queued frames")
	}
	if n := <-writes; n != len(want) || len(writes) != 0 {
		t.Fatalf("first write carried %d of %d bytes (%d more writes): the queue did not leave in one write", n, len(want), len(writes))
	}
}
