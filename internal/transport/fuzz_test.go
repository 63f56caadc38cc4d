package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/stellarcrypto"
)

// frameSeeds returns wire inputs covering each frame type, hostile
// length prefixes, and truncations; they seed the fuzzer and double as
// the checked-in corpus (testdata/fuzz/FuzzFrameDecode).
func frameSeeds() [][]byte {
	hello := Hello{Version: ProtocolVersion, NetworkID: testNetworkID}
	var seeds [][]byte
	add := func(typ FrameType, payload []byte) {
		frame, err := AppendFrame(nil, typ, payload)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, frame)
	}
	add(FrameHello, hello.encode())
	add(FrameAuth, encodeAuth(bytes.Repeat([]byte{0xab}, 64)))
	if p, err := EncodePacket(&overlay.Packet{Kind: overlay.KindCatchupReq, CatchupFrom: 3, TTL: 1, Origin: "G"}); err == nil {
		add(FramePacket, p)
	}
	if p, err := EncodePacket(&overlay.Packet{Kind: overlay.KindEnvelope, Envelope: testEnvelope(), TTL: 4, Origin: "G"}); err == nil {
		add(FramePacket, p)
	}
	// Packets carrying a propagated trace context (v2 wire field).
	if p, err := EncodePacket(&overlay.Packet{
		Kind: overlay.KindEnvelope, Envelope: testEnvelope(), TTL: 4, Origin: "G",
		Trace: obs.TraceContext{Trace: 0x8000000000000001, Parent: 0x8000000000000007},
	}); err == nil {
		add(FramePacket, p)
	}
	if p, err := EncodePacket(&overlay.Packet{
		Kind: overlay.KindCatchupReq, CatchupFrom: 9, TTL: 1, Origin: "G",
		Trace: obs.TraceContext{Trace: ^uint64(0), Parent: 1},
	}); err == nil {
		add(FramePacket, p)
	}
	// Archive catchup kinds (v3 wire fields): a chunk request, a data
	// chunk with its checksum, and a discovery answer.
	if p, err := EncodePacket(&overlay.Packet{
		Kind: overlay.KindArchiveReq, Origin: "G",
		ArchivePath: "buckets/ab/cdef.bucket", ArchiveOff: 131072,
	}); err == nil {
		add(FramePacket, p)
	}
	if p, err := EncodePacket(&overlay.Packet{
		Kind: overlay.KindArchiveResp, Origin: "G",
		ArchivePath: "headers/00000010.xdr", ArchiveTotal: 9,
		ArchiveData: []byte("chunkdata"),
		ArchiveSum:  stellarcrypto.HashBytes([]byte("chunkdata")),
		ArchiveSeq:  16, ArchiveTip: 19,
	}); err == nil {
		add(FramePacket, p)
	}
	if p, err := EncodePacket(&overlay.Packet{
		Kind: overlay.KindArchiveResp, Origin: "G",
		ArchiveData: []byte{}, ArchiveSeq: 16, ArchiveTip: 19,
	}); err == nil {
		add(FramePacket, p)
	}
	// Proposals by reference (v4 wire kinds): a reference to two
	// transactions and the request for the set it names.
	ref := &ledger.TxSetRef{
		PrevLedgerHash: stellarcrypto.HashBytes([]byte("prev")),
		TxHashes:       []stellarcrypto.Hash{stellarcrypto.HashBytes([]byte("tx-a")), stellarcrypto.HashBytes([]byte("tx-b"))},
		EnvelopeDigest: stellarcrypto.HashBytes([]byte("envelopes")),
	}
	if p, err := EncodePacket(&overlay.Packet{Kind: overlay.KindTxSetRef, TxSetRef: ref, TTL: 16, Origin: "G"}); err == nil {
		add(FramePacket, p)
	}
	if p, err := EncodePacket(&overlay.Packet{Kind: overlay.KindTxSetReq, TxSetHash: ref.SetHash(), Origin: "G"}); err == nil {
		add(FramePacket, p)
	}
	seeds = append(seeds,
		[]byte{},
		[]byte{0, 0, 0, 0},
		[]byte{0xff, 0xff, 0xff, 0xff, 3},
		binary.BigEndian.AppendUint32(nil, MaxFramePayload+2),
		[]byte{0, 0, 1, 0, byte(FramePacket), 1, 2, 3}, // declares 256, carries 3
	)
	return seeds
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and, for
// packet frames, the packet codec. Invariants: no panic; a hostile
// length prefix never costs more allocation than the input actually
// backs (the decoded payload is no longer than the input); and anything
// the strict packet decoder accepts re-encodes to the identical bytes
// (the flood dedup hash is computed on content, so canonical form
// matters).
func FuzzFrameDecode(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("ReadFrame returned %d bytes, over the %d limit", len(payload), MaxFramePayload)
		}
		if len(payload)+frameHeaderLen+1 > len(data) {
			t.Fatalf("ReadFrame conjured %d payload bytes from %d input bytes", len(payload), len(data))
		}
		// A decoded frame must re-encode to exactly the bytes consumed.
		reenc, err := AppendFrame(nil, typ, payload)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatalf("frame round trip not canonical:\n in:  %x\n out: %x", data[:len(reenc)], reenc)
		}
		if typ != FramePacket {
			return
		}
		pkt, err := DecodePacket(payload)
		if err != nil {
			return
		}
		// Re-encode from the fields: transactions would otherwise answer
		// with the very bytes they were decoded from.
		back, err := EncodePacket(fieldsOnly(pkt))
		if err != nil {
			t.Fatalf("re-encode of accepted packet failed: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("packet round trip not canonical:\n in:  %x\n out: %x", payload, back)
		}
	})
}
