// Package transport is the real wire transport of the overlay: a
// stdlib-only authenticated TCP peer-to-peer layer that carries the same
// overlay packets the deterministic simulator delivers in-process. It
// provides length-prefixed binary framing (this file), a versioned hello
// handshake in which each side proves its node identity by signing a
// challenge with its validator key (handshake.go), a peer manager that
// dials configured peers and accepts inbound connections with
// exponential-backoff reconnects (manager.go), per-peer bounded send
// queues that shed the oldest broadcast under backpressure rather than
// block consensus (peer.go), and a real-time event loop implementing
// simnet.Env so herder nodes run unchanged over TCP (loop.go).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"stellar/internal/overlay"
	"stellar/internal/xdr"
)

// FrameType tags the payload of one frame.
type FrameType byte

// Frame types. Hello and Auth occur only during the handshake; after
// authentication every frame is a Packet.
const (
	FrameHello FrameType = iota + 1
	FrameAuth
	FramePacket
)

// String names the frame type for logs.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameAuth:
		return "auth"
	case FramePacket:
		return "packet"
	default:
		return fmt.Sprintf("FrameType(%d)", byte(t))
	}
}

// MaxFramePayload bounds one frame's payload (type byte excluded). A
// transaction set of 2^16 maximal transactions stays well under this;
// anything larger is a protocol violation and drops the connection.
const MaxFramePayload = 8 << 20

// frameHeaderLen is the length prefix: a 4-byte big-endian count of the
// bytes that follow (one type byte plus the payload).
const frameHeaderLen = 4

// readBufferSize is the buffer a connection's frames are read through
// (Manager.readLoop): most frames — transactions, envelopes — are a few
// hundred bytes, so one read from the socket brings in many of them.
const readBufferSize = 64 << 10

// readChunk is what ReadFrame allocates on the strength of a length prefix
// alone, and readGrowth how much further each filled buffer lets it go: the
// payload buffer never holds more than readGrowth times the bytes that have
// actually arrived (or readChunk), so a hostile prefix cannot force a large
// allocation from a tiny input, while an honest 2 MiB catch-up reply is
// copied twice on its way in and costs 1.3 times its size in allocation.
const (
	readChunk  = 64 << 10
	readGrowth = 8
)

// frameSlack is what encodeFrame reserves beyond the sender's size estimate,
// which leaves out the packet header (kind, TTL, origin, trace context).
const frameSlack = 128

// WriteFrame writes one frame: length prefix, type byte, payload.
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("transport: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen + 1]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(typ)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the wire form of one frame to buf, for queueing
// without an intermediate writer.
func AppendFrame(buf []byte, typ FrameType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("transport: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)+1))
	buf = append(buf, hdr[:]...)
	buf = append(buf, byte(typ))
	return append(buf, payload...), nil
}

// encodeFrame returns the wire frame of one packet, encoded straight into
// the buffer that is queued: the header's room is reserved ahead of the
// payload and its length patched in afterwards, so a packet costs one buffer
// however large it is — one allocation when sizeHint, the sender's estimate
// of the payload, is within frameSlack of the truth.
func encodeFrame(p *overlay.Packet, sizeHint int) ([]byte, error) {
	e := xdr.NewEncoder(frameHeaderLen + 1 + sizeHint + frameSlack)
	e.PutUint32(0) // the length, once it is known
	e.PutFixed([]byte{byte(FramePacket)})
	if err := encodePacket(e, p); err != nil {
		return nil, err
	}
	frame := e.Bytes()
	payload := len(frame) - frameHeaderLen - 1
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("transport: frame payload %d exceeds limit %d", payload, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(frame, uint32(payload+1))
	return frame, nil
}

// ReadFrame reads one frame from r. The declared length is validated
// before any allocation, and the payload buffer grows only as bytes
// actually arrive (readChunk, then readGrowth-fold per filled buffer), so
// truncated or hostile prefixes cost at most one small allocation.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	// Length and type in one read: every frame has a type byte, so the five
	// bytes never reach into the next frame.
	var hdr [frameHeaderLen + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:frameHeaderLen])
	if n == 0 {
		return 0, nil, fmt.Errorf("transport: empty frame")
	}
	if n > MaxFramePayload+1 {
		return 0, nil, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFramePayload+1)
	}
	remaining := int(n) - 1
	payload := make([]byte, 0, min(remaining, readChunk))
	for len(payload) < remaining {
		if have := len(payload); have == cap(payload) {
			grown := make([]byte, have, min(remaining, readGrowth*have))
			copy(grown, payload)
			payload = grown
		}
		start := len(payload)
		payload = payload[:cap(payload)] // never beyond remaining
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, err
		}
	}
	return FrameType(hdr[frameHeaderLen]), payload, nil
}
