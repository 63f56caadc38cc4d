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

// readChunk bounds how much ReadFrame allocates ahead of bytes actually
// received, so a hostile length prefix cannot force a large allocation
// from a tiny input.
const readChunk = 64 << 10

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

// ReadFrame reads one frame from r. The declared length is validated
// before any allocation, and the payload buffer grows only as bytes
// actually arrive (bounded by readChunk per step), so truncated or hostile
// prefixes cost at most one small allocation.
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
		chunk := min(remaining-len(payload), readChunk)
		start := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, err
		}
	}
	return FrameType(hdr[frameHeaderLen]), payload, nil
}
