// Package xdr implements a small, deterministic binary encoding used
// throughout the reproduction wherever stellar-core would use XDR: hashing
// transaction sets, signing transactions, and identifying SCP values.
//
// The encoding is canonical — a given value has exactly one byte encoding —
// which is what makes content hashes (paper Fig 3) well defined. Like real
// XDR it is big-endian with 4-byte alignment for opaque data.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrTruncated is returned when decoding runs out of input.
var ErrTruncated = errors.New("xdr: truncated input")

// ErrOversize is returned when a declared length exceeds sane bounds.
var ErrOversize = errors.New("xdr: declared length too large")

// maxDecodeLen bounds variable-length fields to defend against corrupt or
// hostile inputs allocating unbounded memory.
const maxDecodeLen = 64 << 20

// Encoder writes canonical big-endian values to an underlying buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded contents, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes, so a caller that knows how much it is
// about to append pays for one allocation instead of a doubling series.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// PutUint32 appends a big-endian uint32.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends a big-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt32 appends a big-endian int32.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutInt64 appends a big-endian int64.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool appends a boolean as a uint32 0/1, as XDR does.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutBytes appends a length-prefixed opaque with XDR 4-byte padding.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// PutFixed appends fixed-length opaque data with no length prefix.
func (e *Encoder) PutFixed(b []byte) {
	e.buf = append(e.buf, b...)
}

// PutString appends a length-prefixed UTF-8 string.
func (e *Encoder) PutString(s string) { e.PutBytes([]byte(s)) }

// Decoder reads values written by Encoder.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done reports whether all input has been consumed.
func (d *Decoder) Done() bool { return d.Remaining() == 0 }

// Offset returns the number of bytes consumed so far.
func (d *Decoder) Offset() int { return d.off }

// Since returns the input consumed since Offset was from. The slice aliases
// the decoder's input: a caller that keeps it copies it.
func (d *Decoder) Since(from int) []byte { return d.buf[from:d.off] }

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int32 reads a big-endian int32.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool reads a uint32-encoded boolean, rejecting values other than 0 and 1
// so that encodings stay canonical.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("xdr: bool encoding %d", v)
	}
}

// Bytes reads a length-prefixed opaque, consuming padding.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxDecodeLen {
		return nil, ErrOversize
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	pad := (4 - int(n)%4) % 4
	padding, err := d.take(pad)
	if err != nil {
		return nil, err
	}
	for _, p := range padding {
		if p != 0 {
			return nil, fmt.Errorf("xdr: nonzero padding")
		}
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// Fixed reads n bytes of fixed-length opaque data.
func (d *Decoder) Fixed(n int) ([]byte, error) {
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// FixedInto reads len(dst) bytes of fixed-length opaque data into dst.
func (d *Decoder) FixedInto(dst []byte) error {
	b, err := d.take(len(dst))
	copy(dst, b)
	return err
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Marshaler is implemented by types that can append their canonical
// encoding to an Encoder.
type Marshaler interface {
	EncodeXDR(e *Encoder)
}

// Marshal encodes m into a fresh byte slice.
func Marshal(m Marshaler) []byte {
	e := NewEncoder(128)
	m.EncodeXDR(e)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// WriteTo writes the encoder's contents to w.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.buf)
	return int64(n), err
}

// PutFloat64 appends a float64 as its IEEE-754 bits. Used only by metrics
// serialization, never by consensus-critical values.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// Float64 reads a float64 written by PutFloat64.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}
