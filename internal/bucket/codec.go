package bucket

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// The canonical entry encoding is the one unit the bucket content hash is
// defined over: a bucket's hash is SHA-256 of its entries' encodings
// concatenated in strictly increasing key order, and a bucket file's entry
// region is those same bytes. Each entry encodes as
//
//	key string ‖ present bool ‖ data opaque (present only)
//
// in xdr form: big-endian 4-byte lengths and flags, zero padding to 4.
// EntryEncoder and EntryDecoder are its only writer and reader.

// encodeEntry appends one entry's canonical encoding to e.
func encodeEntry(e *xdr.Encoder, entry Entry) {
	e.PutString(entry.Key)
	if entry.Data == nil {
		e.PutBool(false)
	} else {
		e.PutBool(true)
		e.PutBytes(entry.Data)
	}
}

// encodeChunk is how many bytes of encodings an EntryEncoder gathers before
// handing them to SHA-256 and its sink: the whole encoding never exists at
// once.
const encodeChunk = 4 << 10

// EntryEncoder computes a bucket's content hash: it takes entries in
// strictly increasing key order, encodes each canonically and hashes the
// encodings, copying them to a sink when it has one (a bucket file's entry
// region). Every bucket, resident or on disk, is hashed by one.
type EntryEncoder struct {
	sink io.Writer
	sum  hash.Hash
	buf  xdr.Encoder
	n    int
	last string
}

// NewEntryEncoder returns an encoder that also writes the encodings to
// sink; a nil sink only hashes.
func NewEntryEncoder(sink io.Writer) *EntryEncoder {
	w := &EntryEncoder{sink: sink, sum: sha256.New()}
	w.buf.Grow(encodeChunk + 256)
	return w
}

// Append adds the next entry; its key must sort after the previous one's.
func (w *EntryEncoder) Append(e Entry) error {
	if w.n > 0 && e.Key <= w.last {
		return fmt.Errorf("bucket: keys out of order (%q after %q)", e.Key, w.last)
	}
	encodeEntry(&w.buf, e)
	w.n++
	w.last = e.Key
	if w.buf.Len() >= encodeChunk {
		return w.flush()
	}
	return nil
}

func (w *EntryEncoder) flush() error {
	w.sum.Write(w.buf.Bytes())
	if w.sink != nil {
		if _, err := w.sink.Write(w.buf.Bytes()); err != nil {
			return err
		}
	}
	w.buf.Reset()
	return nil
}

// Sum flushes what is buffered and returns the content hash and the number
// of entries appended.
func (w *EntryEncoder) Sum() (stellarcrypto.Hash, int, error) {
	var h stellarcrypto.Hash
	if err := w.flush(); err != nil {
		return h, 0, err
	}
	w.sum.Sum(h[:0])
	return h, w.n, nil
}

// EntryDecoder reads entries back from n bytes of canonical encodings in a
// stream, one at a time, so a bucket file is never held whole. It accepts
// only what an EntryEncoder writes: canonical flags and padding, keys in
// strictly increasing order, and no field running past the n bytes, which
// also bounds what a corrupt length prefix can make it allocate.
type EntryDecoder struct {
	r    io.Reader
	left int64
	word [4]byte
	n    int
	last string
}

// NewEntryDecoder returns a decoder for the next n bytes of r.
func NewEntryDecoder(r io.Reader, n int64) *EntryDecoder {
	return &EntryDecoder{r: r, left: n}
}

// Next returns the next entry, or io.EOF once the n bytes are used up
// exactly; input that ends inside an entry or is not canonical is an error.
func (d *EntryDecoder) Next() (Entry, error) {
	if d.left == 0 {
		return Entry{}, io.EOF
	}
	key, err := d.opaque()
	if err != nil {
		return Entry{}, d.fail("key", err)
	}
	e := Entry{Key: string(key)}
	if d.n > 0 && e.Key <= d.last {
		return Entry{}, d.fail("key", fmt.Errorf("%q out of order after %q", e.Key, d.last))
	}
	present, err := d.u32()
	if err != nil {
		return Entry{}, d.fail("presence flag", err)
	}
	switch present {
	case 0:
	case 1:
		if e.Data, err = d.opaque(); err != nil {
			return Entry{}, d.fail("data", err)
		}
	default:
		return Entry{}, d.fail("presence flag", fmt.Errorf("%d is not a bool", present))
	}
	d.n++
	d.last = e.Key
	return e, nil
}

func (d *EntryDecoder) fail(field string, err error) error {
	return fmt.Errorf("bucket: entry %d %s: %w", d.n, field, err)
}

// read fills buf from the stream, never past the n bytes.
func (d *EntryDecoder) read(buf []byte) error {
	if int64(len(buf)) > d.left {
		return fmt.Errorf("%d bytes run past the %d left", len(buf), d.left)
	}
	if _, err := io.ReadFull(d.r, buf); err == io.EOF {
		return io.ErrUnexpectedEOF // the stream ended before its n bytes
	} else if err != nil {
		return err
	}
	d.left -= int64(len(buf))
	return nil
}

func (d *EntryDecoder) u32() (uint32, error) {
	if err := d.read(d.word[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(d.word[:]), nil
}

// opaque reads a length-prefixed field and its zero padding. A present
// empty field comes back as a non-nil empty slice, so empty data is never
// mistaken for a tombstone.
func (d *EntryDecoder) opaque() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	padded := int64(n) + int64((4-n%4)%4)
	if padded > d.left {
		return nil, fmt.Errorf("length %d runs past the %d bytes left", n, d.left)
	}
	buf := make([]byte, padded)
	if err := d.read(buf); err != nil {
		return nil, err
	}
	for _, p := range buf[n:] {
		if p != 0 {
			return nil, fmt.Errorf("nonzero padding")
		}
	}
	return buf[:n:n], nil
}
