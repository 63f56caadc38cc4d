// Package disk implements the disk-backed bucket.Store: buckets are
// immutable and content-addressed (§5.1 — "essentially an LSM-tree"), so
// each one is a single append-only file named by its hash. Files are
// written streamingly (a million-entry merge never materializes in
// memory), framed with a whole-file checksum, and read back through
// chunked sequential readers. Nothing is cached: a bucket is read only by
// the merge that consumes it or by a restore, once each.
//
// The on-disk format is
//
//	magic "STLRBKT1" ‖ sha256(payload) ‖ payload
//	payload = version u32 ‖ entry encodings ‖ count u32
//
// where each entry encoding is bucket.AppendEntryEncoding's canonical
// form — exactly the unit the bucket content hash is defined over. The
// bucket hash is therefore sha256 of the entry region, computable
// incrementally while writing, and byte-identical to the in-memory
// Bucket.Hash() by construction. The entry count rides as a trailer, not
// a header, so a single forward pass suffices to write the file.
package disk

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stellar/internal/bucket"
	"stellar/internal/stellarcrypto"
)

// Magic identifies a bucket file.
const Magic = "STLRBKT1"

// formatVersion is the payload version this package writes.
const formatVersion = 1

// headerLen is the byte offset where the payload begins.
const headerLen = len(Magic) + sha256.Size

// readBufferSize is the chunk size of streaming reads.
const readBufferSize = 256 << 10

// maxFieldLen bounds a single key or entry payload while decoding, so a
// corrupt length prefix cannot demand an absurd allocation.
const maxFieldLen = 64 << 20

// Store is a directory of content-addressed bucket files.
type Store struct {
	dir string
}

// Open creates (if necessary) and opens a store rooted at dir, sweeping
// any temp files a crash left behind.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: open store: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path a bucket hash maps to.
func (s *Store) Path(h stellarcrypto.Hash) string {
	return filepath.Join(s.dir, h.Hex()+".bucket")
}

// Has reports whether the bucket file exists.
func (s *Store) Has(h stellarcrypto.Hash) bool {
	_, err := os.Stat(s.Path(h))
	return err == nil
}

// Put persists a decoded bucket; a no-op when the file already exists.
func (s *Store) Put(b *bucket.Bucket) error {
	if s.Has(b.Hash()) {
		return nil
	}
	w := s.Writer()
	for _, e := range b.Entries() {
		if err := w.Append(e); err != nil {
			w.Abort()
			return err
		}
	}
	h, _, err := w.Commit()
	if err != nil {
		return err
	}
	if !b.Empty() && h != b.Hash() {
		return fmt.Errorf("disk: wrote bucket %s but content hashed to %s", b.Hash().Hex(), h.Hex())
	}
	return nil
}

// Load reads and decodes the whole bucket.
func (s *Store) Load(h stellarcrypto.Hash) (*bucket.Bucket, error) {
	r, err := s.Reader(h)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var entries []bucket.Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	b := bucket.NewBucket(entries)
	if b.Hash() != h {
		// The streaming reader already verified the content hash; this
		// re-check guards the decode→rebuild round trip itself.
		return nil, fmt.Errorf("disk: bucket %s decoded to hash %s", h.Hex(), b.Hash().Hex())
	}
	return b, nil
}

const tmpPrefix = ".tmp-bucket-"

// Writer starts streaming a new bucket file.
func (s *Store) Writer() bucket.BucketWriter {
	return &fileWriter{store: s}
}

type fileWriter struct {
	store   *Store
	f       *os.File
	bw      *bufio.Writer
	fileSum hash.Hash // over the whole payload
	content hash.Hash // over the entry region only (the bucket hash)
	enc     entryEncoder
	count   int
	lastKey string
	err     error
}

// entryEncoder reuses one buffer for per-entry canonical encodings.
type entryEncoder struct{ buf []byte }

func (ee *entryEncoder) encode(e bucket.Entry) []byte {
	ee.buf = ee.buf[:0]
	ee.buf = binary.BigEndian.AppendUint32(ee.buf, uint32(len(e.Key)))
	ee.buf = append(ee.buf, e.Key...)
	for pad := (4 - len(e.Key)%4) % 4; pad > 0; pad-- {
		ee.buf = append(ee.buf, 0)
	}
	if e.Data == nil {
		ee.buf = binary.BigEndian.AppendUint32(ee.buf, 0)
	} else {
		ee.buf = binary.BigEndian.AppendUint32(ee.buf, 1)
		ee.buf = binary.BigEndian.AppendUint32(ee.buf, uint32(len(e.Data)))
		ee.buf = append(ee.buf, e.Data...)
		for pad := (4 - len(e.Data)%4) % 4; pad > 0; pad-- {
			ee.buf = append(ee.buf, 0)
		}
	}
	return ee.buf
}

func (w *fileWriter) lazyInit() error {
	if w.f != nil || w.err != nil {
		return w.err
	}
	f, err := os.CreateTemp(w.store.dir, tmpPrefix+"*")
	if err != nil {
		w.err = fmt.Errorf("disk: create bucket temp: %w", err)
		return w.err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, readBufferSize)
	w.fileSum = sha256.New()
	w.content = sha256.New()
	var hdr [headerLen]byte
	copy(hdr[:], Magic) // checksum bytes stay zero until Commit patches them
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.fail(err)
		return w.err
	}
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], formatVersion)
	if _, err := w.bw.Write(ver[:]); err != nil {
		w.fail(err)
		return w.err
	}
	w.fileSum.Write(ver[:])
	return nil
}

func (w *fileWriter) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("disk: write bucket: %w", err)
	}
	if w.f != nil {
		name := w.f.Name()
		w.f.Close()
		_ = os.Remove(name)
		w.f = nil
	}
}

func (w *fileWriter) Append(e bucket.Entry) error {
	if err := w.lazyInit(); err != nil {
		return err
	}
	if w.count > 0 && e.Key <= w.lastKey {
		err := fmt.Errorf("disk: writer keys out of order (%q after %q)", e.Key, w.lastKey)
		w.fail(err)
		return w.err
	}
	enc := w.enc.encode(e)
	if _, err := w.bw.Write(enc); err != nil {
		w.fail(err)
		return w.err
	}
	w.fileSum.Write(enc)
	w.content.Write(enc)
	w.count++
	w.lastKey = e.Key
	return nil
}

func (w *fileWriter) Commit() (stellarcrypto.Hash, int, error) {
	if err := w.lazyInit(); err != nil {
		return stellarcrypto.Hash{}, 0, err
	}
	if w.count == 0 {
		// The canonical empty bucket stays purely in memory; a zero-entry
		// stream hashes to its hash with no file written.
		name := w.f.Name()
		w.f.Close()
		_ = os.Remove(name)
		w.f = nil
		return bucket.EmptyBucket().Hash(), 0, nil
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], uint32(w.count))
	if _, err := w.bw.Write(trailer[:]); err != nil {
		w.fail(err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	w.fileSum.Write(trailer[:])
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	if _, err := w.f.WriteAt(w.fileSum.Sum(nil), int64(len(Magic))); err != nil {
		w.fail(err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	if err := w.f.Sync(); err != nil {
		w.fail(err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	var h stellarcrypto.Hash
	copy(h[:], w.content.Sum(nil))
	tmp := w.f.Name()
	if err := w.f.Close(); err != nil {
		_ = os.Remove(tmp)
		w.err = fmt.Errorf("disk: close bucket temp: %w", err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	w.f = nil
	if err := renameAndSyncDir(tmp, w.store.Path(h), w.store.dir); err != nil {
		w.err = err
		return stellarcrypto.Hash{}, 0, w.err
	}
	return h, w.count, nil
}

func (w *fileWriter) Abort() {
	if w.f != nil {
		name := w.f.Name()
		w.f.Close()
		_ = os.Remove(name)
		w.f = nil
	}
}

// renameAndSyncDir atomically installs tmp at path and fsyncs the parent
// directory, so a crash can never leave a half-written or unnamed file.
func renameAndSyncDir(tmp, path, dir string) error {
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: rename bucket: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("disk: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("disk: sync dir: %w", err)
	}
	return nil
}

// Reader opens a chunked streaming reader over the bucket's entries,
// verifying the file checksum and content hash incrementally; the final
// Next returns an error instead of io.EOF if either fails.
func (s *Store) Reader(h stellarcrypto.Hash) (bucket.EntryReader, error) {
	f, err := os.Open(s.Path(h))
	if err != nil {
		return nil, fmt.Errorf("disk: bucket %s: %w", h.Hex(), err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: bucket %s: %w", h.Hex(), err)
	}
	r := &fileReader{
		f:       f,
		br:      bufio.NewReaderSize(f, readBufferSize),
		want:    h,
		size:    st.Size(),
		fileSum: sha256.New(),
		content: sha256.New(),
	}
	if err := r.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

type fileReader struct {
	f       *os.File
	br      *bufio.Reader
	want    stellarcrypto.Hash
	size    int64
	pos     int64 // absolute file offset consumed so far
	stored  [sha256.Size]byte
	fileSum hash.Hash
	content hash.Hash
	count   int
	done    bool
	err     error
}

func (r *fileReader) corrupt(format string, args ...any) error {
	r.err = fmt.Errorf("disk: bucket %s: corrupted or truncated file: %s",
		r.want.Hex(), fmt.Sprintf(format, args...))
	return r.err
}

// readRaw consumes n bytes without hashing (the file header).
func (r *fileReader) readRaw(buf []byte) error {
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return r.corrupt("%v", err)
	}
	r.pos += int64(len(buf))
	return nil
}

// readPayload consumes n bytes of payload, feeding the file checksum and
// (when inContent) the content hash.
func (r *fileReader) readPayload(buf []byte, inContent bool) error {
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return r.corrupt("%v", err)
	}
	r.fileSum.Write(buf)
	if inContent {
		r.content.Write(buf)
	}
	r.pos += int64(len(buf))
	return nil
}

func (r *fileReader) readHeader() error {
	if r.size < int64(headerLen)+8 { // header + version + count trailer
		return r.corrupt("%d bytes is too short", r.size)
	}
	var hdr [headerLen]byte
	if err := r.readRaw(hdr[:]); err != nil {
		return err
	}
	if string(hdr[:len(Magic)]) != Magic {
		return r.corrupt("bad magic")
	}
	copy(r.stored[:], hdr[len(Magic):])
	var ver [4]byte
	if err := r.readPayload(ver[:], false); err != nil {
		return err
	}
	if v := binary.BigEndian.Uint32(ver[:]); v != formatVersion {
		return r.corrupt("unsupported version %d", v)
	}
	return nil
}

// entriesEnd is the file offset where the entry region stops (the count
// trailer begins).
func (r *fileReader) entriesEnd() int64 { return r.size - 4 }

func (r *fileReader) u32(inContent bool) (uint32, error) {
	var b [4]byte
	if err := r.readPayload(b[:], inContent); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func (r *fileReader) opaque(n uint32) ([]byte, error) {
	if n > maxFieldLen {
		return nil, r.corrupt("field length %d too large", n)
	}
	padded := int64(n) + int64((4-n%4)%4)
	if r.pos+padded > r.entriesEnd() {
		return nil, r.corrupt("field runs past entry region")
	}
	buf := make([]byte, padded)
	if err := r.readPayload(buf, true); err != nil {
		return nil, err
	}
	for _, p := range buf[n:] {
		if p != 0 {
			return nil, r.corrupt("nonzero padding")
		}
	}
	return buf[:n], nil
}

func (r *fileReader) Next() (bucket.Entry, error) {
	if r.err != nil {
		return bucket.Entry{}, r.err
	}
	if r.done {
		return bucket.Entry{}, io.EOF
	}
	if r.pos >= r.entriesEnd() {
		return bucket.Entry{}, r.finish()
	}
	klen, err := r.u32(true)
	if err != nil {
		return bucket.Entry{}, err
	}
	key, err := r.opaque(klen)
	if err != nil {
		return bucket.Entry{}, err
	}
	present, err := r.u32(true)
	if err != nil {
		return bucket.Entry{}, err
	}
	e := bucket.Entry{Key: string(key)}
	switch present {
	case 0:
	case 1:
		dlen, err := r.u32(true)
		if err != nil {
			return bucket.Entry{}, err
		}
		if e.Data, err = r.opaque(dlen); err != nil {
			return bucket.Entry{}, err
		}
		if e.Data == nil {
			e.Data = []byte{} // a present empty payload is not a tombstone
		}
	default:
		return bucket.Entry{}, r.corrupt("bad presence flag %d", present)
	}
	r.count++
	return e, nil
}

// finish verifies the trailer, checksum, and content hash, then reports
// io.EOF. Any mismatch surfaces as an error so a consumer can never
// mistake a corrupt bucket for a complete one.
func (r *fileReader) finish() error {
	count, err := r.u32(false)
	if err != nil {
		return err
	}
	if int(count) != r.count {
		return r.corrupt("trailer count %d, read %d entries", count, r.count)
	}
	if !bytes.Equal(r.fileSum.Sum(nil), r.stored[:]) {
		return r.corrupt("checksum mismatch")
	}
	var got stellarcrypto.Hash
	copy(got[:], r.content.Sum(nil))
	if got != r.want {
		return r.corrupt("content hash %s", got.Hex())
	}
	r.done = true
	return io.EOF
}

func (r *fileReader) Close() error { return r.f.Close() }

// Adopt verifies the bucket file at src (written outside the store, e.g.
// fetched over the network) and installs it under its content hash.
func (s *Store) Adopt(src string, h stellarcrypto.Hash) error {
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("disk: adopt bucket: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("disk: adopt bucket: %w", err)
	}
	r := &fileReader{
		f:       f,
		br:      bufio.NewReaderSize(f, readBufferSize),
		want:    h,
		size:    st.Size(),
		fileSum: sha256.New(),
		content: sha256.New(),
	}
	if err := r.readHeader(); err != nil {
		f.Close()
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("disk: adopt bucket: %w", err)
	}
	f.Close()
	return renameAndSyncDir(src, s.Path(h), s.dir)
}
