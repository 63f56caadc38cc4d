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
// where the entry region is written by a bucket.EntryEncoder and read by a
// bucket.EntryDecoder: the canonical entry encodings the bucket content
// hash is defined over, so the bucket hash is sha256 of the entry region,
// computed while writing, and byte-identical to the in-memory Bucket.Hash()
// by construction. This package owns only the framing around it. The entry
// count rides as a trailer, not a header, so a single forward pass suffices
// to write the file.
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

// bufferSize is the buffer of every streaming file reader and writer. A
// close holds several at once, and each counts in the heap the garbage
// collector paces itself on.
const bufferSize = 32 << 10

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
	return bucket.ReadBucket(r)
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
	fileSum hash.Hash            // over the whole payload
	entries *bucket.EntryEncoder // the entry region and the bucket hash
	err     error
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
	w.bw = bufio.NewWriterSize(f, bufferSize)
	w.fileSum = sha256.New()
	w.entries = bucket.NewEntryEncoder(io.MultiWriter(w.bw, w.fileSum))
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
	w.Abort()
}

func (w *fileWriter) Append(e bucket.Entry) error {
	if err := w.lazyInit(); err != nil {
		return err
	}
	if err := w.entries.Append(e); err != nil {
		w.fail(err)
		return w.err
	}
	return nil
}

func (w *fileWriter) Commit() (stellarcrypto.Hash, int, error) {
	if err := w.lazyInit(); err != nil {
		return stellarcrypto.Hash{}, 0, err
	}
	h, count, err := w.entries.Sum()
	if err != nil {
		w.fail(err)
		return stellarcrypto.Hash{}, 0, w.err
	}
	if count == 0 {
		// The canonical empty bucket stays purely in memory; a zero-entry
		// stream hashes to its hash with no file written.
		w.Abort()
		return h, 0, nil
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], uint32(count))
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
	return h, count, nil
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
	r, err := newFileReader(f, h)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

type fileReader struct {
	f       *os.File
	br      *bufio.Reader
	want    stellarcrypto.Hash
	stored  [sha256.Size]byte
	fileSum hash.Hash
	content hash.Hash
	entries *bucket.EntryDecoder
	count   int
	done    bool
	err     error
}

// newFileReader reads f's header and positions it at the entry region.
func newFileReader(f *os.File, h stellarcrypto.Hash) (*fileReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("disk: bucket %s: %w", h.Hex(), err)
	}
	r := &fileReader{
		f:       f,
		br:      bufio.NewReaderSize(f, bufferSize),
		want:    h,
		fileSum: sha256.New(),
		content: sha256.New(),
	}
	const framing = int64(headerLen + 8) // header + version + count trailer
	if st.Size() < framing {
		return nil, r.corrupt("%d bytes is too short", st.Size())
	}
	var hdr [headerLen + 4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return nil, r.corrupt("%v", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, r.corrupt("bad magic")
	}
	copy(r.stored[:], hdr[len(Magic):headerLen])
	ver := hdr[headerLen:]
	r.fileSum.Write(ver)
	if v := binary.BigEndian.Uint32(ver); v != formatVersion {
		return nil, r.corrupt("unsupported version %d", v)
	}
	r.entries = bucket.NewEntryDecoder(io.TeeReader(r.br, io.MultiWriter(r.fileSum, r.content)), st.Size()-framing)
	return r, nil
}

func (r *fileReader) corrupt(format string, args ...any) error {
	r.err = fmt.Errorf("disk: bucket %s: corrupted or truncated file: %s",
		r.want.Hex(), fmt.Sprintf(format, args...))
	return r.err
}

func (r *fileReader) Next() (bucket.Entry, error) {
	if r.err != nil {
		return bucket.Entry{}, r.err
	}
	if r.done {
		return bucket.Entry{}, io.EOF
	}
	e, err := r.entries.Next()
	if err == io.EOF {
		return bucket.Entry{}, r.finish()
	}
	if err != nil {
		return bucket.Entry{}, r.corrupt("%v", err)
	}
	r.count++
	return e, nil
}

// finish verifies the trailer, checksum, and content hash, then reports
// io.EOF. Any mismatch surfaces as an error so a consumer can never
// mistake a corrupt bucket for a complete one.
func (r *fileReader) finish() error {
	var trailer [4]byte
	if _, err := io.ReadFull(r.br, trailer[:]); err != nil {
		return r.corrupt("%v", err)
	}
	r.fileSum.Write(trailer[:])
	if count := binary.BigEndian.Uint32(trailer[:]); int(count) != r.count {
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
	defer f.Close()
	r, err := newFileReader(f, h)
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: adopt bucket: %w", err)
	}
	return renameAndSyncDir(src, s.Path(h), s.dir)
}
