package bucket

import (
	"fmt"
	"io"

	"stellar/internal/stellarcrypto"
)

// Store is a content-addressed repository of immutable buckets: the
// disk-backed store in internal/bucket/disk, or MemStore in tests. Both
// hash through EntryEncoder, so a bucket's hash is defined over its
// canonical entry encoding, not over any storage representation, and a List
// backed by either produces byte-identical level and snapshot hashes.
type Store interface {
	// Put persists a bucket; storing the same content twice is a no-op.
	Put(b *Bucket) error
	// Load returns the fully decoded bucket for a hash; callers must not
	// mutate the result.
	Load(h stellarcrypto.Hash) (*Bucket, error)
	// Reader streams the bucket's entries in key order without
	// materializing the whole bucket.
	Reader(h stellarcrypto.Hash) (EntryReader, error)
	// Writer starts streaming a new bucket into the store. Entries must
	// be appended in strictly increasing key order.
	Writer() BucketWriter
	// Has reports whether the store holds a bucket with this hash.
	Has(h stellarcrypto.Hash) bool
}

// EntryReader streams bucket entries in key order; Next returns io.EOF
// after the last entry.
type EntryReader interface {
	Next() (Entry, error)
	Close() error
}

// BucketWriter accumulates a new bucket entry by entry. Commit finalizes
// it, returning the content hash and entry count; the bucket is then
// addressable in the store. Abort discards a partial write.
type BucketWriter interface {
	Append(e Entry) error
	Commit() (stellarcrypto.Hash, int, error)
	Abort()
}

// sliceReader adapts an in-memory entry slice to EntryReader.
type sliceReader struct {
	entries []Entry
	next    int
}

// NewSliceReader returns an EntryReader over an in-memory entry slice
// (which must already be in key order).
func NewSliceReader(entries []Entry) EntryReader {
	return &sliceReader{entries: entries}
}

func (r *sliceReader) Next() (Entry, error) {
	if r.next >= len(r.entries) {
		return Entry{}, io.EOF
	}
	e := r.entries[r.next]
	r.next++
	return e, nil
}

func (r *sliceReader) Close() error { return nil }

// memWriter builds a resident bucket: it keeps the entries as appended and
// hashes them as they come.
type memWriter struct {
	enc     *EntryEncoder
	entries []Entry
	bucket  *Bucket // set by Commit
}

// newMemWriter returns a writer with room for n entries.
func newMemWriter(n int) *memWriter {
	return &memWriter{enc: NewEntryEncoder(nil), entries: make([]Entry, 0, n)}
}

func (w *memWriter) Append(e Entry) error {
	if err := w.enc.Append(e); err != nil {
		return err
	}
	w.entries = append(w.entries, e)
	return nil
}

func (w *memWriter) Commit() (stellarcrypto.Hash, int, error) {
	h, n, err := w.enc.Sum()
	w.bucket = &Bucket{entries: w.entries, hash: h}
	return h, n, err
}

func (w *memWriter) Abort() { w.entries = nil }

// ReadBucket decodes a whole stream into a resident bucket, hashing it as it
// reads; the stream's keys must be strictly increasing.
func ReadBucket(r EntryReader) (*Bucket, error) {
	w := newMemWriter(0)
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.Append(e)
		}
		if err != nil {
			return nil, err
		}
	}
	_, _, err := w.Commit()
	return w.bucket, err
}

// MemStore is an in-memory Store, a fake for tests: a map from hash to a
// bucket built by the same writer a list's resident merges use. A List
// with no store at all keeps buckets in its own level slots.
type MemStore struct {
	m map[stellarcrypto.Hash]*Bucket
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[stellarcrypto.Hash]*Bucket)}
}

// Put stores the bucket under its content hash.
func (s *MemStore) Put(b *Bucket) error {
	s.m[b.Hash()] = b
	return nil
}

// Load returns the bucket for a hash.
func (s *MemStore) Load(h stellarcrypto.Hash) (*Bucket, error) {
	b, ok := s.m[h]
	if !ok {
		return nil, fmt.Errorf("bucket: store has no bucket %s", h.Hex())
	}
	return b, nil
}

// Reader streams the bucket's entries.
func (s *MemStore) Reader(h stellarcrypto.Hash) (EntryReader, error) {
	b, err := s.Load(h)
	if err != nil {
		return nil, err
	}
	return NewSliceReader(b.Entries()), nil
}

// Has reports whether the hash is stored.
func (s *MemStore) Has(h stellarcrypto.Hash) bool {
	_, ok := s.m[h]
	return ok
}

// Writer starts a write whose Commit puts the bucket into the store.
func (s *MemStore) Writer() BucketWriter { return memStoreWriter{newMemWriter(0), s} }

type memStoreWriter struct {
	*memWriter
	store *MemStore
}

func (w memStoreWriter) Commit() (stellarcrypto.Hash, int, error) {
	h, n, err := w.memWriter.Commit()
	if err != nil {
		return h, n, err
	}
	return h, n, w.store.Put(w.bucket)
}

// peekReader wraps an EntryReader with one-entry lookahead for merging.
type peekReader struct {
	r    EntryReader
	cur  Entry
	ok   bool
	err  error
	done bool
}

func (p *peekReader) advance() {
	if p.done || p.err != nil {
		p.ok = false
		return
	}
	e, err := p.r.Next()
	if err == io.EOF {
		p.done, p.ok = true, false
		return
	}
	if err != nil {
		p.err, p.ok = err, false
		return
	}
	p.cur, p.ok = e, true
}

// MergeStreams merges the newer stream onto the older one into w: duplicate
// keys resolve to the newer entry, and tombstones annihilate when
// keepTombstones is false (merging into the bottom level). Both inputs must
// be in key order. Every bucket a List builds comes out of it. The caller
// commits (or aborts) w.
func MergeStreams(newer, older EntryReader, keepTombstones bool, w BucketWriter) error {
	// The lookahead lives on the stack: no write barrier per entry.
	nr, or := peekReader{r: newer}, peekReader{r: older}
	nr.advance()
	or.advance()
	for nr.ok || or.ok {
		var e Entry
		switch {
		case !or.ok:
			e = nr.cur
			nr.advance()
		case !nr.ok:
			e = or.cur
			or.advance()
		case nr.cur.Key < or.cur.Key:
			e = nr.cur
			nr.advance()
		case nr.cur.Key > or.cur.Key:
			e = or.cur
			or.advance()
		default: // same key: newer shadows older
			e = nr.cur
			nr.advance()
			or.advance()
		}
		if e.Data == nil && !keepTombstones {
			continue
		}
		if err := w.Append(e); err != nil {
			return err
		}
	}
	if nr.err != nil {
		return nr.err
	}
	return or.err
}
