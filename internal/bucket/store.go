package bucket

import (
	"fmt"
	"io"
	"sort"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Store is a content-addressed repository of immutable buckets. The two
// implementations — MemStore here and the disk-backed store in
// internal/bucket/disk — are interchangeable: a bucket's hash is defined
// over its canonical entry encoding (AppendEntryEncoding), not over any
// storage representation, so a List backed by either store produces
// byte-identical level and snapshot hashes.
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

// AppendEntryEncoding appends one entry's canonical encoding to e. This is
// the unit the bucket content hash is defined over: a bucket's hash is
// SHA-256 of its entries' encodings concatenated in key order, which both
// the in-memory rehash and the disk store's streaming writer compute.
func AppendEntryEncoding(e *xdr.Encoder, entry Entry) {
	e.PutString(entry.Key)
	if entry.Data == nil {
		e.PutBool(false)
	} else {
		e.PutBool(true)
		e.PutBytes(entry.Data)
	}
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

// MemStore is the in-memory Store: a map from hash to decoded bucket.
// It exists for tests and for symmetry with the disk store; a List with
// no store at all keeps buckets in its own level slots.
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

// Writer starts a streaming write into the store.
func (s *MemStore) Writer() BucketWriter { return &memWriter{store: s} }

type memWriter struct {
	store   *MemStore
	entries []Entry
}

func (w *memWriter) Append(e Entry) error {
	if n := len(w.entries); n > 0 && e.Key <= w.entries[n-1].Key {
		return fmt.Errorf("bucket: writer keys out of order (%q after %q)", e.Key, w.entries[n-1].Key)
	}
	w.entries = append(w.entries, e)
	return nil
}

func (w *memWriter) Commit() (stellarcrypto.Hash, int, error) {
	b := NewBucket(w.entries)
	if err := w.store.Put(b); err != nil {
		return stellarcrypto.Hash{}, 0, err
	}
	return b.Hash(), b.Len(), nil
}

func (w *memWriter) Abort() { w.entries = nil }

// peekReader wraps an EntryReader with one-entry lookahead for merging.
type peekReader struct {
	r    EntryReader
	cur  Entry
	ok   bool
	err  error
	done bool
}

func newPeekReader(r EntryReader) *peekReader {
	p := &peekReader{r: r}
	p.advance()
	return p
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

// MergeStreams merges the newer stream onto the older one into w with
// exactly the semantics of Merge: duplicate keys resolve to the newer
// entry, and tombstones annihilate when keepTombstones is false. Both
// inputs must be in key order. The caller commits (or aborts) w.
func MergeStreams(newer, older EntryReader, keepTombstones bool, w BucketWriter) error {
	nr, or := newPeekReader(newer), newPeekReader(older)
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

// SortEntries sorts entries into the canonical bucket key order.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
}
