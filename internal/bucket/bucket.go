// Package bucket implements the bucket list of paper §5.1: the ledger
// snapshot is stratified by time of last modification into exponentially
// sized buckets, similar to an LSM-tree, so that each ledger close only
// rehashes the small, recently changed buckets while the hash of the whole
// ledger state stays well defined (Fig 3's snapshot hash).
//
// Because the bucket list is not read during transaction processing, the
// usual LSM design constraints are relaxed: there is no random access by
// key on the hot path, and buckets are only read sequentially while
// merging levels or reconciling state after a disconnection.
package bucket

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"

	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
	"stellar/internal/xdr"
)

// Entry is one ledger entry in canonical encoded form; a nil Data is a
// tombstone recording a deletion.
type Entry = ledger.SnapshotEntry

// Bucket is an immutable, key-sorted set of entries with a content hash.
type Bucket struct {
	entries []Entry
	hash    stellarcrypto.Hash
}

// NewBucket builds a bucket from entries (which must not contain duplicate
// keys; they will be sorted).
func NewBucket(entries []Entry) *Bucket {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	b := &Bucket{entries: es}
	b.rehash()
	return b
}

var emptyBucket = NewBucket(nil)

// EmptyBucket returns the canonical empty bucket.
func EmptyBucket() *Bucket { return emptyBucket }

// rehashChunk is how many bytes of entry encodings rehash gathers before
// handing them to SHA-256: the whole encoding never exists at once.
const rehashChunk = 4 << 10

// rehash streams the entries' canonical encodings through SHA-256, as the
// disk store's writer does, so hashing a bucket costs one small buffer
// rather than a copy of the bucket.
func (b *Bucket) rehash() {
	h := sha256.New()
	e := xdr.NewEncoder(rehashChunk + 256)
	for _, entry := range b.entries {
		AppendEntryEncoding(e, entry)
		if e.Len() >= rehashChunk {
			h.Write(e.Bytes())
			e.Reset()
		}
	}
	h.Write(e.Bytes())
	h.Sum(b.hash[:0])
}

// Hash returns the bucket's content hash.
func (b *Bucket) Hash() stellarcrypto.Hash { return b.hash }

// Len returns the number of entries (tombstones included).
func (b *Bucket) Len() int { return len(b.entries) }

// Empty reports whether the bucket holds no entries.
func (b *Bucket) Empty() bool { return len(b.entries) == 0 }

// Entries exposes the sorted entries; callers must not mutate them.
func (b *Bucket) Entries() []Entry { return b.entries }

// Get looks up a key, reporting (entry, found). Binary search; used only
// by reconciliation and state restore, never transaction processing.
func (b *Bucket) Get(key string) (Entry, bool) {
	i := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].Key >= key })
	if i < len(b.entries) && b.entries[i].Key == key {
		return b.entries[i], true
	}
	return Entry{}, false
}

// Merge combines newer onto older: for duplicate keys the newer entry
// shadows the older one. When keepTombstones is false (merging into the
// bottom level), deletions annihilate entirely.
func Merge(newer, older *Bucket, keepTombstones bool) *Bucket {
	out := make([]Entry, 0, len(newer.entries)+len(older.entries))
	i, j := 0, 0
	for i < len(newer.entries) || j < len(older.entries) {
		var e Entry
		switch {
		case j >= len(older.entries):
			e = newer.entries[i]
			i++
		case i >= len(newer.entries):
			e = older.entries[j]
			j++
		case newer.entries[i].Key < older.entries[j].Key:
			e = newer.entries[i]
			i++
		case newer.entries[i].Key > older.entries[j].Key:
			e = older.entries[j]
			j++
		default: // same key: newer shadows older
			e = newer.entries[i]
			i++
			j++
		}
		if e.Data == nil && !keepTombstones {
			continue
		}
		out = append(out, e)
	}
	b := &Bucket{entries: out}
	b.rehash()
	return b
}

// NumLevels is the depth of the bucket list. With fanout 4 and two buckets
// per level, level i covers ~2·4^i ledgers; 9 levels span ~10^5 ledgers of
// history compression, ample for simulation scales.
const NumLevels = 9

// slot is one bucket position of a level. A resident slot holds the
// decoded bucket in mem; a spilled slot holds only the content hash and
// entry count, with the bytes living in the attached Store. Hash and
// count are always valid, so the list hash and spill scheduling never
// need the store.
type slot struct {
	mem  *Bucket
	hash stellarcrypto.Hash
	n    int
}

func memSlot(b *Bucket) slot { return slot{mem: b, hash: b.Hash(), n: b.Len()} }

// level holds the two buckets of one level: curr accumulates recent spills
// and snap awaits the next spill to the level below.
type level struct {
	curr slot
	snap slot
}

// List is the bucket list: one level pair per exponential age band, plus
// the running list hash (a small, fixed index of bucket hashes re-hashed
// at each ledger close, §5.1).
type List struct {
	levels [NumLevels]level
	hash   stellarcrypto.Hash

	// store selects disk-backed operation (SetStore): slots at levels
	// ≥ spillLevel live in the store as content-addressed files and merges
	// into them stream, so deep levels never materialize in memory. Hashes
	// are byte-identical to the all-resident path.
	store Store

	// pool, when set, runs a close's independent spill merges (and their
	// SHA-256 rehashes) concurrently. The resulting buckets and list hash
	// are identical either way; only wall-clock time changes.
	pool *verify.Pool
}

// NewList creates an empty bucket list.
func NewList() *List {
	l := &List{}
	for i := range l.levels {
		l.levels[i] = level{curr: memSlot(emptyBucket), snap: memSlot(emptyBucket)}
	}
	l.rehash()
	return l
}

// spillLevel is where residency in the store starts on a store-backed list.
// Level 0 is the ingest level — at most two ledgers of changed entries,
// merged at every close — and stays decoded in memory; every deeper level
// is written once, by a streamed merge every two ledgers or less often,
// and read only by the next merge or a restore, so it lives as a file.
const spillLevel = 1

// SetStore attaches a bucket store and migrates every non-empty bucket
// deeper than level 0 into it, freeing their memory. The list hash is
// unchanged: residency is invisible to hashing.
func (l *List) SetStore(s Store) error {
	l.store = s
	for i := spillLevel; i < NumLevels; i++ {
		for _, sl := range []*slot{&l.levels[i].curr, &l.levels[i].snap} {
			if sl.mem == nil || sl.mem.Empty() {
				continue
			}
			if err := s.Put(sl.mem); err != nil {
				return fmt.Errorf("bucket: spill level %d: %w", i, err)
			}
			sl.mem = nil
		}
	}
	return nil
}

// Store returns the attached bucket store (nil when fully in-memory).
func (l *List) Store() Store { return l.store }

// spilled reports whether a slot installed at the given level should live
// in the store rather than in memory.
func (l *List) spilledLevel(i int) bool {
	return l.store != nil && i >= spillLevel
}

// slotReader streams one slot's entries wherever they live.
func (l *List) slotReader(s slot) (EntryReader, error) {
	if s.mem != nil {
		return NewSliceReader(s.mem.Entries()), nil
	}
	return l.store.Reader(s.hash)
}

// slotBucket materializes one slot's bucket.
func (l *List) slotBucket(s slot) (*Bucket, error) {
	if s.mem != nil {
		return s.mem, nil
	}
	return l.store.Load(s.hash)
}

// mustBucket is slotBucket for the internal paths with no error channel
// (Get, AllLive). A store read failing means the node's own durable state
// is unreadable — there is no useful way to continue, so it panics, like
// an I/O error inside a database engine's page read.
func (l *List) mustBucket(s slot) *Bucket {
	b, err := l.slotBucket(s)
	if err != nil {
		panic(fmt.Sprintf("bucket: reading spilled bucket %s: %v", s.hash.Hex(), err))
	}
	return b
}

// half returns the spill period of a level in ledgers.
func half(i int) uint32 {
	h := uint32(2)
	for ; i > 0; i-- {
		h *= 4
	}
	return h
}

// SetPool attaches a worker pool for parallel spill merges; nil restores
// the sequential path.
func (l *List) SetPool(p *verify.Pool) { l.pool = p }

// AddBatch ingests the entries changed by ledger ledgerSeq, spilling
// levels whose period has elapsed, and recomputes the cumulative hash.
//
// The sequential formulation spills from the deepest level upward, each
// spill merging level i's snap onto level i+1's curr. Those merges are
// in fact independent: half(i) divides half(i+1), so the spilling levels
// form a contiguous prefix 0..k, and when level i spills into a level
// i+1 that itself spills, the sequential loop (descending i) has already
// emptied level i+1's curr — so each merge's inputs are the ORIGINAL
// snap of level i plus either the original curr of level i+1 or the
// empty bucket. No merge reads another merge's output. AddBatch exploits
// that: it captures every job's inputs up front, runs the jobs (on the
// pool when attached), then installs results exactly as the sequential
// loop would. Buckets are immutable once built, so sharing them across
// jobs is safe.
func (l *List) AddBatch(ledgerSeq uint32, changed []Entry) {
	var spills [NumLevels]bool
	for i := 0; i <= NumLevels-2; i++ {
		spills[i] = ledgerSeq%half(i) == 0
	}

	merged := make([]slot, NumLevels) // merged[i]: result of level i's spill
	var ingested slot                 // level-0 ingest of the changed entries
	var jobs []func() error
	for i := NumLevels - 2; i >= 0; i-- {
		if !spills[i] {
			continue
		}
		i := i
		newer := l.levels[i].snap
		older := l.levels[i+1].curr
		if spills[i+1] {
			older = memSlot(emptyBucket)
		}
		keepTombstones := i+1 < NumLevels-1
		if l.spilledLevel(i + 1) {
			// Deep-level merge: stream both inputs through the store's
			// writer so the output never materializes in memory. The
			// incremental hash over the canonical entry encodings equals
			// the in-memory Merge+rehash result by construction.
			jobs = append(jobs, func() error {
				s, err := l.mergeToStore(newer, older, keepTombstones)
				if err != nil {
					return fmt.Errorf("level %d spill: %w", i, err)
				}
				merged[i] = s
				return nil
			})
			continue
		}
		jobs = append(jobs, func() error {
			merged[i] = memSlot(Merge(newer.mem, older.mem, keepTombstones))
			return nil
		})
	}
	{
		older := l.levels[0].curr
		if spills[0] {
			older = memSlot(emptyBucket)
		}
		jobs = append(jobs, func() error {
			ingested = memSlot(Merge(NewBucket(changed), older.mem, true))
			return nil
		})
	}
	errs := make([]error, len(jobs))
	if l.pool != nil && l.pool.Workers() > 1 && len(jobs) > 1 {
		l.pool.Run(len(jobs), func(i int) { errs[i] = jobs[i]() })
	} else {
		for i, job := range jobs {
			errs[i] = job()
		}
	}
	for _, err := range errs {
		if err != nil {
			// The bucket list is consensus state: failing to persist a
			// spill means this node can no longer compute the snapshot
			// hash it is about to vote on. Nothing to do but stop.
			panic(fmt.Sprintf("bucket: AddBatch ledger %d: %v", ledgerSeq, err))
		}
	}

	// Install phase: the structural rotation of the sequential loop.
	for i := NumLevels - 2; i >= 0; i-- {
		if !spills[i] {
			continue
		}
		l.levels[i+1].curr = merged[i]
		l.levels[i].snap = l.levels[i].curr
		l.levels[i].curr = memSlot(emptyBucket)
	}
	l.levels[0].curr = ingested
	l.rehash()
}

// mergeToStore streams a spill merge into the store, returning the
// resulting slot. Empty results stay resident as the canonical empty
// bucket (whose hash a zero-entry stream also produces) so no file is
// written for them.
func (l *List) mergeToStore(newer, older slot, keepTombstones bool) (slot, error) {
	nr, err := l.slotReader(newer)
	if err != nil {
		return slot{}, err
	}
	defer nr.Close()
	or, err := l.slotReader(older)
	if err != nil {
		return slot{}, err
	}
	defer or.Close()
	w := l.store.Writer()
	if err := MergeStreams(nr, or, keepTombstones, w); err != nil {
		w.Abort()
		return slot{}, err
	}
	h, n, err := w.Commit()
	if err != nil {
		return slot{}, err
	}
	if n == 0 {
		return memSlot(emptyBucket), nil
	}
	return slot{hash: h, n: n}, nil
}

// rehash recomputes the cumulative list hash from the per-bucket hashes.
func (l *List) rehash() {
	e := xdr.NewEncoder(NumLevels * 64)
	for i := range l.levels {
		e.PutFixed(l.levels[i].curr.hash[:])
		e.PutFixed(l.levels[i].snap.hash[:])
	}
	l.hash = stellarcrypto.HashBytes(e.Bytes())
}

// Hash returns the snapshot hash over all ledger entries.
func (l *List) Hash() stellarcrypto.Hash { return l.hash }

// Clone returns a copy of the list that AddBatch or SetBucket on either one
// leaves unchanged: the copy shares the buckets, which never change, and
// the files of the store, which is never pruned.
func (l *List) Clone() *List {
	c := *l
	return &c
}

// BucketHashes returns the 2·NumLevels bucket hashes (curr, snap per
// level), the "small, fixed index of reference hashes" of §5.1.
func (l *List) BucketHashes() []stellarcrypto.Hash {
	out := make([]stellarcrypto.Hash, 0, 2*NumLevels)
	for i := range l.levels {
		out = append(out, l.levels[i].curr.hash, l.levels[i].snap.hash)
	}
	return out
}

// Bucket returns the bucket at (level, snap?) for archival, loading it
// from the store when the level is spilled.
func (l *List) Bucket(levelIdx int, snap bool) (*Bucket, error) {
	if levelIdx < 0 || levelIdx >= NumLevels {
		return nil, fmt.Errorf("bucket: level %d out of range", levelIdx)
	}
	if snap {
		return l.slotBucket(l.levels[levelIdx].snap)
	}
	return l.slotBucket(l.levels[levelIdx].curr)
}

// SetBucket installs a bucket (used by reconciliation after downloading a
// differing bucket from a peer or archive). On a disk-backed list the
// bucket is persisted and dropped from memory when its level is spilled.
func (l *List) SetBucket(levelIdx int, snap bool, b *Bucket) error {
	if levelIdx < 0 || levelIdx >= NumLevels {
		return fmt.Errorf("bucket: level %d out of range", levelIdx)
	}
	s := memSlot(b)
	if l.spilledLevel(levelIdx) && !b.Empty() {
		if err := l.store.Put(b); err != nil {
			return err
		}
		s.mem = nil
	}
	if snap {
		l.levels[levelIdx].snap = s
	} else {
		l.levels[levelIdx].curr = s
	}
	l.rehash()
	return nil
}

// Get returns the newest version of a key across all levels, reporting
// whether it is live ((entry,true)), deleted, or absent ((_, false)).
// Spilled buckets are decoded from the store on every call; Get stays off
// the transaction hot path (reconciliation and tests only).
func (l *List) Get(key string) (Entry, bool) {
	for i := range l.levels {
		if e, ok := l.mustBucket(l.levels[i].curr).Get(key); ok {
			return e, e.Data != nil
		}
		if e, ok := l.mustBucket(l.levels[i].snap).Get(key); ok {
			return e, e.Data != nil
		}
	}
	return Entry{}, false
}

// AllLive returns every live entry, newest version winning, sorted by key.
// Used to restore full ledger state from an archived bucket list. Spilled
// buckets are streamed, so peak memory is the live set plus one bucket's
// read buffer — not the sum of all levels.
func (l *List) AllLive() []Entry {
	seen := make(map[string]struct{})
	var out []Entry
	scan := func(s slot) {
		r, err := l.slotReader(s)
		if err != nil {
			panic(fmt.Sprintf("bucket: reading spilled bucket %s: %v", s.hash.Hex(), err))
		}
		defer r.Close()
		for {
			e, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				panic(fmt.Sprintf("bucket: reading spilled bucket %s: %v", s.hash.Hex(), err))
			}
			if _, dup := seen[e.Key]; dup {
				continue
			}
			seen[e.Key] = struct{}{}
			if e.Data != nil {
				out = append(out, e)
			}
		}
	}
	for i := range l.levels {
		scan(l.levels[i].curr)
		scan(l.levels[i].snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TotalEntries counts entries across all buckets (tombstones included),
// a measure of bucket merge workload (experiment E3's overhead driver).
func (l *List) TotalEntries() int {
	n := 0
	for i := range l.levels {
		n += l.levels[i].curr.n + l.levels[i].snap.n
	}
	return n
}

// DiffHashes compares two bucket-hash indexes and returns the positions
// that differ — reconciliation after disconnection downloads only those
// buckets (§5.1).
func DiffHashes(a, b []stellarcrypto.Hash) []int {
	var out []int
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			out = append(out, i)
		}
	}
	for i := n; i < len(a) || i < len(b); i++ {
		out = append(out, i)
	}
	return out
}
