// Package history implements the write-only history archive of paper §5.4:
// every confirmed transaction set, every ledger header, and snapshots of
// buckets, stored as flat files so the archive can live on any blob store
// ("cheap places such as Amazon Glacier"). New nodes bootstrap from the
// archive; it is also the system of record for looking up old transactions.
package history

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"stellar/internal/bucket"
	"stellar/internal/bucket/disk"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// Archive is a directory-backed, append-only history archive. Headers,
// transaction sets, and checkpoints are canonical XDR (versioned) so
// archives are portable across Go versions and shareable between nodes.
// Buckets live in a content-addressed bucket store under buckets/ — the
// same format a disk-backed bucket.List uses, so a node pointing its
// list's store at the archive directory stores each bucket exactly once.
type Archive struct {
	dir   string
	store *disk.Store
}

// Open creates (if necessary) and opens an archive rooted at dir.
func Open(dir string) (*Archive, error) {
	for _, sub := range []string{"txsets", "headers", "buckets", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("history: create archive: %w", err)
		}
	}
	store, err := disk.Open(filepath.Join(dir, "buckets"))
	if err != nil {
		return nil, err
	}
	return &Archive{dir: dir, store: store}, nil
}

// Dir returns the archive root.
func (a *Archive) Dir() string { return a.dir }

// BucketStore exposes the archive's content-addressed bucket store. A
// node hands it to bucket.List.SetStore, so its list below level 0 and its
// archive share one set of bucket files.
func (a *Archive) BucketStore() *disk.Store { return a.store }

// Every archive file is framed as magic ‖ sha256(payload) ‖ payload, so
// a read detects any bit rot or truncation with certainty rather than
// relying on the payload codec to notice. The blob stores archives live
// on (§5.4) give no integrity guarantee of their own.
const archiveMagic = "STLRHIS1"

// codecVersion prefixes every XDR payload so the format can evolve while
// old files stay readable.
const codecVersion = 1

// writeFile writes crash-safely: the framed payload goes to a unique temp
// file which is fsynced before an atomic rename, and the directory entry
// is fsynced after — a crash at any instant leaves either the old file,
// no file, or the complete new file, never a torn one.
func (a *Archive) writeFile(rel string, data []byte) error {
	path := filepath.Join(a.dir, rel)
	sum := sha256.Sum256(data)
	// The 40-byte frame header and the payload go out as two writes: a
	// transaction set is hundreds of kilobytes, not worth copying to prepend to.
	header := append([]byte(archiveMagic), sum[:]...)
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("history: write %s: %w", rel, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("history: write %s: %w", rel, err)
	}
	if _, err := f.Write(header); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("history: write %s: %w", rel, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("history: rename %s: %w", rel, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("history: sync dir for %s: %w", rel, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (a *Archive) readFile(rel string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(a.dir, rel))
	if err != nil {
		return nil, fmt.Errorf("history: read %s: %w", rel, err)
	}
	hdrLen := len(archiveMagic) + sha256.Size
	if len(data) < hdrLen || string(data[:len(archiveMagic)]) != archiveMagic {
		return nil, fmt.Errorf("history: %s: corrupted or truncated archive file (bad header)", rel)
	}
	payload := data[hdrLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(archiveMagic):hdrLen]) {
		return nil, fmt.Errorf("history: %s: corrupted or truncated archive file (checksum mismatch)", rel)
	}
	return payload, nil
}

// newPayload starts a versioned canonical XDR payload.
func newPayload() *xdr.Encoder {
	e := xdr.NewEncoder(512)
	e.PutUint32(codecVersion)
	return e
}

// openPayload checks the version prefix of a canonical XDR payload.
func openPayload(data []byte) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(data)
	v, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	if v != codecVersion {
		return nil, fmt.Errorf("history: unsupported archive codec version %d", v)
	}
	return d, nil
}

// PutTxSet archives the transaction set confirmed for a ledger.
func (a *Archive) PutTxSet(seq uint32, ts *ledger.TxSet) error {
	e := newPayload()
	ts.EncodeXDR(e)
	return a.writeFile(fmt.Sprintf("txsets/%08d.xdr", seq), e.Bytes())
}

// GetTxSet retrieves an archived transaction set ("there needs to be some
// place one can look up a transaction from two years ago", §5.4).
func (a *Archive) GetTxSet(seq uint32) (*ledger.TxSet, error) {
	data, err := a.readFile(fmt.Sprintf("txsets/%08d.xdr", seq))
	if err != nil {
		return nil, err
	}
	d, err := openPayload(data)
	if err != nil {
		return nil, err
	}
	ts, err := ledger.DecodeTxSetXDR(d)
	if err != nil {
		return nil, fmt.Errorf("history: decode txset %08d: %w", seq, err)
	}
	if !d.Done() {
		return nil, fmt.Errorf("history: txset %08d: %d trailing bytes", seq, d.Remaining())
	}
	return ts, nil
}

// PutHeader archives a closed ledger header.
func (a *Archive) PutHeader(h *ledger.Header) error {
	e := newPayload()
	h.EncodeXDR(e)
	return a.writeFile(fmt.Sprintf("headers/%08d.xdr", h.LedgerSeq), e.Bytes())
}

// GetHeader retrieves an archived header.
func (a *Archive) GetHeader(seq uint32) (*ledger.Header, error) {
	data, err := a.readFile(fmt.Sprintf("headers/%08d.xdr", seq))
	if err != nil {
		return nil, err
	}
	d, err := openPayload(data)
	if err != nil {
		return nil, err
	}
	h, err := ledger.DecodeHeaderXDR(d)
	if err != nil {
		return nil, fmt.Errorf("history: decode header %08d: %w", seq, err)
	}
	if !d.Done() {
		return nil, fmt.Errorf("history: header %08d: %d trailing bytes", seq, d.Remaining())
	}
	if h.LedgerSeq != seq {
		return nil, fmt.Errorf("history: header file %08d contains seq %d", seq, h.LedgerSeq)
	}
	return h, nil
}

// PutBucket archives a bucket into the content-addressed store; writing
// the same bucket twice is a no-op.
func (a *Archive) PutBucket(b *bucket.Bucket) error {
	return a.store.Put(b)
}

// GetBucket retrieves a bucket by hash, verifying integrity.
func (a *Archive) GetBucket(hash stellarcrypto.Hash) (*bucket.Bucket, error) {
	return a.store.Load(hash)
}

// Checkpoint records, for a ledger sequence, the full set of bucket hashes
// making up the bucket list plus the header hash — everything a new node
// needs to bootstrap.
type Checkpoint struct {
	LedgerSeq    uint32
	HeaderHash   stellarcrypto.Hash
	BucketHashes []stellarcrypto.Hash
}

// EncodeXDR appends the checkpoint's canonical encoding.
func (cp *Checkpoint) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(cp.LedgerSeq)
	e.PutFixed(cp.HeaderHash[:])
	e.PutUint32(uint32(len(cp.BucketHashes)))
	for _, h := range cp.BucketHashes {
		e.PutFixed(h[:])
	}
}

// DecodeCheckpointXDR parses a checkpoint written by EncodeXDR.
func DecodeCheckpointXDR(d *xdr.Decoder) (*Checkpoint, error) {
	cp := &Checkpoint{}
	var err error
	if cp.LedgerSeq, err = d.Uint32(); err != nil {
		return nil, err
	}
	hh, err := d.Fixed(32)
	if err != nil {
		return nil, err
	}
	copy(cp.HeaderHash[:], hh)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > 4*bucket.NumLevels {
		return nil, fmt.Errorf("history: checkpoint declares %d bucket hashes", n)
	}
	for i := uint32(0); i < n; i++ {
		b, err := d.Fixed(32)
		if err != nil {
			return nil, err
		}
		var h stellarcrypto.Hash
		copy(h[:], b)
		cp.BucketHashes = append(cp.BucketHashes, h)
	}
	return cp, nil
}

// PutCheckpoint archives a checkpoint and updates the latest pointer.
func (a *Archive) PutCheckpoint(cp *Checkpoint) error {
	e := newPayload()
	cp.EncodeXDR(e)
	if err := a.writeFile(fmt.Sprintf("checkpoints/%08d.xdr", cp.LedgerSeq), e.Bytes()); err != nil {
		return err
	}
	return a.writeFile("checkpoints/latest", []byte(fmt.Sprintf("%d", cp.LedgerSeq)))
}

// LatestCheckpoint returns the newest archived checkpoint.
func (a *Archive) LatestCheckpoint() (*Checkpoint, error) {
	seq, err := a.LatestCheckpointSeq()
	if err != nil {
		return nil, err
	}
	return a.GetCheckpoint(seq)
}

// LatestCheckpointSeq returns the sequence the latest pointer names.
func (a *Archive) LatestCheckpointSeq() (uint32, error) {
	data, err := a.readFile("checkpoints/latest")
	if err != nil {
		return 0, err
	}
	var seq uint32
	if _, err := fmt.Sscanf(string(data), "%d", &seq); err != nil {
		return 0, fmt.Errorf("history: bad latest pointer: %w", err)
	}
	return seq, nil
}

// GetCheckpoint returns the checkpoint for a specific ledger.
func (a *Archive) GetCheckpoint(seq uint32) (*Checkpoint, error) {
	data, err := a.readFile(fmt.Sprintf("checkpoints/%08d.xdr", seq))
	if err != nil {
		return nil, err
	}
	d, err := openPayload(data)
	if err != nil {
		return nil, err
	}
	cp, err := DecodeCheckpointXDR(d)
	if err != nil {
		return nil, fmt.Errorf("history: decode checkpoint %08d: %w", seq, err)
	}
	if !d.Done() {
		return nil, fmt.Errorf("history: checkpoint %08d: %d trailing bytes", seq, d.Remaining())
	}
	if cp.LedgerSeq != seq {
		return nil, fmt.Errorf("history: checkpoint file %08d contains seq %d", seq, cp.LedgerSeq)
	}
	return cp, nil
}

// RestoreBucketList rebuilds a bucket list from a checkpoint, fetching
// each bucket from the archive.
func (a *Archive) RestoreBucketList(cp *Checkpoint) (*bucket.List, error) {
	l := bucket.NewList()
	if len(cp.BucketHashes) != 2*bucket.NumLevels {
		return nil, fmt.Errorf("history: checkpoint has %d bucket hashes, want %d",
			len(cp.BucketHashes), 2*bucket.NumLevels)
	}
	empty := bucket.EmptyBucket().Hash()
	for i, h := range cp.BucketHashes {
		if h == empty {
			continue
		}
		b, err := a.GetBucket(h)
		if err != nil {
			return nil, err
		}
		if err := l.SetBucket(i/2, i%2 == 1, b); err != nil {
			return nil, err
		}
	}
	return l, nil
}
