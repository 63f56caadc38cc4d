package disk_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/bucket/disk"
)

func e(key, val string) bucket.Entry {
	if val == "" {
		return bucket.Entry{Key: key, Data: nil}
	}
	return bucket.Entry{Key: key, Data: []byte(val)}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := disk.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.NewBucket([]bucket.Entry{
		e("a|1", "hello"), e("a|2", ""), {Key: "a|3", Data: []byte{}},
	})
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if !s.Has(b.Hash()) {
		t.Fatal("Has reports stored bucket missing")
	}
	got, err := s.Load(b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatalf("round trip changed hash: %s vs %s", got.Hash().Hex(), b.Hash().Hex())
	}
	ents := got.Entries()
	if len(ents) != 3 {
		t.Fatalf("got %d entries", len(ents))
	}
	if ents[1].Data != nil {
		t.Fatal("tombstone came back with data")
	}
	if ents[2].Data == nil || len(ents[2].Data) != 0 {
		t.Fatal("present-empty entry not preserved")
	}
	// Streaming read agrees with the decoded bucket.
	r, err := s.Reader(b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; ; i++ {
		en, err := r.Next()
		if err != nil {
			if err.Error() != "EOF" {
				t.Fatalf("stream error: %v", err)
			}
			if i != 3 {
				t.Fatalf("stream ended after %d entries", i)
			}
			break
		}
		if en.Key != ents[i].Key {
			t.Fatalf("stream entry %d key %q, want %q", i, en.Key, ents[i].Key)
		}
	}
}

func TestEmptyBucketNeedsNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	h, n, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || h != bucket.EmptyBucket().Hash() {
		t.Fatalf("empty commit: n=%d hash=%s", n, h.Hex())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("empty bucket left %d files on disk", len(files))
	}
}

func TestCorruptFileRejected(t *testing.T) {
	s, err := disk.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ents []bucket.Entry
	for i := 0; i < 50; i++ {
		ents = append(ents, e(fmt.Sprintf("k|%03d", i), fmt.Sprintf("v%d", i)))
	}
	b := bucket.NewBucket(ents)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	path := s.Path(b.Hash())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 8, 20, len(orig) / 2, len(orig) - 3, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(b.Hash()); err == nil {
			t.Errorf("byte %d flipped: Load succeeded", i)
		}
	}
	// Truncations at a few points must fail too.
	for _, n := range []int{0, 7, 8, 40, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(b.Hash()); err == nil {
			t.Errorf("truncated to %d bytes: Load succeeded", n)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(b.Hash()); err != nil {
		t.Fatalf("restored file unreadable: %v", err)
	}
}

func TestAdopt(t *testing.T) {
	srcStore, err := disk.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dstStore, err := disk.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.NewBucket([]bucket.Entry{e("x|1", "one"), e("x|2", "two")})
	if err := srcStore.Put(b); err != nil {
		t.Fatal(err)
	}
	// Simulate a network fetch: copy the raw file somewhere, adopt it.
	raw, err := os.ReadFile(srcStore.Path(b.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(t.TempDir(), "fetched.part")
	if err := os.WriteFile(part, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dstStore.Adopt(part, b.Hash()); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Load(b.Hash())
	if err != nil || got.Hash() != b.Hash() {
		t.Fatalf("adopted bucket unreadable: %v", err)
	}
	// A tampered fetch must be refused and must not land in the store.
	other := bucket.NewBucket([]bucket.Entry{e("y|1", "evil")})
	if err := srcStore.Put(other); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(srcStore.Path(other.Hash()))
	part2 := filepath.Join(t.TempDir(), "lie.part")
	if err := os.WriteFile(part2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	wrong := bucket.NewBucket([]bucket.Entry{e("z|1", "claimed")}).Hash()
	if err := dstStore.Adopt(part2, wrong); err == nil {
		t.Fatal("adopt accepted a bucket whose content does not match its claimed hash")
	}
	if dstStore.Has(wrong) {
		t.Fatal("refused bucket still landed in the store")
	}
}

// TestDiskMemoryHashEquivalence drives an in-memory list, a MemStore-backed
// list, and a disk-backed list through the same 50 random pipeline
// histories and requires byte-identical level hashes, list hashes, and
// live state at every ledger. This is the property the whole durable-state
// design rests on: where a bucket lives must never leak into what the
// network agrees on.
func TestDiskMemoryHashEquivalence(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed) * 7919))
			plain := bucket.NewList()
			mem := bucket.NewList()
			if err := mem.SetStore(bucket.NewMemStore()); err != nil {
				t.Fatal(err)
			}
			diskStore, err := disk.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			onDisk := bucket.NewList()
			if err := onDisk.SetStore(diskStore); err != nil {
				t.Fatal(err)
			}
			ledgers := 60 + rng.Intn(80)
			for seq := uint32(1); seq <= uint32(ledgers); seq++ {
				n := 1 + rng.Intn(8)
				seen := map[string]bool{}
				var batch []bucket.Entry
				for len(batch) < n {
					key := fmt.Sprintf("a|%04d", rng.Intn(200))
					if seen[key] {
						continue
					}
					seen[key] = true
					if rng.Intn(10) == 0 {
						batch = append(batch, e(key, "")) // tombstone
					} else if rng.Intn(20) == 0 {
						batch = append(batch, bucket.Entry{Key: key, Data: []byte{}})
					} else {
						batch = append(batch, e(key, fmt.Sprintf("v%d", rng.Int63())))
					}
				}
				plain.AddBatch(seq, batch)
				mem.AddBatch(seq, batch)
				onDisk.AddBatch(seq, batch)
				if ph, dh := plain.Hash(), onDisk.Hash(); ph != dh {
					t.Fatalf("seq %d: disk list hash %s, in-memory %s", seq, dh.Hex(), ph.Hex())
				}
				if plain.Hash() != mem.Hash() {
					t.Fatalf("seq %d: memstore list hash diverged", seq)
				}
			}
			ph, dh := plain.BucketHashes(), onDisk.BucketHashes()
			for i := range ph {
				if ph[i] != dh[i] {
					t.Fatalf("bucket %d: disk hash %s, memory %s", i, dh[i].Hex(), ph[i].Hex())
				}
			}
			pl, dl := plain.AllLive(), onDisk.AllLive()
			if len(pl) != len(dl) {
				t.Fatalf("live sets differ: %d vs %d", len(pl), len(dl))
			}
			for i := range pl {
				if pl[i].Key != dl[i].Key || string(pl[i].Data) != string(dl[i].Data) {
					t.Fatalf("live entry %d differs", i)
				}
			}
			if entryCount(t, plain) != entryCount(t, onDisk) {
				t.Fatalf("entry counts differ: %d vs %d", entryCount(t, plain), entryCount(t, onDisk))
			}
		})
	}
}

// entryCount counts the entries of a list's buckets, tombstones included,
// streaming those that live in its store.
func entryCount(t *testing.T, l *bucket.List) int {
	t.Helper()
	n := 0
	for i, h := range l.BucketHashes() {
		if s := l.Store(); s != nil && s.Has(h) {
			r, err := s.Reader(h)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err = r.Next(); err != nil {
					break
				}
				n++
			}
			r.Close()
			if err != io.EOF {
				t.Fatal(err)
			}
			continue
		}
		b, err := l.Bucket(i/2, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		n += b.Len()
	}
	return n
}

// TestBoundedMemoryLargeLedger builds a ledger of ~1M accounts through a
// disk-backed list and asserts the live heap stays far below what holding
// the state in memory would need. Under -short (and thus under -race in
// CI's quick loops) a smaller ledger keeps the test snappy.
func TestBoundedMemoryLargeLedger(t *testing.T) {
	entries, perBatch := 1_000_000, 10_000
	budget := uint64(128 << 20) // in-memory the data alone would need >160 MB
	if testing.Short() || raceEnabled {
		entries, perBatch = 100_000, 4000
	}
	s, err := disk.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := bucket.NewList()
	if err := l.SetStore(s); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("p", 128)
	var peak uint64
	sample := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	seq := uint32(1)
	for done := 0; done < entries; done += perBatch {
		batch := make([]bucket.Entry, 0, perBatch)
		for j := 0; j < perBatch; j++ {
			batch = append(batch, e(fmt.Sprintf("a|%09d", done+j), payload))
		}
		l.AddBatch(seq, batch)
		seq++
		if seq%16 == 0 {
			sample()
		}
	}
	sample()
	if got := entryCount(t, l); got != entries {
		t.Fatalf("list holds %d entries, want %d", got, entries)
	}
	if peak > budget {
		t.Fatalf("peak live heap %d MiB exceeds budget %d MiB",
			peak>>20, budget>>20)
	}
	t.Logf("%d entries, peak live heap %d MiB (budget %d MiB)", entries, peak>>20, budget>>20)
}
