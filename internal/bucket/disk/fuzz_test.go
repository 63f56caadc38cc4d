package disk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"stellar/internal/bucket"
	"stellar/internal/stellarcrypto"
)

// FuzzBucketFile feeds the bucket file reader damaged and arbitrary files:
// valid files with bytes flipped, cut off or appended, and raw bytes. With
// reseal set the harness first rewrites the file's checksum over the
// payload it now holds, so a damaged entry region or count trailer reaches
// the entry decoder and the trailer checks rather than stopping at the
// checksum. Each file is stored under two names: the hash of one valid
// bucket, and the hash its own entry region would have. Store.Reader and
// Store.Load must never panic, must agree, and either return an error or
// return entries whose content hash is the name the file is stored under.
func FuzzBucketFile(f *testing.F) {
	seeds, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	var named stellarcrypto.Hash
	for i, entries := range [][]bucket.Entry{
		{{Key: "a|1", Data: []byte("hello")}, {Key: "a|2"}, {Key: "a|3", Data: []byte{}}},
		{{Key: "k", Data: []byte("1234")}, {Key: "kk", Data: []byte("12345")}},
		{{Key: "t|only"}},
	} {
		b := bucket.NewBucket(entries)
		if err := seeds.Put(b); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			named = b.Hash()
		}
		file, err := os.ReadFile(seeds.Path(b.Hash()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file, false)
		f.Add(file[:len(file)-5], false)
		f.Add(append(bytes.Clone(file), 0, 0, 0, 0), true)
		for _, at := range []int{3, headerLen + 2, headerLen + 7, len(file) - 9, len(file) - 1} {
			flipped := bytes.Clone(file)
			flipped[at] ^= 0x10
			f.Add(flipped, at >= headerLen)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, headerLen, headerLen + 8, 200} {
		raw := make([]byte, n)
		rng.Read(raw)
		f.Add(raw, true)
	}

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, file []byte, reseal bool) {
		file = bytes.Clone(file)
		if reseal && len(file) >= headerLen {
			sum := sha256.Sum256(file[headerLen:])
			copy(file[len(Magic):], sum[:])
		}
		names := []stellarcrypto.Hash{named}
		if len(file) >= headerLen+8 {
			names = append(names, stellarcrypto.HashBytes(file[headerLen+4:len(file)-4]))
		}
		for _, h := range names {
			if err := os.WriteFile(s.Path(h), file, 0o644); err != nil {
				t.Fatal(err)
			}
			streamed, rerr := readAll(s, h)
			loaded, lerr := s.Load(h)
			if (rerr == nil) != (lerr == nil) {
				t.Fatalf("Reader and Load disagree: %v / %v", rerr, lerr)
			}
			if rerr != nil {
				continue
			}
			if got := contentHash(t, streamed); got != h {
				t.Fatalf("Reader returned entries hashing to %s from the file named %s", got.Hex(), h.Hex())
			}
			if loaded.Hash() != h || loaded.Len() != len(streamed) || len(streamed) > 0 && !reflect.DeepEqual(loaded.Entries(), streamed) {
				t.Fatalf("Load returned a bucket hashing to %s from the file named %s", loaded.Hash().Hex(), h.Hex())
			}
		}
	})
}

// readAll drains a store reader.
func readAll(s *Store, h stellarcrypto.Hash) ([]bucket.Entry, error) {
	r, err := s.Reader(h)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []bucket.Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

func contentHash(t *testing.T, entries []bucket.Entry) stellarcrypto.Hash {
	enc := bucket.NewEntryEncoder(nil)
	for _, e := range entries {
		if err := enc.Append(e); err != nil {
			t.Fatal(fmt.Errorf("Reader returned %w", err))
		}
	}
	h, _, err := enc.Sum()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
