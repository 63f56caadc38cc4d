package bucket

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"stellar/internal/stellarcrypto"
	"stellar/internal/verify"
	"stellar/internal/xdr"
)

func e(key, val string) Entry {
	if val == "" {
		return Entry{Key: key, Data: nil}
	}
	return Entry{Key: key, Data: []byte(val)}
}

func TestBucketSortedAndHashed(t *testing.T) {
	b := NewBucket([]Entry{e("b", "2"), e("a", "1"), e("c", "3")})
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	es := b.Entries()
	if es[0].Key != "a" || es[2].Key != "c" {
		t.Fatal("not sorted")
	}
	b2 := NewBucket([]Entry{e("a", "1"), e("c", "3"), e("b", "2")})
	if b.Hash() != b2.Hash() {
		t.Fatal("hash depends on insertion order")
	}
	b3 := NewBucket([]Entry{e("a", "1")})
	if b.Hash() == b3.Hash() {
		t.Fatal("different buckets hash equal")
	}
}

func TestBucketGet(t *testing.T) {
	b := NewBucket([]Entry{e("a", "1"), e("c", "3")})
	if got, ok := b.Get("a"); !ok || string(got.Data) != "1" {
		t.Fatal("Get(a) wrong")
	}
	if _, ok := b.Get("b"); ok {
		t.Fatal("Get(b) found phantom")
	}
}

func TestMergeNewerShadows(t *testing.T) {
	older := NewBucket([]Entry{e("a", "old"), e("b", "keep")})
	newer := NewBucket([]Entry{e("a", "new"), e("c", "add")})
	m := Merge(newer, older, true)
	if got, _ := m.Get("a"); string(got.Data) != "new" {
		t.Fatal("newer did not shadow")
	}
	if got, _ := m.Get("b"); string(got.Data) != "keep" {
		t.Fatal("older-only entry lost")
	}
	if m.Len() != 3 {
		t.Fatalf("merged len = %d", m.Len())
	}
}

func TestMergeTombstones(t *testing.T) {
	older := NewBucket([]Entry{e("a", "1"), e("b", "2")})
	newer := NewBucket([]Entry{e("a", "")}) // tombstone
	kept := Merge(newer, older, true)
	if got, ok := kept.Get("a"); !ok || got.Data != nil {
		t.Fatal("tombstone not preserved with keepTombstones")
	}
	dropped := Merge(newer, older, false)
	if _, ok := dropped.Get("a"); ok {
		t.Fatal("tombstone not annihilated at bottom level")
	}
	if got, ok := dropped.Get("b"); !ok || string(got.Data) != "2" {
		t.Fatal("unrelated entry lost at bottom merge")
	}
}

func TestEmptyBucket(t *testing.T) {
	if !EmptyBucket().Empty() || EmptyBucket().Len() != 0 {
		t.Fatal("empty bucket not empty")
	}
}

func TestListAddBatchAndGet(t *testing.T) {
	l := NewList()
	l.AddBatch(1, []Entry{e("x", "1")})
	if got, ok := l.Get("x"); !ok || string(got.Data) != "1" {
		t.Fatal("entry not visible after AddBatch")
	}
	l.AddBatch(2, []Entry{e("x", "2")})
	if got, _ := l.Get("x"); string(got.Data) != "2" {
		t.Fatal("newer version not returned")
	}
}

func TestListDeletionVisible(t *testing.T) {
	l := NewList()
	l.AddBatch(1, []Entry{e("x", "1")})
	l.AddBatch(2, []Entry{e("x", "")})
	if _, live := l.Get("x"); live {
		t.Fatal("deleted entry still live")
	}
}

func TestListHashChangesWithContent(t *testing.T) {
	l := NewList()
	h0 := l.Hash()
	l.AddBatch(1, []Entry{e("x", "1")})
	h1 := l.Hash()
	if h0 == h1 {
		t.Fatal("hash ignores content")
	}
	// Deterministic for the same history.
	l2 := NewList()
	l2.AddBatch(1, []Entry{e("x", "1")})
	if l2.Hash() != h1 {
		t.Fatal("hash not deterministic")
	}
}

func TestListSpillsKeepAllEntries(t *testing.T) {
	// Run many ledgers; every inserted key must remain retrievable.
	l := NewList()
	for seq := uint32(1); seq <= 200; seq++ {
		l.AddBatch(seq, []Entry{e(fmt.Sprintf("key-%03d", seq), fmt.Sprintf("v%d", seq))})
	}
	for seq := uint32(1); seq <= 200; seq++ {
		key := fmt.Sprintf("key-%03d", seq)
		got, live := l.Get(key)
		if !live || string(got.Data) != fmt.Sprintf("v%d", seq) {
			t.Fatalf("key %s lost after spills (live=%v)", key, live)
		}
	}
	// Entries must actually have spilled beyond level 0.
	b0c, _ := l.Bucket(0, false)
	b0s, _ := l.Bucket(0, true)
	if b0c.Len()+b0s.Len() >= 200 {
		t.Fatal("nothing spilled out of level 0")
	}
}

func TestListUpdatesShadowAcrossLevels(t *testing.T) {
	l := NewList()
	l.AddBatch(1, []Entry{e("k", "old")})
	// Push it down a few levels.
	for seq := uint32(2); seq <= 64; seq++ {
		l.AddBatch(seq, nil)
	}
	l.AddBatch(65, []Entry{e("k", "new")})
	if got, _ := l.Get("k"); string(got.Data) != "new" {
		t.Fatalf("stale version returned: %q", got.Data)
	}
	live := l.AllLive()
	count := 0
	for _, en := range live {
		if en.Key == "k" {
			count++
			if string(en.Data) != "new" {
				t.Fatal("AllLive returned stale version")
			}
		}
	}
	if count != 1 {
		t.Fatalf("AllLive returned %d copies", count)
	}
}

func TestAllLiveExcludesDeleted(t *testing.T) {
	l := NewList()
	l.AddBatch(1, []Entry{e("a", "1"), e("b", "2")})
	for seq := uint32(2); seq <= 16; seq++ {
		l.AddBatch(seq, nil)
	}
	l.AddBatch(17, []Entry{e("a", "")})
	live := l.AllLive()
	if len(live) != 1 || live[0].Key != "b" {
		t.Fatalf("AllLive = %v", live)
	}
}

func TestRestoreEquivalence(t *testing.T) {
	// Two lists fed the same history have the same hash and live set.
	feed := func() *List {
		l := NewList()
		for seq := uint32(1); seq <= 100; seq++ {
			var batch []Entry
			batch = append(batch, e(fmt.Sprintf("k%d", seq%10), fmt.Sprintf("v%d", seq)))
			if seq%7 == 0 {
				batch = append(batch, e(fmt.Sprintf("k%d", (seq+3)%10), ""))
			}
			l.AddBatch(seq, batch)
		}
		return l
	}
	a, b := feed(), feed()
	if a.Hash() != b.Hash() {
		t.Fatal("same history, different hashes")
	}
	la, lb := a.AllLive(), b.AllLive()
	if len(la) != len(lb) {
		t.Fatalf("live sets differ: %d vs %d", len(la), len(lb))
	}
}

func TestDiffHashes(t *testing.T) {
	l1 := NewList()
	l2 := NewList()
	l1.AddBatch(1, []Entry{e("x", "1")})
	l2.AddBatch(1, []Entry{e("x", "1")})
	if d := DiffHashes(l1.BucketHashes(), l2.BucketHashes()); len(d) != 0 {
		t.Fatalf("identical lists differ: %v", d)
	}
	l2.AddBatch(2, []Entry{e("y", "2")})
	d := DiffHashes(l1.BucketHashes(), l2.BucketHashes())
	if len(d) == 0 {
		t.Fatal("diverged lists report no diff")
	}
	// Only level 0 should differ after one extra ledger.
	for _, idx := range d {
		if idx >= 2 {
			t.Fatalf("unexpected deep-level diff at %d", idx)
		}
	}
}

func TestReconcileViaDiff(t *testing.T) {
	// A stale list catches up by copying only differing buckets.
	fresh := NewList()
	stale := NewList()
	for seq := uint32(1); seq <= 50; seq++ {
		batch := []Entry{e(fmt.Sprintf("k%02d", seq), "v")}
		fresh.AddBatch(seq, batch)
		if seq <= 30 {
			stale.AddBatch(seq, batch)
		}
	}
	// stale stopped at 30; copy differing buckets from fresh.
	diff := DiffHashes(stale.BucketHashes(), fresh.BucketHashes())
	if len(diff) == 0 {
		t.Fatal("no diff detected")
	}
	if len(diff) == len(fresh.BucketHashes()) {
		t.Fatal("diff covers everything; reconciliation saves nothing")
	}
	for _, idx := range diff {
		b, err := fresh.Bucket(idx/2, idx%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := stale.SetBucket(idx/2, idx%2 == 1, b); err != nil {
			t.Fatal(err)
		}
	}
	if stale.Hash() != fresh.Hash() {
		t.Fatal("reconciliation did not converge")
	}
}

func TestHalfPeriods(t *testing.T) {
	if half(0) != 2 || half(1) != 8 || half(2) != 32 {
		t.Fatalf("half = %d %d %d", half(0), half(1), half(2))
	}
}

func TestBucketLevelBounds(t *testing.T) {
	l := NewList()
	if _, err := l.Bucket(-1, false); err == nil {
		t.Fatal("negative level accepted")
	}
	if _, err := l.Bucket(NumLevels, false); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := l.SetBucket(NumLevels, false, EmptyBucket()); err == nil {
		t.Fatal("SetBucket out of range accepted")
	}
}

func TestPropertyListMatchesMap(t *testing.T) {
	// The bucket list agrees with a plain map under random histories.
	f := func(ops []struct {
		Key uint8
		Val uint8
		Del bool
	}) bool {
		l := NewList()
		ref := map[string]string{}
		seq := uint32(1)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%16)
			if op.Del {
				l.AddBatch(seq, []Entry{e(key, "")})
				delete(ref, key)
			} else {
				val := fmt.Sprintf("v%d", op.Val)
				l.AddBatch(seq, []Entry{e(key, val)})
				ref[key] = val
			}
			seq++
		}
		live := l.AllLive()
		if len(live) != len(ref) {
			return false
		}
		for _, en := range live {
			if ref[en.Key] != string(en.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBatchParallelMatchesSequential(t *testing.T) {
	// The pooled spill path must produce byte-identical buckets and list
	// hash at every step of a long, spill-heavy history.
	seqList := NewList()
	parList := NewList()
	parList.SetPool(verify.NewPool(4))
	for seq := uint32(1); seq <= 300; seq++ {
		var batch []Entry
		for k := 0; k < 5; k++ {
			key := fmt.Sprintf("k%03d", (int(seq)*7+k*13)%97)
			if (int(seq)+k)%11 == 0 {
				batch = append(batch, e(key, "")) // tombstone
			} else {
				batch = append(batch, e(key, fmt.Sprintf("v%d-%d", seq, k)))
			}
		}
		seqList.AddBatch(seq, batch)
		parList.AddBatch(seq, batch)
		if seqList.Hash() != parList.Hash() {
			t.Fatalf("seq %d: parallel list hash diverged", seq)
		}
	}
	sh, ph := seqList.BucketHashes(), parList.BucketHashes()
	for i := range sh {
		if sh[i] != ph[i] {
			t.Fatalf("bucket %d hash diverged", i)
		}
	}
	sl, pl := seqList.AllLive(), parList.AllLive()
	if len(sl) != len(pl) {
		t.Fatalf("live sets differ: %d vs %d", len(sl), len(pl))
	}
	for i := range sl {
		if sl[i].Key != pl[i].Key || string(sl[i].Data) != string(pl[i].Data) {
			t.Fatalf("live entry %d differs", i)
		}
	}
}

// oneBufferHash is the rehash this package used before it streamed: the
// whole concatenated encoding in one buffer, hashed at once.
func oneBufferHash(b *Bucket) stellarcrypto.Hash {
	e := xdr.NewEncoder(64 * len(b.entries))
	for _, entry := range b.entries {
		AppendEntryEncoding(e, entry)
	}
	return stellarcrypto.HashBytes(e.Bytes())
}

func TestRehashStreamsTheSameHash(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 1000; i++ {
		n := rng.Intn(400)
		if i%10 == 0 {
			n = rng.Intn(4) // the empty and near-empty buckets too
		}
		seen := map[string]bool{}
		var entries []Entry
		for len(entries) < n {
			key := fmt.Sprintf("k|%0*d", 1+rng.Intn(60), rng.Intn(100000))
			if seen[key] {
				continue
			}
			seen[key] = true
			switch rng.Intn(8) {
			case 0:
				entries = append(entries, Entry{Key: key}) // tombstone
			case 1:
				entries = append(entries, Entry{Key: key, Data: []byte{}})
			default:
				data := make([]byte, rng.Intn(300))
				rng.Read(data)
				entries = append(entries, Entry{Key: key, Data: data})
			}
		}
		b := NewBucket(entries)
		if want := oneBufferHash(b); b.Hash() != want {
			t.Fatalf("bucket %d (%d entries): streamed hash %s, one-buffer hash %s", i, n, b.Hash().Hex(), want.Hex())
		}
	}
}

// residentAbove returns the first level above 0 that holds a decoded,
// non-empty bucket, or -1.
func (l *List) residentAbove() int {
	for i := 1; i < NumLevels; i++ {
		for _, s := range []slot{l.levels[i].curr, l.levels[i].snap} {
			if s.mem != nil && !s.mem.Empty() {
				return i
			}
		}
	}
	return -1
}

// TestStoreBackedListHoldsOnlyLevelZero: once a list has a store, no
// bucket below level 0 is decoded in memory — not after SetStore migrates
// a list that grew without one, and not after any AddBatch across 640
// ledgers, which covers ledger 512, where levels 0–4 all spill at once and
// level 4 for the first time — while its hashes equal an all-resident
// list's at every ledger.
func TestStoreBackedListHoldsOnlyLevelZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	resident, backed := NewList(), NewList()
	store := NewMemStore()
	batch := func(seq uint32) []Entry {
		var out []Entry
		for k := rng.Intn(6); k < 12; k++ {
			key := fmt.Sprintf("k%03d-%d", (int(seq)*7+k*13)%151, k)
			if rng.Intn(9) == 0 {
				out = append(out, e(key, "")) // tombstone
			} else {
				out = append(out, e(key, fmt.Sprintf("v%d", seq)))
			}
		}
		SortEntries(out)
		return out
	}
	for seq := uint32(1); seq <= 640; seq++ {
		if seq == 40 {
			if backed.residentAbove() < 0 {
				t.Fatal("setup: nothing below level 0 to migrate")
			}
			if err := backed.SetStore(store); err != nil {
				t.Fatal(err)
			}
			if lvl := backed.residentAbove(); lvl >= 0 {
				t.Fatalf("after SetStore: level %d still decoded in memory", lvl)
			}
		}
		b := batch(seq)
		resident.AddBatch(seq, b)
		backed.AddBatch(seq, b)
		if resident.Hash() != backed.Hash() {
			t.Fatalf("seq %d: store-backed list hash diverged", seq)
		}
		if lvl := backed.residentAbove(); seq >= 40 && lvl >= 0 {
			t.Fatalf("seq %d: level %d decoded in memory", seq, lvl)
		}
	}
	if resident.levels[4].snap.n == 0 {
		t.Fatal("setup: level 4 never spilled")
	}
	if len(store.m) == 0 {
		t.Fatal("setup: the store holds no bucket")
	}
}
