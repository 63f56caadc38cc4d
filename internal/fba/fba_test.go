package fba

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

func ids(names ...string) []NodeID {
	out := make([]NodeID, len(names))
	for i, n := range names {
		out[i] = NodeID(n)
	}
	return out
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet("a", "b")
	if !s.Has("a") || s.Has("c") {
		t.Fatal("membership wrong")
	}
	s.Add("c")
	s.Remove("a")
	if s.Has("a") || !s.Has("c") {
		t.Fatal("add/remove wrong")
	}
	u := NewNodeSet("x").Union(NewNodeSet("y"))
	if len(u) != 2 {
		t.Fatal("union wrong")
	}
	i := NewNodeSet("x", "y").Intersect(NewNodeSet("y", "z"))
	if !i.Equal(NewNodeSet("y")) {
		t.Fatal("intersect wrong")
	}
	m := NewNodeSet("x", "y").Minus(NewNodeSet("y"))
	if !m.Equal(NewNodeSet("x")) {
		t.Fatal("minus wrong")
	}
	if !NewNodeSet("a").Subset(NewNodeSet("a", "b")) {
		t.Fatal("subset wrong")
	}
	if NewNodeSet("a", "z").Subset(NewNodeSet("a", "b")) {
		t.Fatal("subset false positive")
	}
	if !NewNodeSet("a", "b").Intersects(NewNodeSet("b", "c")) {
		t.Fatal("intersects wrong")
	}
	if NewNodeSet("a").Intersects(NewNodeSet("b")) {
		t.Fatal("intersects false positive")
	}
}

func TestNodeSetSortedDeterministic(t *testing.T) {
	s := NewNodeSet("c", "a", "b")
	got := s.Sorted()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("sorted = %v", got)
	}
	if s.String() != "{a, b, c}" {
		t.Fatalf("string = %s", s.String())
	}
}

func TestMajorityAndAll(t *testing.T) {
	m := Majority(ids("a", "b", "c", "d")...)
	if m.Threshold != 3 {
		t.Fatalf("majority of 4 threshold = %d", m.Threshold)
	}
	a := All(ids("a", "b")...)
	if a.Threshold != 2 {
		t.Fatalf("all of 2 threshold = %d", a.Threshold)
	}
}

func TestPercentThreshold(t *testing.T) {
	cases := []struct{ n, pct, want int }{
		{3, 51, 2},
		{3, 67, 3},
		{4, 51, 3},
		{5, 51, 3},
		{6, 67, 5},
		{1, 100, 1},
		{3, 100, 3},
		{10, 51, 6},
	}
	for _, c := range cases {
		if got := PercentThreshold(c.n, c.pct); got != c.want {
			t.Errorf("PercentThreshold(%d,%d) = %d, want %d", c.n, c.pct, got, c.want)
		}
	}
}

func TestQuorumSetValidate(t *testing.T) {
	good := Majority(ids("a", "b", "c")...)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	bad := QuorumSet{Threshold: 0, Validators: ids("a")}
	if err := bad.Validate(); err == nil {
		t.Fatal("threshold 0 accepted")
	}
	bad = QuorumSet{Threshold: 3, Validators: ids("a", "b")}
	if err := bad.Validate(); err == nil {
		t.Fatal("threshold > size accepted")
	}
	bad = QuorumSet{Threshold: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty set accepted")
	}
	bad = QuorumSet{Threshold: 1, Validators: ids("a", "a")}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate validator accepted")
	}
}

func TestSatisfiedByFlat(t *testing.T) {
	q := Majority(ids("a", "b", "c")...) // 2 of 3
	if !q.SatisfiedBy(NewNodeSet("a", "b")) {
		t.Fatal("2 of 3 not satisfied by 2")
	}
	if q.SatisfiedBy(NewNodeSet("a")) {
		t.Fatal("2 of 3 satisfied by 1")
	}
	if !q.SatisfiedBy(NewNodeSet("a", "b", "c", "z")) {
		t.Fatal("superset not satisfying")
	}
}

func TestSatisfiedByNested(t *testing.T) {
	// 2-of-{orgA(2-of-3), orgB(2-of-3), orgC(2-of-3)}: the paper's
	// organization grouping (Fig 6).
	orgA := Majority(ids("a1", "a2", "a3")...)
	orgB := Majority(ids("b1", "b2", "b3")...)
	orgC := Majority(ids("c1", "c2", "c3")...)
	q := QuorumSet{Threshold: 2, InnerSets: []QuorumSet{orgA, orgB, orgC}}

	if !q.SatisfiedBy(NewNodeSet("a1", "a2", "b1", "b2")) {
		t.Fatal("two full orgs should satisfy")
	}
	if q.SatisfiedBy(NewNodeSet("a1", "a2", "b1")) {
		t.Fatal("one org plus a fragment should not satisfy")
	}
	if q.SatisfiedBy(NewNodeSet("a1", "b1", "c1")) {
		t.Fatal("fragments of three orgs should not satisfy")
	}
}

func TestBlockedByFlat(t *testing.T) {
	q := Majority(ids("a", "b", "c", "d")...) // 3 of 4: blocking needs 2
	if q.BlockedBy(NewNodeSet("a")) {
		t.Fatal("single node blocks 3-of-4")
	}
	if !q.BlockedBy(NewNodeSet("a", "b")) {
		t.Fatal("two nodes do not block 3-of-4")
	}
}

func TestBlockedByNested(t *testing.T) {
	orgA := Majority(ids("a1", "a2", "a3")...)
	orgB := Majority(ids("b1", "b2", "b3")...)
	q := QuorumSet{Threshold: 2, InnerSets: []QuorumSet{orgA, orgB}}
	// Blocking one org (2 of its 3 nodes) blocks the whole set
	// (threshold 2 of 2 entries → need to block 1 entry).
	if !q.BlockedBy(NewNodeSet("a1", "a2")) {
		t.Fatal("blocked org does not block 2-of-2")
	}
	if q.BlockedBy(NewNodeSet("a1", "b1")) {
		t.Fatal("single nodes from each org should not block")
	}
}

// blockedByIsSliceIntersection cross-checks BlockedBy against the
// definition: B is v-blocking iff B intersects every slice.
func TestBlockedMatchesSliceIntersection(t *testing.T) {
	orgA := Majority(ids("a1", "a2", "a3")...)
	orgB := Majority(ids("b1", "b2")...)
	q := QuorumSet{Threshold: 2, Validators: ids("x"), InnerSets: []QuorumSet{orgA, orgB}}
	slices := q.Slices()
	members := q.Members().Sorted()
	for mask := 0; mask < 1<<len(members); mask++ {
		b := make(NodeSet)
		for i, m := range members {
			if mask&(1<<i) != 0 {
				b.Add(m)
			}
		}
		intersectsAll := true
		for _, s := range slices {
			if !s.Intersects(b) {
				intersectsAll = false
				break
			}
		}
		if got := q.BlockedBy(b); got != intersectsAll {
			t.Fatalf("BlockedBy(%s)=%v, slice-intersection=%v", b, got, intersectsAll)
		}
	}
}

func TestSlicesFlat(t *testing.T) {
	q := Majority(ids("a", "b", "c")...) // 2 of 3 → 3 slices
	slices := q.Slices()
	if len(slices) != 3 {
		t.Fatalf("got %d slices, want 3", len(slices))
	}
	for _, s := range slices {
		if len(s) != 2 {
			t.Fatalf("slice %s has size %d, want 2", s, len(s))
		}
	}
}

func TestSlicesSatisfiedByConsistency(t *testing.T) {
	// Every set satisfies the qset iff it contains some enumerated slice.
	orgA := Majority(ids("a1", "a2")...)
	q := QuorumSet{Threshold: 2, Validators: ids("x", "y"), InnerSets: []QuorumSet{orgA}}
	slices := q.Slices()
	members := q.Members().Sorted()
	for mask := 0; mask < 1<<len(members); mask++ {
		s := make(NodeSet)
		for i, m := range members {
			if mask&(1<<i) != 0 {
				s.Add(m)
			}
		}
		containsSlice := false
		for _, sl := range slices {
			if sl.Subset(s) {
				containsSlice = true
				break
			}
		}
		if got := q.SatisfiedBy(s); got != containsSlice {
			t.Fatalf("SatisfiedBy(%s)=%v, contains-slice=%v", s, got, containsSlice)
		}
	}
}

func TestQuorumSetHashDeterministic(t *testing.T) {
	a := Majority(ids("a", "b", "c")...)
	b := Majority(ids("c", "b", "a")...) // different order, same set
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on validator order")
	}
	c := Majority(ids("a", "b", "d")...)
	if a.Hash() == c.Hash() {
		t.Fatal("different sets hash equal")
	}
}

func TestQuorumSetXDRRoundTrip(t *testing.T) {
	orgA := Majority(ids("a1", "a2", "a3")...)
	q := QuorumSet{Threshold: 2, Validators: ids("x"), InnerSets: []QuorumSet{orgA}}
	e := xdr.NewEncoder(0)
	q.EncodeXDR(e)
	d := xdr.NewDecoder(e.Bytes())
	back, err := DecodeQuorumSetXDR(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Hash() != q.Hash() {
		t.Fatal("round trip changed hash")
	}
}

// rawQSet is a quorum set as bytes may carry it: validators in any order.
type rawQSet struct {
	threshold  uint32
	validators []string
	inner      []rawQSet
}

func (r rawQSet) encode(e *xdr.Encoder) {
	e.PutUint32(r.threshold)
	e.PutUint32(uint32(len(r.validators)))
	for _, v := range r.validators {
		e.PutString(v)
	}
	e.PutUint32(uint32(len(r.inner)))
	for _, in := range r.inner {
		in.encode(e)
	}
}

// TestDecodeQuorumSetCanonicalOnly: the decoder accepts a validator list
// only in EncodeXDR's order, at every nesting level, so whatever it accepts
// re-encodes to the same bytes.
func TestDecodeQuorumSetCanonicalOnly(t *testing.T) {
	sorted := rawQSet{threshold: 2, validators: []string{"a", "b", "c"}}
	for _, tc := range []struct {
		name string
		q    rawQSet
		ok   bool
	}{
		{"sorted", sorted, true},
		{"unsorted", rawQSet{threshold: 2, validators: []string{"b", "a", "c"}}, false},
		{"duplicate", rawQSet{threshold: 2, validators: []string{"a", "b", "b"}}, false},
		{"duplicate only", rawQSet{threshold: 1, validators: []string{"a", "a"}}, false},
		{"empty", rawQSet{threshold: 0}, true},
		{"nested sorted", rawQSet{threshold: 2, validators: []string{"x", "y"}, inner: []rawQSet{sorted, {threshold: 1, validators: []string{"p"}}}}, true},
		{"nested unsorted inner", rawQSet{threshold: 1, validators: []string{"x"}, inner: []rawQSet{{threshold: 1, validators: []string{"q", "p"}}}}, false},
		{"nested duplicate inner", rawQSet{threshold: 1, inner: []rawQSet{sorted, {threshold: 1, validators: []string{"p", "p"}}}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := xdr.NewEncoder(0)
			tc.q.encode(e)
			q, err := DecodeQuorumSetXDR(xdr.NewDecoder(e.Bytes()))
			if !tc.ok {
				if err == nil {
					t.Fatalf("accepted %s", q.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			back := xdr.NewEncoder(0)
			q.EncodeXDR(back)
			if !bytes.Equal(back.Bytes(), e.Bytes()) {
				t.Fatalf("round trip not canonical:\n in:  %x\n out: %x", e.Bytes(), back.Bytes())
			}
		})
	}
}

func TestWeightFlat(t *testing.T) {
	q := Majority(ids("a", "b", "c", "d")...) // 3 of 4
	if w := q.Weight("a"); w != 0.75 {
		t.Fatalf("weight = %v, want 0.75", w)
	}
	if w := q.Weight("zzz"); w != 0 {
		t.Fatalf("weight of non-member = %v", w)
	}
}

func TestWeightNested(t *testing.T) {
	orgA := Majority(ids("a1", "a2", "a3")...) // 2 of 3 → member weight 2/3
	q := QuorumSet{Threshold: 1, InnerSets: []QuorumSet{orgA}, Validators: ids("x")}
	// Top level: 1 of 2 entries → frac 1/2; nested a1: 1/2 * 2/3 = 1/3.
	if w := q.Weight("a1"); w < 0.333 || w > 0.334 {
		t.Fatalf("nested weight = %v, want 1/3", w)
	}
	if w := q.Weight("x"); w != 0.5 {
		t.Fatalf("validator weight = %v, want 0.5", w)
	}
}

func TestNodeIDFromPublicKey(t *testing.T) {
	kp := stellarcrypto.KeyPairFromString("node")
	id := NodeIDFromPublicKey(kp.Public)
	if id == "" || id[0] != 'G' {
		t.Fatalf("node id %q not an address", id)
	}
}

func TestPropertySatisfiedMonotone(t *testing.T) {
	// If S satisfies q then any superset of S satisfies q.
	q := QuorumSet{
		Threshold:  2,
		Validators: ids("a", "b", "c"),
		InnerSets:  []QuorumSet{Majority(ids("d", "e", "f")...)},
	}
	members := q.Members().Sorted()
	f := func(mask, extra uint8) bool {
		s := make(NodeSet)
		for i, m := range members {
			if mask&(1<<i) != 0 {
				s.Add(m)
			}
		}
		super := s.Copy()
		for i, m := range members {
			if extra&(1<<i) != 0 {
				super.Add(m)
			}
		}
		if q.SatisfiedBy(s) && !q.SatisfiedBy(super) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBlockedAntiMonotone(t *testing.T) {
	// If B blocks q then any superset of B blocks q.
	q := QuorumSet{
		Threshold:  2,
		Validators: ids("a", "b", "c"),
		InnerSets:  []QuorumSet{Majority(ids("d", "e", "f")...)},
	}
	members := q.Members().Sorted()
	f := func(mask, extra uint8) bool {
		b := make(NodeSet)
		for i, m := range members {
			if mask&(1<<i) != 0 {
				b.Add(m)
			}
		}
		super := b.Copy()
		for i, m := range members {
			if extra&(1<<i) != 0 {
				super.Add(m)
			}
		}
		if q.BlockedBy(b) && !q.BlockedBy(super) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySatisfiedAndBlockedDual(t *testing.T) {
	// A set and its complement cannot both fail: if S does not satisfy q,
	// then complement(S) blocks q (because every slice must intersect the
	// complement). Conversely if S satisfies q, complement(S) does not
	// block it... actually both can hold for overlapping structures; the
	// dual we verify: S satisfies q ⟺ complement(S) does NOT block q.
	q := QuorumSet{
		Threshold:  2,
		Validators: ids("a", "b"),
		InnerSets:  []QuorumSet{Majority(ids("c", "d", "e")...)},
	}
	members := q.Members().Sorted()
	for mask := 0; mask < 1<<len(members); mask++ {
		s := make(NodeSet)
		for i, m := range members {
			if mask&(1<<i) != 0 {
				s.Add(m)
			}
		}
		comp := q.Members().Minus(s)
		if q.SatisfiedBy(s) == q.BlockedBy(comp) {
			t.Fatalf("duality violated for %s: satisfied=%v blockedByComp=%v",
				s, q.SatisfiedBy(s), q.BlockedBy(comp))
		}
	}
}

// randomQSet builds a valid quorum set over nodes n0..n11, nested up to
// depth levels deep, with a random threshold at every level.
func randomQSet(r *rand.Rand, depth int) QuorumSet {
	var q QuorumSet
	for _, i := range r.Perm(12)[:r.Intn(5)] {
		q.Validators = append(q.Validators, NodeID(fmt.Sprintf("n%d", i)))
	}
	if depth > 0 {
		for k := r.Intn(4); k > 0; k-- {
			q.InnerSets = append(q.InnerSets, randomQSet(r, depth-1))
		}
	}
	if q.Size() == 0 {
		q.Validators = ids("n0")
	}
	q.Threshold = 1 + r.Intn(q.Size())
	return q
}

func TestPropertyBlockedIsNotSatisfiedByRest(t *testing.T) {
	// §3.1: B meets every slice of q exactly when the nodes outside B hold
	// no slice of q, for any nested quorum set and any node predicate.
	f := func(seed int64, mask uint16) bool {
		q := randomQSet(rand.New(rand.NewSource(seed)), 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("generator built an invalid quorum set: %v", err)
		}
		bad := func(id NodeID) bool {
			var i int
			fmt.Sscanf(string(id), "n%d", &i)
			return mask&(1<<i) != 0
		}
		return q.BlockedByFunc(bad) == !q.SatisfiedByFunc(func(id NodeID) bool { return !bad(id) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
