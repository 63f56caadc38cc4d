// Package fba implements the Federated Byzantine Agreement model of paper
// §3.1: nodes unilaterally declare quorum slices via nested quorum sets, and
// quorums emerge from the combined local configurations.
//
// The central predicates are:
//
//   - QuorumSet.SatisfiedBy(S): S contains at least one of the node's slices
//     ("quorum threshold" reached from the node's point of view).
//   - QuorumSet.BlockedBy(B): B is v-blocking — it intersects every one of
//     the node's slices, so a unanimously faulty B can deny v a quorum.
//   - IsQuorum(S, qsets): S is non-empty and encompasses at least one slice
//     of each member (the FBA definition of quorum).
//
// The package also provides whole-system analysis used by tests and the
// checker in internal/quorum: transitive closure, maximal-quorum fixpoints,
// and exhaustive intactness analysis for small networks.
package fba

import (
	"fmt"
	"sort"
	"strings"

	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// NodeID identifies a validator node. In production deployments it is the
// validator's public key address; in simulations it is a readable label.
type NodeID string

// NodeIDFromPublicKey derives the canonical NodeID for a validator key.
func NodeIDFromPublicKey(pk stellarcrypto.PublicKey) NodeID {
	return NodeID(pk.Address())
}

// NodeSet is a set of node IDs.
type NodeSet map[NodeID]struct{}

// NewNodeSet builds a NodeSet from the given IDs.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s NodeSet) Has(id NodeID) bool { _, ok := s[id]; return ok }

// Add inserts id.
func (s NodeSet) Add(id NodeID) { s[id] = struct{}{} }

// Remove deletes id.
func (s NodeSet) Remove(id NodeID) { delete(s, id) }

// Copy returns an independent copy.
func (s NodeSet) Copy() NodeSet {
	c := make(NodeSet, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}

// Union returns s ∪ t as a new set.
func (s NodeSet) Union(t NodeSet) NodeSet {
	c := s.Copy()
	for id := range t {
		c[id] = struct{}{}
	}
	return c
}

// Intersect returns s ∩ t as a new set.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	c := make(NodeSet)
	for id := range s {
		if t.Has(id) {
			c[id] = struct{}{}
		}
	}
	return c
}

// Minus returns s \ t as a new set.
func (s NodeSet) Minus(t NodeSet) NodeSet {
	c := make(NodeSet)
	for id := range s {
		if !t.Has(id) {
			c[id] = struct{}{}
		}
	}
	return c
}

// Intersects reports whether s and t share any member.
func (s NodeSet) Intersects(t NodeSet) bool {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	for id := range small {
		if large.Has(id) {
			return true
		}
	}
	return false
}

// Equal reports set equality.
func (s NodeSet) Equal(t NodeSet) bool {
	if len(s) != len(t) {
		return false
	}
	for id := range s {
		if !t.Has(id) {
			return false
		}
	}
	return true
}

// Subset reports whether s ⊆ t.
func (s NodeSet) Subset(t NodeSet) bool {
	for id := range s {
		if !t.Has(id) {
			return false
		}
	}
	return true
}

// Sorted returns the members in lexicographic order, for deterministic
// iteration and display.
func (s NodeSet) Sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {a, b, c}.
func (s NodeSet) String() string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// QuorumSet is Stellar's nested quorum-set representation of a node's quorum
// slices (paper §6.1): n entries and a threshold k, where any k entries
// constitute a quorum slice. Entries are validators or, recursively, inner
// quorum sets.
type QuorumSet struct {
	Threshold  int
	Validators []NodeID
	InnerSets  []QuorumSet
}

// Majority builds the common "simple majority of these nodes" quorum set:
// threshold ⌈(n+1)/2⌉ over the given validators.
func Majority(ids ...NodeID) QuorumSet {
	return QuorumSet{Threshold: len(ids)/2 + 1, Validators: ids}
}

// All builds a unanimous quorum set over the given validators.
func All(ids ...NodeID) QuorumSet {
	return QuorumSet{Threshold: len(ids), Validators: ids}
}

// PercentThreshold computes the threshold for "at least pct percent of n
// entries", rounding so that e.g. 51% of 3 is 2 and 67% of 3 is 3 —
// matching stellar-core's convention of guaranteeing a strict supermajority.
func PercentThreshold(n, pct int) int {
	t := 1 + (n*pct-1)/100
	if t > n {
		t = n
	}
	if t < 1 {
		t = 1
	}
	return t
}

// Size returns the number of top-level entries (validators + inner sets).
func (q *QuorumSet) Size() int { return len(q.Validators) + len(q.InnerSets) }

// Validate checks structural sanity: thresholds within [1, size] at every
// level, no duplicate validators within one set, and depth ≤ maxDepth.
func (q *QuorumSet) Validate() error { return q.validate(0) }

const maxQuorumSetDepth = 4

func (q *QuorumSet) validate(depth int) error {
	if depth > maxQuorumSetDepth {
		return fmt.Errorf("fba: quorum set nesting deeper than %d", maxQuorumSetDepth)
	}
	n := q.Size()
	if n == 0 {
		return fmt.Errorf("fba: empty quorum set")
	}
	if q.Threshold < 1 || q.Threshold > n {
		return fmt.Errorf("fba: threshold %d out of range [1,%d]", q.Threshold, n)
	}
	seen := make(map[NodeID]struct{}, len(q.Validators))
	for _, v := range q.Validators {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("fba: duplicate validator %s in quorum set", v)
		}
		seen[v] = struct{}{}
	}
	for i := range q.InnerSets {
		if err := q.InnerSets[i].validate(depth + 1); err != nil {
			return err
		}
	}
	return nil
}

// SatisfiedBy reports whether the node set S contains at least one quorum
// slice of this quorum set: at least Threshold entries are present, where a
// validator entry is present iff it is in S and an inner set entry is
// present iff it is recursively satisfied.
func (q *QuorumSet) SatisfiedBy(s NodeSet) bool {
	return q.satisfied(s.Has)
}

// SatisfiedByFunc is SatisfiedBy with a membership predicate, letting
// callers avoid materializing a set.
func (q *QuorumSet) SatisfiedByFunc(has func(NodeID) bool) bool {
	return q.satisfied(has)
}

func (q *QuorumSet) satisfied(has func(NodeID) bool) bool {
	count := 0
	for _, v := range q.Validators {
		if has(v) {
			count++
			if count >= q.Threshold {
				return true
			}
		}
	}
	for i := range q.InnerSets {
		if q.InnerSets[i].satisfied(has) {
			count++
			if count >= q.Threshold {
				return true
			}
		}
	}
	return false
}

// BlockedBy reports whether B is v-blocking for a node with this quorum
// set: B intersects every slice. Equivalently, strictly more than
// size−threshold entries are blocked, so the threshold can no longer be met
// without a member of B.
func (q *QuorumSet) BlockedBy(b NodeSet) bool {
	return q.blocked(b.Has)
}

// BlockedByFunc is BlockedBy with a membership predicate.
func (q *QuorumSet) BlockedByFunc(bad func(NodeID) bool) bool {
	return q.blocked(bad)
}

func (q *QuorumSet) blocked(bad func(NodeID) bool) bool {
	need := q.Size() - q.Threshold + 1 // entries that must be blocked
	count := 0
	for _, v := range q.Validators {
		if bad(v) {
			count++
			if count >= need {
				return true
			}
		}
	}
	for i := range q.InnerSets {
		if q.InnerSets[i].blocked(bad) {
			count++
			if count >= need {
				return true
			}
		}
	}
	return false
}

// Members returns every node mentioned anywhere in the quorum set.
func (q *QuorumSet) Members() NodeSet {
	s := make(NodeSet)
	q.addMembers(s)
	return s
}

func (q *QuorumSet) addMembers(s NodeSet) {
	for _, v := range q.Validators {
		s.Add(v)
	}
	for i := range q.InnerSets {
		q.InnerSets[i].addMembers(s)
	}
}

// Slices enumerates every minimal quorum slice of the quorum set. Only safe
// for small configurations (test and analysis use); the count is
// combinatorial in general.
func (q *QuorumSet) Slices() []NodeSet {
	entries := make([][]NodeSet, 0, q.Size())
	for _, v := range q.Validators {
		entries = append(entries, []NodeSet{NewNodeSet(v)})
	}
	for i := range q.InnerSets {
		entries = append(entries, q.InnerSets[i].Slices())
	}
	var out []NodeSet
	var choose func(start, picked int, acc NodeSet)
	choose = func(start, picked int, acc NodeSet) {
		if picked == q.Threshold {
			out = append(out, acc.Copy())
			return
		}
		// Not enough entries left to reach the threshold.
		if len(entries)-start < q.Threshold-picked {
			return
		}
		for i := start; i < len(entries); i++ {
			for _, slice := range entries[i] {
				choose(i+1, picked+1, acc.Union(slice))
			}
		}
	}
	choose(0, 0, make(NodeSet))
	return dedupeSets(out)
}

func dedupeSets(sets []NodeSet) []NodeSet {
	seen := make(map[string]struct{}, len(sets))
	out := sets[:0]
	for _, s := range sets {
		key := s.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, s)
	}
	return out
}

// Hash returns the content hash of the quorum set. SCP envelopes carry the
// sender's quorum set (or its hash) so that quorums can be discovered from
// messages alone (paper §3.1).
func (q *QuorumSet) Hash() stellarcrypto.Hash {
	e := xdr.NewEncoder(64)
	q.EncodeXDR(e)
	return stellarcrypto.HashBytes(e.Bytes())
}

// EncodeXDR writes the canonical encoding. Validators are sorted so that
// structurally equal sets hash identically.
func (q *QuorumSet) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(uint32(q.Threshold))
	vals := make([]string, len(q.Validators))
	for i, v := range q.Validators {
		vals[i] = string(v)
	}
	sort.Strings(vals)
	e.PutUint32(uint32(len(vals)))
	for _, v := range vals {
		e.PutString(v)
	}
	e.PutUint32(uint32(len(q.InnerSets)))
	for i := range q.InnerSets {
		q.InnerSets[i].EncodeXDR(e)
	}
}

// DecodeQuorumSetXDR reads a quorum set written by EncodeXDR. Nesting is
// bounded by the same maxQuorumSetDepth that Validate enforces, so
// hostile inputs cannot drive unbounded recursion. Only the canonical form
// is accepted: each validator list must be strictly increasing, as
// EncodeXDR writes it, which also refuses duplicates — so a decoded set
// re-encodes to exactly the bytes it came from.
func DecodeQuorumSetXDR(d *xdr.Decoder) (QuorumSet, error) {
	return decodeQuorumSetXDR(d, 0)
}

func decodeQuorumSetXDR(d *xdr.Decoder, depth int) (QuorumSet, error) {
	var q QuorumSet
	if depth > maxQuorumSetDepth {
		return q, fmt.Errorf("fba: quorum set nesting exceeds %d levels", maxQuorumSetDepth)
	}
	t, err := d.Uint32()
	if err != nil {
		return q, err
	}
	q.Threshold = int(t)
	nv, err := d.Uint32()
	if err != nil {
		return q, err
	}
	if nv > 10000 {
		return q, fmt.Errorf("fba: quorum set with %d validators", nv)
	}
	for i := uint32(0); i < nv; i++ {
		s, err := d.String()
		if err != nil {
			return q, err
		}
		if i > 0 && s <= string(q.Validators[i-1]) {
			return q, fmt.Errorf("fba: quorum set validators not strictly increasing (%q after %q)", s, q.Validators[i-1])
		}
		q.Validators = append(q.Validators, NodeID(s))
	}
	ni, err := d.Uint32()
	if err != nil {
		return q, err
	}
	if ni > 1000 {
		return q, fmt.Errorf("fba: quorum set with %d inner sets", ni)
	}
	for i := uint32(0); i < ni; i++ {
		in, err := decodeQuorumSetXDR(d, depth+1)
		if err != nil {
			return q, err
		}
		q.InnerSets = append(q.InnerSets, in)
	}
	return q, nil
}

// String renders the quorum set compactly, e.g. "2-of-{a, b, c}".
func (q *QuorumSet) String() string {
	parts := make([]string, 0, q.Size())
	for _, v := range q.Validators {
		parts = append(parts, string(v))
	}
	for i := range q.InnerSets {
		parts = append(parts, q.InnerSets[i].String())
	}
	return fmt.Sprintf("%d-of-{%s}", q.Threshold, strings.Join(parts, ", "))
}

// Weight returns the fraction of this node's quorum slices that contain v,
// used by federated leader selection (paper §3.2.5). For a flat threshold-k
// of n set, the fraction of k-subsets containing a given member is k/n; for
// nested sets the fractions multiply down the branch containing v.
func (q *QuorumSet) Weight(v NodeID) float64 {
	n := float64(q.Size())
	if n == 0 {
		return 0
	}
	frac := float64(q.Threshold) / n
	for _, val := range q.Validators {
		if val == v {
			return frac
		}
	}
	for i := range q.InnerSets {
		if w := q.InnerSets[i].Weight(v); w > 0 {
			return frac * w
		}
	}
	return 0
}
