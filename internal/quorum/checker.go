// Package quorum implements the proactive misconfiguration detection of
// paper §6.2: a quorum-intersection checker (§6.2.1) in the style of
// Lachowski's algorithm, and the criticality analysis (§6.2.2) that warns
// when the network is one misconfiguration away from admitting disjoint
// quorums.
//
// Deciding quorum intersection is co-NP-hard in general; the checker relies
// on case-elimination rules that make typical (organizationally tiered)
// instances fast:
//
//  1. Every minimal quorum lies within a single strongly connected
//     component of the trust graph, so the search is restricted to SCCs
//     that actually contain quorums.
//  2. A depth-first enumeration of candidate quorums prunes any branch
//     whose committed nodes cannot be extended to a quorum using the
//     still-available nodes (a greatest-fixpoint computation).
//  3. Once a minimal quorum is found, its supersets need not be explored:
//     if any quorum is disjoint from some other quorum, a minimal one is.
package quorum

import (
	"fmt"
	"sort"

	"stellar/internal/fba"
)

// Result reports the outcome of a quorum-intersection check.
type Result struct {
	// HasQuorum indicates at least one quorum exists among the nodes.
	HasQuorum bool
	// Intersects is true when every pair of quorums shares a node. It is
	// vacuously true when no quorum exists.
	Intersects bool
	// Disjoint1 and Disjoint2 witness a violation when Intersects is
	// false: two quorums with empty intersection.
	Disjoint1, Disjoint2 fba.NodeSet
	// CandidatesExamined counts the node sets the search visited, each
	// one or two quorum fixpoints, reported so operators can see how hard
	// their topology is to check. (In an intersecting system rule 2b ends
	// every branch before it grows into a quorum, so a count of quorums
	// reached would read 0.)
	CandidatesExamined int
	// SCCs is the number of strongly connected components of the trust
	// graph that contain at least one quorum.
	SCCs int
}

// CheckIntersection determines whether the FBA system given by qsets enjoys
// quorum intersection. Nodes without a known quorum set cannot join any
// quorum (the conservative reading used for safety analysis).
func CheckIntersection(qsets fba.QuorumSets) Result {
	all := make(fba.NodeSet)
	for id := range qsets {
		all.Add(id)
	}
	var res Result

	// Rule 1: restrict attention to SCCs of the trust graph.
	sccs := stronglyConnectedComponents(qsets)
	var quorumSCCs []fba.NodeSet
	for _, scc := range sccs {
		if q := fba.MaxQuorumWithin(scc, qsets); len(q) > 0 {
			quorumSCCs = append(quorumSCCs, scc)
		}
	}
	res.SCCs = len(quorumSCCs)
	if len(quorumSCCs) == 0 {
		res.Intersects = true // vacuous: no quorums at all
		return res
	}
	res.HasQuorum = true
	if len(quorumSCCs) > 1 {
		// Quorums in two different SCCs are disjoint by construction.
		res.Intersects = false
		res.Disjoint1 = fba.MaxQuorumWithin(quorumSCCs[0], qsets)
		res.Disjoint2 = fba.MaxQuorumWithin(quorumSCCs[1], qsets)
		return res
	}

	scc := quorumSCCs[0]
	q1, q2, examined := findDisjointQuorums(scc, qsets)
	res.CandidatesExamined = examined
	if q1 != nil {
		res.Intersects = false
		res.Disjoint1, res.Disjoint2 = q1, q2
		return res
	}
	res.Intersects = true
	return res
}

// findDisjointQuorums searches the node set for a minimal quorum whose
// complement still contains a quorum. It returns the witnesses, or nils,
// plus the number of candidate sets examined.
func findDisjointQuorums(universe fba.NodeSet, qsets fba.QuorumSets) (fba.NodeSet, fba.NodeSet, int) {
	sys := buildSystem(qsets)
	uni := sys.toBitset(universe)
	examined := 0

	var q1, q2 bitset
	// DFS over include/exclude decisions with fixpoint pruning, on the
	// bitset representation.
	var rec func(candidate, avail bitset) bool
	rec = func(candidate, avail bitset) bool {
		examined++
		// Rule 2a: prune when candidate cannot grow into a quorum using
		// only available nodes.
		reach := candidate.copy()
		reach.or(avail)
		ext := sys.maxQuorum(reach)
		if ext.empty() || !candidate.subset(ext) {
			return false
		}
		// Rule 2b: prune when the complement of candidate can no longer
		// contain any quorum — no extension of candidate can then be
		// disjoint from another quorum.
		comp := uni.copy()
		comp.andNot(candidate)
		other := sys.maxQuorum(comp)
		if other.empty() {
			return false
		}
		if !candidate.empty() && sys.isQuorumBits(candidate) {
			// Rule 3: candidate is a quorum, and rule 2b just proved a
			// quorum survives in its complement — a disjoint pair.
			q1, q2 = candidate.copy(), other
			return true
		}
		// Branch on the next undecided node the extension proves usable.
		pick := -1
		ext.forEach(func(i int) {
			if pick < 0 && avail.has(i) && !candidate.has(i) {
				pick = i
			}
		})
		if pick < 0 {
			return false
		}
		avail.clear(pick)
		candidate.set(pick)
		if rec(candidate, avail) {
			return true
		}
		candidate.clear(pick)
		if rec(candidate, avail) {
			return true
		}
		avail.set(pick)
		return false
	}
	rec(newBitset(len(sys.ids)), uni.copy())
	if q1 == nil {
		return nil, nil, examined
	}
	return sys.toNodeSet(q1), sys.toNodeSet(q2), examined
}

// stronglyConnectedComponents computes the SCCs of the trust graph (edge
// u→v when v appears in u's quorum set) using Tarjan's algorithm.
func stronglyConnectedComponents(qsets fba.QuorumSets) []fba.NodeSet {
	ids := make([]fba.NodeID, 0, len(qsets))
	for id := range qsets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	adj := make(map[fba.NodeID][]fba.NodeID, len(qsets))
	for _, u := range ids {
		members := qsets[u].Members()
		for _, v := range members.Sorted() {
			if v != u {
				if _, known := qsets[v]; known {
					adj[u] = append(adj[u], v)
				}
			}
		}
	}

	index := make(map[fba.NodeID]int)
	low := make(map[fba.NodeID]int)
	onStack := make(map[fba.NodeID]bool)
	var stack []fba.NodeID
	var out []fba.NodeSet
	next := 0

	var strongconnect func(v fba.NodeID)
	strongconnect = func(v fba.NodeID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			comp := make(fba.NodeSet)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp.Add(w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, id := range ids {
		if _, seen := index[id]; !seen {
			strongconnect(id)
		}
	}
	return out
}

// String summarizes the result for operators.
func (r Result) String() string {
	switch {
	case !r.HasQuorum:
		return "no quorums exist (network cannot make progress)"
	case r.Intersects:
		return fmt.Sprintf("enjoys quorum intersection (%d candidate sets examined)", r.CandidatesExamined)
	default:
		return fmt.Sprintf("DISJOINT QUORUMS: %s vs %s", r.Disjoint1, r.Disjoint2)
	}
}
