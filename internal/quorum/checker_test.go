package quorum

import (
	"fmt"
	"testing"

	"stellar/internal/fba"
	"stellar/internal/qconfig"
)

func symmetric(n, threshold int) fba.QuorumSets {
	var ids []fba.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, fba.NodeID(fmt.Sprintf("n%02d", i)))
	}
	qs := make(fba.QuorumSets)
	for _, id := range ids {
		q := fba.QuorumSet{Threshold: threshold, Validators: ids}
		qs[id] = &q
	}
	return qs
}

func TestIntersectionSymmetricMajority(t *testing.T) {
	// 3-of-4: any two quorums overlap.
	res := CheckIntersection(symmetric(4, 3))
	if !res.HasQuorum || !res.Intersects {
		t.Fatalf("3-of-4 should intersect: %s", res)
	}
}

// TestCandidatesExaminedCountsTheSearch: an intersecting system reports the
// work its proof took, and a larger one more of it.
func TestCandidatesExaminedCountsTheSearch(t *testing.T) {
	small := CheckIntersection(symmetric(4, 3))
	large := CheckIntersection(symmetric(7, 5))
	if !small.Intersects || !large.Intersects {
		t.Fatalf("both should intersect: %s; %s", small, large)
	}
	if small.CandidatesExamined == 0 || large.CandidatesExamined <= small.CandidatesExamined {
		t.Fatalf("candidates examined: 3-of-4 %d, 5-of-7 %d; want 0 < small < large",
			small.CandidatesExamined, large.CandidatesExamined)
	}
}

func TestIntersectionSymmetricHalf(t *testing.T) {
	// 2-of-4: two disjoint pairs form disjoint quorums.
	res := CheckIntersection(symmetric(4, 2))
	if res.Intersects {
		t.Fatalf("2-of-4 should admit disjoint quorums")
	}
	if len(res.Disjoint1) == 0 || len(res.Disjoint2) == 0 {
		t.Fatal("witnesses missing")
	}
	if res.Disjoint1.Intersects(res.Disjoint2) {
		t.Fatalf("witnesses intersect: %s vs %s", res.Disjoint1, res.Disjoint2)
	}
	if !fba.IsQuorum(res.Disjoint1, symmetric(4, 2)) || !fba.IsQuorum(res.Disjoint2, symmetric(4, 2)) {
		t.Fatal("witnesses are not quorums")
	}
}

func TestIntersectionTwoCliques(t *testing.T) {
	// Two disjoint cliques: detected via the SCC rule.
	qs := fba.QuorumSets{}
	a := fba.QuorumSet{Threshold: 2, Validators: []fba.NodeID{"a1", "a2"}}
	b := fba.QuorumSet{Threshold: 2, Validators: []fba.NodeID{"b1", "b2"}}
	qs["a1"], qs["a2"] = &a, &a
	qs["b1"], qs["b2"] = &b, &b
	res := CheckIntersection(qs)
	if res.Intersects {
		t.Fatal("disjoint cliques not detected")
	}
	if res.SCCs != 2 {
		t.Fatalf("SCCs with quorums = %d, want 2", res.SCCs)
	}
}

func TestIntersectionNoQuorums(t *testing.T) {
	// a requires b, b requires a... but thresholds unsatisfiable: each
	// needs the other plus a ghost node that has no quorum set.
	qs := fba.QuorumSets{}
	a := fba.QuorumSet{Threshold: 3, Validators: []fba.NodeID{"a", "b", "ghost"}}
	qs["a"] = &a
	qs["b"] = &a
	res := CheckIntersection(qs)
	if res.HasQuorum {
		t.Fatal("found quorum where none satisfiable")
	}
	if !res.Intersects {
		t.Fatal("vacuous intersection should hold")
	}
}

func TestIntersectionSingleton(t *testing.T) {
	qs := fba.QuorumSets{}
	self := fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{"solo"}}
	qs["solo"] = &self
	res := CheckIntersection(qs)
	if !res.HasQuorum || !res.Intersects {
		t.Fatalf("singleton: %s", res)
	}
}

func TestIntersectionTieredTopology(t *testing.T) {
	// The paper's healthy configuration: orgs with 51% inner sets and a
	// 67% outer threshold enjoy intersection.
	cfg := qconfig.SimulatedNetwork(5, 3, qconfig.High)
	qs, err := cfg.QuorumSets()
	if err != nil {
		t.Fatal(err)
	}
	res := CheckIntersection(qs)
	if !res.HasQuorum || !res.Intersects {
		t.Fatalf("tiered network should intersect: %s", res)
	}
}

func TestIntersectionTieredLowThresholdBreaks(t *testing.T) {
	// Hand-build an unsafe variant: orgs only require 51% of orgs (not
	// 67%), admitting two disjoint org-majorities when orgs=4... with 4
	// orgs at 51% → threshold 3 of 4, that still intersects; use a
	// threshold-2-of-4 direct construction instead.
	var orgs []fba.QuorumSet
	var allIDs []fba.NodeID
	for o := 0; o < 4; o++ {
		var ids []fba.NodeID
		for v := 0; v < 3; v++ {
			ids = append(ids, fba.NodeID(fmt.Sprintf("org%d-%d", o, v)))
		}
		allIDs = append(allIDs, ids...)
		orgs = append(orgs, fba.Majority(ids...))
	}
	unsafe := fba.QuorumSet{Threshold: 2, InnerSets: orgs}
	qs := make(fba.QuorumSets)
	for _, id := range allIDs {
		q := unsafe
		qs[id] = &q
	}
	res := CheckIntersection(qs)
	if res.Intersects {
		t.Fatal("2-of-4-orgs should admit disjoint quorums")
	}
}

func TestWitnessesAreValidQuorums(t *testing.T) {
	qs := symmetric(6, 3) // 3-of-6: plenty of disjoint pairs
	res := CheckIntersection(qs)
	if res.Intersects {
		if !fba.IsQuorum(fba.MaxQuorumWithin(fba.NewNodeSet("n00", "n01", "n02"), qs), qs) {
			t.Skip("unexpected topology")
		}
		t.Fatal("3-of-6 should not intersect")
	}
	if !fba.IsQuorum(res.Disjoint1, qs) || !fba.IsQuorum(res.Disjoint2, qs) {
		t.Fatal("witnesses are not quorums")
	}
}

func TestSCCComputation(t *testing.T) {
	// a→b→c→a is one SCC; d→a dangles.
	qs := fba.QuorumSets{
		"a": {Threshold: 1, Validators: []fba.NodeID{"b"}},
		"b": {Threshold: 1, Validators: []fba.NodeID{"c"}},
		"c": {Threshold: 1, Validators: []fba.NodeID{"a"}},
		"d": {Threshold: 1, Validators: []fba.NodeID{"a"}},
	}
	sccs := stronglyConnectedComponents(qs)
	sizes := map[int]int{}
	for _, s := range sccs {
		sizes[len(s)]++
	}
	if sizes[3] != 1 || sizes[1] != 1 {
		t.Fatalf("SCC sizes wrong: %v", sizes)
	}
}

func TestCriticalityHealthyTiered(t *testing.T) {
	// 5 high-quality orgs at 67%: knocking one org into worst-case
	// misconfiguration leaves 3-of-4 + the free agents; should stay safe.
	cfg := qconfig.SimulatedNetwork(5, 3, qconfig.High)
	qs, err := cfg.QuorumSets()
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckCriticality(qs, GroupByPrefix(qs))
	if rep.AnyCritical() {
		t.Fatalf("healthy 5-org network reported critical orgs: %v", rep.Critical)
	}
	if rep.Checks != 5 {
		t.Fatalf("checks = %d, want 5", rep.Checks)
	}
}

func TestCriticalityBridgeOrg(t *testing.T) {
	// The §6 scenario in miniature: a systemically important bridge org
	// whose *honest* configuration is the only thing gluing two clusters
	// together. The left and right clusters each require just one bridge
	// node (a dangerous sub-majority entry of the kind the §6.1
	// quality-tier mechanism eliminates); the bridge's own quorum set
	// spans both clusters. Healthy, every quorum pulls in a bridge node
	// whose quorum set forces overlap. If the bridge org misconfigures
	// (worst case: its nodes agree with anyone), the left cluster plus
	// bridge-0 and the right cluster plus bridge-1 form disjoint quorums.
	qs := make(fba.QuorumSets)
	leftIDs := []fba.NodeID{"left-0", "left-1"}
	rightIDs := []fba.NodeID{"right-0", "right-1"}
	bridgeIDs := []fba.NodeID{"bridge-0", "bridge-1"}

	leftQ := fba.QuorumSet{Threshold: 3, InnerSets: []fba.QuorumSet{
		{Threshold: 2, Validators: leftIDs},
		{Threshold: 1, Validators: bridgeIDs}, // sub-majority bridge entry
	}}
	// Threshold 3 of [left-pair, bridge-entry] is impossible; use 2-of-2.
	leftQ.Threshold = 2
	rightQ := fba.QuorumSet{Threshold: 2, InnerSets: []fba.QuorumSet{
		{Threshold: 2, Validators: rightIDs},
		{Threshold: 1, Validators: bridgeIDs},
	}}
	bridgeQ := fba.QuorumSet{Threshold: 3, InnerSets: []fba.QuorumSet{
		{Threshold: 2, Validators: leftIDs},
		{Threshold: 2, Validators: rightIDs},
		{Threshold: 2, Validators: bridgeIDs},
	}}
	for _, id := range leftIDs {
		q := leftQ
		qs[id] = &q
	}
	for _, id := range rightIDs {
		q := rightQ
		qs[id] = &q
	}
	for _, id := range bridgeIDs {
		q := bridgeQ
		qs[id] = &q
	}

	// Healthy: every quorum contains a bridge node, whose quorum set
	// requires both clusters — so all quorums overlap.
	res := CheckIntersection(qs)
	if !res.Intersects {
		t.Fatalf("bridge topology should intersect while healthy: %s", res)
	}

	rep := CheckCriticality(qs, GroupByPrefix(qs))
	foundBridge := false
	for _, name := range rep.Critical {
		if name == "bridge" {
			foundBridge = true
		}
	}
	if !foundBridge {
		t.Fatalf("critical orgs %v do not include the bridge", rep.Critical)
	}
}

func TestCriticalityMajorityEntriesResist(t *testing.T) {
	// The flip side, and the point of the §6.1 design: when every org
	// appears in others' quorum sets as a 51% (majority) inner set, a
	// single org's worst-case misconfiguration cannot complete quorums
	// on both sides of a split — org majorities self-intersect. Even a
	// minimal 3-org network stays non-critical.
	cfg := qconfig.SimulatedNetwork(3, 3, qconfig.Medium)
	qs, err := cfg.QuorumSets()
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckCriticality(qs, GroupByPrefix(qs))
	if rep.AnyCritical() {
		t.Fatalf("majority-entry network reported critical orgs: %v", rep.Critical)
	}
}

func TestGroupByPrefix(t *testing.T) {
	qs := fba.QuorumSets{
		"sdf-1":  {Threshold: 1, Validators: []fba.NodeID{"sdf-1"}},
		"sdf-2":  {Threshold: 1, Validators: []fba.NodeID{"sdf-2"}},
		"keyb-1": {Threshold: 1, Validators: []fba.NodeID{"keyb-1"}},
	}
	orgs := GroupByPrefix(qs)
	if len(orgs) != 2 {
		t.Fatalf("got %d orgs, want 2", len(orgs))
	}
	if orgs[0].Name != "keyb" || orgs[1].Name != "sdf" {
		t.Fatalf("org names: %v, %v", orgs[0].Name, orgs[1].Name)
	}
	if len(orgs[1].Validators) != 2 {
		t.Fatalf("sdf validators: %d", len(orgs[1].Validators))
	}
}

func TestWorstCaseMisconfig(t *testing.T) {
	qs := symmetric(4, 3)
	mis := worstCaseMisconfig(qs, []fba.NodeID{"n00"})
	// Malleable: threshold 1 over the three other nodes, self excluded.
	if mis["n00"].Threshold != 1 || len(mis["n00"].Validators) != 3 {
		t.Fatalf("misconfig not applied: %s", mis["n00"].String())
	}
	if mis["n00"].Members().Has("n00") {
		t.Fatal("malleable set includes the group's own node")
	}
	if mis["n01"].Threshold != 3 {
		t.Fatal("other nodes altered")
	}
	// Original untouched.
	if qs["n00"].Threshold != 3 {
		t.Fatal("original mutated")
	}
	// Whole-network group: nothing to model, unchanged copies.
	whole := worstCaseMisconfig(qs, []fba.NodeID{"n00", "n01", "n02", "n03"})
	if whole["n00"].Threshold != 3 {
		t.Fatal("whole-network group altered")
	}
}

func TestCheckerScalesToProductionSize(t *testing.T) {
	// §6.2.1: transitive closures of 20–30 nodes check "in a matter of
	// seconds"; ours should handle a 10-org (30-node) tier in well under
	// a second.
	cfg := qconfig.SimulatedNetwork(10, 3, qconfig.High)
	qs, err := cfg.QuorumSets()
	if err != nil {
		t.Fatal(err)
	}
	res := CheckIntersection(qs)
	if !res.Intersects {
		t.Fatalf("10-org tiered network should intersect: %s", res)
	}
}
