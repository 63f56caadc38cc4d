package herder

import (
	"fmt"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

func healthByNode(rep *QuorumHealthReport) map[fba.NodeID]NodeHealth {
	m := make(map[fba.NodeID]NodeHealth, len(rep.Nodes))
	for _, h := range rep.Nodes {
		m[h.Node] = h
	}
	return m
}

func TestQuorumHealthAllLive(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)

	rep := nodes[0].QuorumHealth()
	if rep.Self != nodes[0].ID() {
		t.Fatalf("self = %v", rep.Self)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("tracked %d nodes, want 2 (qset minus self)", len(rep.Nodes))
	}
	for _, h := range rep.Nodes {
		if h.Missing || h.Silent {
			t.Fatalf("live peer reported unhealthy: %+v", h)
		}
		if h.Behind {
			t.Fatalf("live peer reported behind: %+v", h)
		}
		if h.LastClosed == 0 {
			t.Fatalf("no closed-ledger evidence for %v", h.Node)
		}
	}
	if len(rep.MissingOrBehind) != 0 {
		t.Fatalf("missing_or_behind = %v on a healthy cluster", rep.MissingOrBehind)
	}
	if !rep.QuorumAvailable {
		t.Fatal("healthy cluster reported quorum unavailable")
	}
	if len(rep.Slices) == 0 || !rep.Slices[0].Satisfied {
		t.Fatalf("top slice unsatisfied: %+v", rep.Slices)
	}
}

func TestQuorumHealthDetectsDownedPeer(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)

	// Kill node 2; the remaining majority keeps closing ledgers while its
	// health degrades in node 0's view.
	net.SetDown(nodes[2].Addr())
	net.RunFor(15 * time.Second)

	rep := nodes[0].QuorumHealth()
	byNode := healthByNode(rep)
	down := byNode[nodes[2].ID()]
	if !down.Silent {
		t.Fatalf("downed peer not silent: %+v (now %v)", down, rep.Now)
	}
	if !down.Behind {
		t.Fatalf("downed peer not behind: %+v (local seq %d)", down, rep.LocalSeq)
	}
	if len(rep.MissingOrBehind) != 1 || rep.MissingOrBehind[0] != nodes[2].ID() {
		t.Fatalf("missing_or_behind = %v", rep.MissingOrBehind)
	}
	// One of three majority-quorum validators down: quorum still
	// available.
	if !rep.QuorumAvailable {
		t.Fatal("quorum reported unavailable with 2/3 live")
	}
	live := byNode[nodes[1].ID()]
	if !live.Healthy() {
		t.Fatalf("live peer unhealthy: %+v", live)
	}

	// Two of three down: no quorum slice survives.
	net.SetDown(nodes[1].Addr())
	net.RunFor(15 * time.Second)
	rep = nodes[0].QuorumHealth()
	if rep.QuorumAvailable {
		t.Fatal("quorum reported available with majority down")
	}
}

func TestQuorumHealthNeverHeard(t *testing.T) {
	// Before any traffic, both peers are missing and quorum is at risk.
	_, nodes, _ := buildPair(t, nil)
	rep := nodes[0].QuorumHealth()
	for _, h := range rep.Nodes {
		if !h.Missing {
			t.Fatalf("peer not reported missing before any envelope: %+v", h)
		}
	}
	if rep.QuorumAvailable {
		t.Fatal("silent network reported quorum available")
	}
}

// buildHealthQuorum is buildPair generalized to count validators (flat
// majority quorum), for health geometries a 3-node net cannot express.
func buildHealthQuorum(t *testing.T, count int) (*simnet.Network, []*Node) {
	t.Helper()
	net := simnet.New(11)
	net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 8*time.Millisecond))
	nid := stellarcrypto.HashBytes([]byte("herder-health-net"))
	kps := stellarcrypto.DeterministicKeyPairs("health-test", count)
	ids := make([]fba.NodeID, count)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	genesis, _ := GenesisState(nid)
	snap := genesis.SnapshotAll()
	ghdr := ledger.GenesisHeader(genesis, 0)
	nodes := make([]*Node, count)
	for i := range nodes {
		n, err := New(net, Config{
			Keys:           kps[i],
			QSet:           fba.Majority(ids...),
			NetworkID:      nid,
			LedgerInterval: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ledger.RestoreState(snap, ghdr)
		if err != nil {
			t.Fatal(err)
		}
		n.Bootstrap(st, 0)
		nodes[i] = n
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				a.Overlay().Connect(b.Addr())
			}
		}
	}
	return net, nodes
}

// A node whose every peer goes dark must report the worst case — all
// silent, quorum unavailable — and then walk all the way
// back to healthy after the heal, not stick on stale silence evidence.
// The fault is a link partition (node 0 alone vs the rest), the same
// shape the chaos harness injects: unlike SetDown it keeps the far
// side's timers alive, so the heal is exercised end to end.
func TestQuorumHealthAllSilentAndRecovery(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)

	net.PartitionGroups(
		[]simnet.Addr{nodes[0].Addr()},
		[]simnet.Addr{nodes[1].Addr(), nodes[2].Addr()})
	net.RunFor(15 * time.Second)

	rep := nodes[0].QuorumHealth()
	for _, h := range rep.Nodes {
		if !h.Silent {
			t.Fatalf("peer not silent with the whole network dark: %+v", h)
		}
	}
	if rep.QuorumAvailable {
		t.Fatal("all-silent network reported quorum available")
	}
	if len(rep.MissingOrBehind) != 2 {
		t.Fatalf("missing_or_behind = %v, want both peers", rep.MissingOrBehind)
	}

	// Heal: fresh envelopes must clear the silence verdicts and restore
	// availability once consensus resumes.
	net.HealAll()
	for _, n := range nodes {
		n.RebroadcastLatest()
	}
	net.RunFor(20 * time.Second)

	rep = nodes[0].QuorumHealth()
	for _, h := range rep.Nodes {
		if !h.Healthy() {
			t.Fatalf("peer still unhealthy after heal: %+v", h)
		}
	}
	if !rep.QuorumAvailable {
		t.Fatal("quorum still unavailable after heal")
	}
}

// The v-blocking boundary: 4 validators, threshold 3, so TWO unhealthy
// nodes are the smallest v-blocking set, and exactly there availability
// goes (fba's TestPropertyBlockedIsNotSatisfiedByRest: the two are one
// predicate). One peer down must keep quorum available; two must not.
func TestQuorumHealthExactlyVBlocking(t *testing.T) {
	net, nodes := buildHealthQuorum(t, 4)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)

	net.SetDown(nodes[3].Addr())
	net.RunFor(15 * time.Second)
	rep := nodes[0].QuorumHealth()
	if !rep.QuorumAvailable {
		t.Fatal("quorum must survive one of four down (threshold 3)")
	}

	net.SetDown(nodes[2].Addr())
	net.RunFor(15 * time.Second)
	rep = nodes[0].QuorumHealth()
	if rep.QuorumAvailable {
		t.Fatal("quorum reported available with only 2 of 4 healthy (threshold 3)")
	}
}

func TestQuorumGaugesPublished(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)

	rep := nodes[0].RefreshQuorumHealth()
	if len(rep.Nodes) != 2 || len(rep.MissingOrBehind) != 0 || !rep.QuorumAvailable {
		t.Fatalf("healthy cluster: %d tracked, missing or behind %v, available %v; want 2, none, true",
			len(rep.Nodes), rep.MissingOrBehind, rep.QuorumAvailable)
	}
	avail := func() float64 {
		for _, fs := range nodes[0].Obs().Reg.Snapshot() {
			if fs.Name == "quorum_available" {
				return fs.Samples[0].Value
			}
		}
		t.Fatal("quorum_available not registered")
		return 0
	}
	if v := avail(); v != 1 {
		t.Fatalf("quorum_available = %v, want 1", v)
	}
	// Both peers down: the next close-free refresh publishes the loss.
	net.SetDown(nodes[1].Addr())
	net.SetDown(nodes[2].Addr())
	net.RunFor(15 * time.Second)
	if rep := nodes[0].RefreshQuorumHealth(); rep.QuorumAvailable {
		t.Fatal("quorum available with both peers down")
	}
	if v := avail(); v != 0 {
		t.Fatalf("quorum_available = %v with both peers down, want 0", v)
	}
}

// TestHealthTracksQuorumMembersOnly: envelopes naming nodes outside the
// quorum set — made up, or simply not trusted — add no entry to the health
// table, whose report reads only the quorum set's members.
func TestHealthTracksQuorumMembersOnly(t *testing.T) {
	_, nodes, _ := buildPair(t, nil)
	n := nodes[0]
	before := len(n.peersHealth)
	for i := 0; i < 100; i++ {
		n.onEnvelope(&scp.Envelope{
			Node: fba.NodeID(fmt.Sprintf("stranger-%d", i)), Slot: 2, Seq: 1,
			QSet:      fba.Majority(n.ID()),
			Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{scp.Value("v")}},
		})
	}
	if len(n.peersHealth) != before {
		t.Fatalf("health table grew from %d to %d entries on envelopes from non-members", before, len(n.peersHealth))
	}
	if rep := n.QuorumHealth(); len(rep.Nodes) != 2 {
		t.Fatalf("report covers %d nodes, want the 2 other quorum members", len(rep.Nodes))
	}
}

// TestHealthIgnoresOwnEnvelopes: a node's own envelopes, echoed back by
// the flood, are not evidence about a peer and add no entry.
func TestHealthIgnoresOwnEnvelopes(t *testing.T) {
	_, nodes, _ := buildPair(t, nil)
	n := nodes[0]
	n.noteEnvelope(&scp.Envelope{Node: n.ID(), Slot: 9, Statement: scp.Statement{Type: scp.StmtExternalize}})
	if _, ok := n.peersHealth[n.ID()]; ok {
		t.Fatal("health table holds an entry for self")
	}
	for _, h := range n.QuorumHealth().Nodes {
		if h.Node == n.ID() {
			t.Fatalf("report lists self: %+v", h)
		}
	}
}

// TestNoteEnvelopeClosedSlot: an EXTERNALIZE for slot s proves the peer
// closed s; any other statement about s proves only s−1. Evidence never
// moves backwards.
func TestNoteEnvelopeClosedSlot(t *testing.T) {
	_, nodes, _ := buildPair(t, nil)
	n := nodes[0]
	peer := nodes[1].ID()
	for _, step := range []struct {
		slot       uint64
		typ        scp.StatementType
		lastSlot   uint64
		lastClosed uint64
	}{
		{7, scp.StmtNominate, 7, 6},
		{7, scp.StmtExternalize, 7, 7},
		{5, scp.StmtExternalize, 7, 7},
		{9, scp.StmtNominate, 9, 8},
	} {
		n.noteEnvelope(&scp.Envelope{Node: peer, Slot: step.slot, Statement: scp.Statement{Type: step.typ}})
		ps := n.peersHealth[peer]
		if ps == nil || ps.lastSlot != step.lastSlot || ps.lastClosed != step.lastClosed {
			t.Fatalf("after %v for slot %d: %+v, want last slot %d, last closed %d",
				step.typ, step.slot, ps, step.lastSlot, step.lastClosed)
		}
	}
}

// downedThirdPeer runs buildPair's trio for 10 s, then with node 2 down for
// 30 s, and returns node 0's view of node 2: Behind and Silent.
func downedThirdPeer(t *testing.T) (*simnet.Network, []*Node, NodeHealth) {
	t.Helper()
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)
	net.SetDown(nodes[2].Addr())
	net.RunFor(30 * time.Second)
	h := healthByNode(nodes[0].QuorumHealth())[nodes[2].ID()]
	if !h.Behind || !h.Silent {
		t.Fatalf("setup: downed peer %+v, want behind and silent", h)
	}
	return net, nodes, h
}

// externalizeFrom is an EXTERNALIZE statement for slot naming node, signed
// by its key when signer is set and unsigned otherwise.
func externalizeFrom(node *Node, slot uint64, signer *Node) *scp.Envelope {
	env := &scp.Envelope{
		Node: node.ID(), Slot: slot, Seq: 1, QSet: node.cfg.QSet,
		Statement: scp.Statement{Type: scp.StmtExternalize, Ballot: scp.Ballot{Counter: 1, Value: scp.Value("v")}, NH: 1},
	}
	if signer != nil {
		env.Sign(signer.cfg.Keys.Secret.Sign)
	}
	return env
}

// TestForgedEnvelopeRevivesNoOne: health evidence is taken only from
// envelopes whose signature was checked. An unsigned EXTERNALIZE naming a
// crashed member — for a slot ahead of the tip, which SCP refuses, or for
// one already closed — leaves it Behind and Silent at its last real close.
func TestForgedEnvelopeRevivesNoOne(t *testing.T) {
	_, nodes, before := downedThirdPeer(t)
	observer, victim := nodes[0], nodes[2]
	for _, slot := range []uint64{1000, uint64(observer.LastHeader().LedgerSeq)} {
		observer.onEnvelope(externalizeFrom(victim, slot, nil))
		after := healthByNode(observer.RefreshQuorumHealth())[victim.ID()]
		if after.verdict() != before.verdict() || after.LastClosed != before.LastClosed || after.LastSlot != before.LastSlot {
			t.Fatalf("a forged envelope for slot %d changed the crashed member:\n before %+v\n after  %+v", slot, before, after)
		}
	}
}

// TestReplayedOldSlotsStayBehind: a member that speaks only about slots
// this node closed long ago — genuinely signed — is alive but stuck: Behind,
// not Silent.
func TestReplayedOldSlotsStayBehind(t *testing.T) {
	_, nodes, before := downedThirdPeer(t)
	observer, stuck := nodes[0], nodes[2]
	observer.onEnvelope(externalizeFrom(stuck, before.LastClosed, stuck))
	after := healthByNode(observer.QuorumHealth())[stuck.ID()]
	if !after.Behind || after.Silent || after.HeardAgo != 0 {
		t.Fatalf("a member replaying old slots: %+v, want behind and not silent", after)
	}
}

// TestOldSlotEnvelopesAreVerified: an envelope for a closed slot is checked
// through the shared cache before anything else. A genuine one is kept for
// forwarding, a forged one is refused, and in a steady state neither
// changes a member's verdict.
func TestOldSlotEnvelopesAreVerified(t *testing.T) {
	net, nodes, _ := buildPair(t, nil)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(10 * time.Second)
	observer, live := nodes[0], nodes[1]
	before := healthByNode(observer.QuorumHealth())[live.ID()]
	if !before.Healthy() {
		t.Fatalf("setup: live member %+v", before)
	}
	checks := func() uint64 { s := observer.verifier.Cache.Stats(); return s.Hits + s.Misses }
	was := checks()
	old := uint64(observer.LastHeader().LedgerSeq) - 1
	if observer.onEnvelope(externalizeFrom(live, old, live)) {
		t.Fatal("a genuine envelope for a closed slot was refused")
	}
	if !observer.onEnvelope(externalizeFrom(live, old, nil)) {
		t.Fatal("an unsigned envelope for a closed slot was not refused")
	}
	if got := checks() - was; got != 2 {
		t.Fatalf("old-slot envelopes took %d signature checks, want 2", got)
	}
	if after := healthByNode(observer.QuorumHealth())[live.ID()]; after != before {
		t.Fatalf("old-slot envelopes changed a healthy member:\n before %+v\n after  %+v", before, after)
	}
}
