package overlay

// Dissemination under adverse delivery: random message loss and duplicate
// injection. Flooding's redundancy (every peer forwards novel messages to
// all other peers) should ride out moderate loss, and the dedup cache must
// absorb duplicates arriving via any path without double-delivering to the
// application.

import (
	"testing"

	"stellar/internal/obs"
	"stellar/internal/scp"
	"stellar/internal/simnet"
)

func TestFloodSurvivesModerateLoss(t *testing.T) {
	// Full mesh of 8 under 30% random loss: each node can receive a
	// broadcast over 7 independent paths, so every node still gets it.
	net, overlays := buildMesh(t, 8, fullMesh)
	net.SetDropRate(0.3)
	var got [8]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	for seq := uint64(1); seq <= 5; seq++ {
		overlays[0].BroadcastEnvelope(testEnvelope(seq), obs.TraceContext{})
	}
	net.RunUntilIdle(0)
	if net.Stats().DroppedLoss == 0 {
		t.Fatal("no messages dropped; loss never took effect")
	}
	for i := 1; i < 8; i++ {
		if got[i] != 5 {
			t.Fatalf("node %d delivered %d of 5 broadcasts under loss", i, got[i])
		}
	}
}

func TestAsymmetricLinkLossOnlyAffectsOneDirection(t *testing.T) {
	net, overlays := buildMesh(t, 2, fullMesh)
	net.SetLinkDropRate("n0", "n1", 1.0)
	got := [2]int{}
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	overlays[0].BroadcastEnvelope(testEnvelope(1), obs.TraceContext{}) // n0→n1 is severed
	overlays[1].BroadcastEnvelope(testEnvelope(2), obs.TraceContext{}) // n1→n0 still works
	net.RunUntilIdle(0)
	if got[1] != 0 {
		t.Fatal("message crossed a fully lossy link")
	}
	if got[0] != 1 {
		t.Fatalf("reverse direction delivered %d, want 1", got[0])
	}
}

func TestDuplicateInjectionSuppressedOncePerNode(t *testing.T) {
	// An attacker (or a re-flooding peer) sends the same envelope to every
	// node repeatedly; each node must deliver it to the application exactly
	// once and suppress the rest, without re-flooding duplicates.
	net, overlays := buildMesh(t, 5, fullMesh)
	var got [5]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	env := testEnvelope(1)
	p := &Packet{Kind: KindEnvelope, Envelope: env, TTL: DefaultTTL, Origin: "attacker"}
	net.AddNode("attacker", simnet.HandlerFunc(func(simnet.Addr, any, int) {}))
	for round := 0; round < 4; round++ {
		for i := range overlays {
			net.Send("attacker", simnet.Addr("n"+string(rune('0'+i))), p, p.size())
		}
		net.RunUntilIdle(0)
	}
	for i := range got {
		if got[i] != 1 {
			t.Fatalf("node %d delivered %d times, want exactly 1", i, got[i])
		}
	}
	var dupes float64
	for _, o := range overlays {
		dupes += dupesOf(o)
	}
	if dupes == 0 {
		t.Fatal("no duplicates suppressed")
	}
}

func TestFloodRetransmitRepairsLoss(t *testing.T) {
	// The anti-entropy pattern: if a broadcast is lost on every path (here:
	// 100% loss during the first attempt), re-broadcasting after the
	// network heals delivers it. The origin's own dedup cache must not
	// stop the retransmission.
	net, overlays := buildMesh(t, 4, fullMesh)
	got := 0
	overlays[3].OnEnvelope = func(env *scp.Envelope) bool { got++; return false }
	env := testEnvelope(1)
	net.SetDropRate(1.0)
	overlays[0].BroadcastEnvelope(env, obs.TraceContext{})
	net.RunUntilIdle(0)
	if got != 0 {
		t.Fatal("delivery through 100% loss")
	}
	net.SetDropRate(0)
	overlays[0].BroadcastEnvelope(env, obs.TraceContext{})
	net.RunUntilIdle(0)
	if got != 1 {
		t.Fatalf("retransmission delivered %d times, want 1", got)
	}
}
