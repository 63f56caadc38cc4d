package overlay

import (
	"fmt"
	"testing"
	"time"

	"stellar/internal/scp"
	"stellar/internal/simnet"
)

func buildTreeMesh(t *testing.T, n int) (*simnet.Network, []*Overlay, []simnet.Addr) {
	t.Helper()
	net := simnet.New(1)
	net.SetLatency(simnet.ConstantLatency(time.Millisecond))
	overlays := make([]*Overlay, n)
	addrs := make([]simnet.Addr, n)
	for i := range addrs {
		addrs[i] = simnet.Addr(fmt.Sprintf("m%02d", i))
	}
	for i := range overlays {
		overlays[i] = New(net, addrs[i])
		overlays[i].SetMode(ModeTree)
		net.AddNode(addrs[i], simnet.HandlerFunc(overlays[i].HandleMessage))
	}
	for i := range overlays {
		overlays[i].SetMembers(addrs...)
		for j := range overlays {
			if i != j {
				overlays[i].Connect(addrs[j]) // peers still known for fallback
			}
		}
	}
	return net, overlays, addrs
}

func TestTreeReachesAll(t *testing.T) {
	net, overlays, _ := buildTreeMesh(t, 13)
	var got [13]int
	for i := range overlays {
		i := i
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { got[i]++; return false }
	}
	// Broadcast from several different origins: the tree is per-origin.
	for origin := 0; origin < 13; origin += 4 {
		overlays[origin].BroadcastEnvelope(testEnvelope(uint64(100 + origin)))
	}
	net.RunUntilIdle(0)
	for i := range got {
		want := 0
		for origin := 0; origin < 13; origin += 4 {
			if origin != i {
				want++
			}
		}
		if got[i] != want {
			t.Fatalf("node %d delivered %d, want %d", i, got[i], want)
		}
	}
}

func TestTreeMessageCountLinear(t *testing.T) {
	// Tree: N−1 link crossings per broadcast. Flood: ≥ N(N−1)/... much
	// more. Compare at N=16.
	const n = 16
	net, overlays, _ := buildTreeMesh(t, n)
	overlays[0].BroadcastEnvelope(testEnvelope(1))
	net.RunUntilIdle(0)
	var treeSent uint64
	for _, o := range overlays {
		treeSent += o.FloodsSent
	}
	if treeSent != n-1 {
		t.Fatalf("tree sent %d messages, want exactly %d", treeSent, n-1)
	}

	// Same broadcast under flooding.
	net2, floods := buildMesh(t, n, fullMesh)
	floods[0].BroadcastEnvelope(testEnvelope(1))
	net2.RunUntilIdle(0)
	var floodSent uint64
	for _, o := range floods {
		floodSent += o.FloodsSent
	}
	if floodSent <= treeSent*4 {
		t.Fatalf("flooding (%d) not clearly costlier than tree (%d)", floodSent, treeSent)
	}
}

func TestTreeChildrenPartitionMembers(t *testing.T) {
	// For any origin, the union of all nodes' children must be exactly
	// the members minus the origin, with no duplicates (a spanning tree).
	_, overlays, addrs := buildTreeMesh(t, 11)
	for _, origin := range addrs {
		seen := map[simnet.Addr]int{}
		for _, o := range overlays {
			for _, c := range o.treeChildren(origin) {
				seen[c]++
			}
		}
		if len(seen) != len(addrs)-1 {
			t.Fatalf("origin %s: %d distinct children, want %d", origin, len(seen), len(addrs)-1)
		}
		for c, count := range seen {
			if c == origin {
				t.Fatalf("origin %s listed as its own descendant", origin)
			}
			if count != 1 {
				t.Fatalf("node %s has %d parents", c, count)
			}
		}
	}
}

func TestTreeCrashLosesSubtreeFloodDoesNot(t *testing.T) {
	// The documented trade-off: with an interior node down, the tree
	// loses its subtree while flooding still reaches everyone.
	const n = 10
	net, overlays, addrs := buildTreeMesh(t, n)
	delivered := 0
	for i := range overlays {
		overlays[i].OnEnvelope = func(env *scp.Envelope) bool { delivered++; return false }
	}
	net.SetDown(addrs[1]) // a child of the origin's root position
	overlays[0].BroadcastEnvelope(testEnvelope(7))
	net.RunUntilIdle(0)
	if delivered >= n-2 {
		t.Fatalf("tree delivered %d despite interior crash; expected a lost subtree", delivered)
	}

	net2, floods := buildMesh(t, n, fullMesh)
	floodDelivered := 0
	for i := range floods {
		floods[i].OnEnvelope = func(env *scp.Envelope) bool { floodDelivered++; return false }
	}
	net2.SetDown("n1")
	floods[0].BroadcastEnvelope(testEnvelope(7))
	net2.RunUntilIdle(0)
	if floodDelivered != n-2 { // everyone but origin and the crashed node
		t.Fatalf("flooding delivered %d, want %d", floodDelivered, n-2)
	}
}

func TestTreeUnknownOriginNotForwarded(t *testing.T) {
	_, overlays, _ := buildTreeMesh(t, 4)
	if cs := overlays[1].treeChildren("stranger"); cs != nil {
		t.Fatalf("children for unknown origin: %v", cs)
	}
}
