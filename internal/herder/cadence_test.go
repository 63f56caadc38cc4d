package herder

import (
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Ledger cadence: the trigger for slot s+1 is anchored one LedgerInterval
// after this node's ballot start on slot s, so the close period is the
// interval plus nomination latency and balloting/apply run inside it.

const cadenceLatency = 5 * time.Millisecond

// buildCadenceTrio is buildPair on a fixed-latency network, so every
// phase boundary lands on an exactly predictable virtual time.
func buildCadenceTrio(t *testing.T) (*simnet.Network, []*Node, stellarcrypto.Hash) {
	t.Helper()
	net, nodes, nid := buildPair(t, nil)
	net.SetLatency(simnet.ConstantLatency(cadenceLatency))
	return net, nodes, nid
}

// Phase boundaries of a slot record, for firstEvents.
var (
	nominationStart = func(r SlotRecord) Stamp { return r.NominationStart }
	firstPrepare    = func(r SlotRecord) Stamp { return r.FirstPrepare }
	externalized    = func(r SlotRecord) Stamp { return r.Externalized }
)

// firstEvents maps slot → virtual time of one phase boundary, for every
// slot the node's records saw it in.
func firstEvents(n *Node, boundary func(SlotRecord) Stamp) map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	for _, r := range n.SlotRecords() {
		if s := boundary(r); s.Seen {
			out[r.Slot] = s.At
		}
	}
	return out
}

// triggerCount counts the node's ledger triggers (nomination starts).
func triggerCount(n *Node) int {
	return len(firstEvents(n, nominationStart))
}

// TestTriggerGapIsIntervalPlusNomination: the gap between consecutive
// triggers is exactly LedgerInterval + that slot's trigger→first-prepare
// latency — balloting and apply no longer add to it.
func TestTriggerGapIsIntervalPlusNomination(t *testing.T) {
	net, nodes, _ := buildCadenceTrio(t)
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(21 * time.Second)
	for i, n := range nodes {
		interval := n.cfg.LedgerInterval
		trig := firstEvents(n, nominationStart)
		prep := firstEvents(n, firstPrepare)
		ext := firstEvents(n, externalized)
		checked := 0
		for slot, at := range trig {
			next, ok := trig[slot+1]
			if !ok {
				continue
			}
			nomination := prep[slot] - at
			if nomination <= 0 || ext[slot] <= prep[slot] {
				t.Fatalf("node %d slot %d: phases out of order: trigger %v prepare %v externalize %v",
					i, slot, at, prep[slot], ext[slot])
			}
			if gap := next - at; gap != interval+nomination {
				t.Fatalf("node %d slot %d: trigger gap %v, want interval %v + nomination %v (balloting took %v)",
					i, slot, gap, interval, nomination, ext[slot]-prep[slot])
			}
			checked++
		}
		if checked < 8 {
			t.Fatalf("node %d: only %d consecutive trigger pairs in 21s", i, checked)
		}
	}
}

// TestBootNominatesAtOnce: a booted node's tip (genesis) has no local ballot
// start, so Start triggers at once, and three nodes started together decide
// ledger 2 within a few message delays instead of one interval after boot.
func TestBootNominatesAtOnce(t *testing.T) {
	net, nodes, _ := buildCadenceTrio(t)
	for _, n := range nodes {
		n.Start()
	}
	interval := nodes[0].cfg.LedgerInterval
	net.RunFor(interval/2 - time.Nanosecond)
	for i, n := range nodes {
		r, ok := n.SlotRecord(2)
		if !ok || !r.NominationStart.Seen || r.NominationStart.At != 0 {
			t.Fatalf("node %d: slot 2 nomination %+v, want it started at boot (t = 0)", i, r.NominationStart)
		}
		if !r.Externalized.Seen || n.LastHeader().LedgerSeq < 2 {
			t.Fatalf("node %d: slot 2 not externalized and applied by %v (record %+v)", i, net.Now(), r)
		}
	}
}

// TestStaggeredStartsResynchronise: nodes whose cadences start at
// different offsets are within one message delay of each other's trigger
// after two closes, because every node anchors on the same network event.
// (Anchoring on the node's own previous trigger keeps the boot offsets
// forever.)
func TestStaggeredStartsResynchronise(t *testing.T) {
	net, nodes, _ := buildCadenceTrio(t)
	offsets := []time.Duration{0, 400 * time.Millisecond, 900 * time.Millisecond}
	for i, n := range nodes {
		net.After(n.Addr(), offsets[i], n.Start)
	}
	first := uint64(nodes[0].LastHeader().LedgerSeq) + 1 // slot of the first close
	net.RunFor(15 * time.Second)
	trigs := make([]map[uint64]time.Duration, len(nodes))
	for i, n := range nodes {
		trigs[i] = firstEvents(n, nominationStart)
	}
	spread := func(slot uint64) time.Duration {
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := range nodes {
			at, ok := trigs[i][slot]
			if !ok {
				t.Fatalf("node %d never triggered slot %d", i, slot)
			}
			lo, hi = min(lo, at), max(hi, at)
		}
		return hi - lo
	}
	if got := spread(first); got != offsets[2] {
		t.Fatalf("setup: first-slot trigger spread %v, want the boot offsets' %v", got, offsets[2])
	}
	for slot := first + 2; slot < first+6; slot++ {
		if got := spread(slot); got > cadenceLatency {
			t.Fatalf("slot %d: triggers spread over %v, want within one message delay (%v)", slot, got, cadenceLatency)
		}
	}
}

// TestCrashAcrossTriggerResumesCadence: the simulator consumes a timer
// that fires while its node is down, so a node crashed across its pending
// trigger has no cadence timer when it revives; the re-arm at every apply
// must bring it back.
func TestCrashAcrossTriggerResumesCadence(t *testing.T) {
	net, nodes, _ := buildCadenceTrio(t)
	for _, n := range nodes {
		n.Start()
	}
	victim := nodes[2]
	net.RunFor(5 * time.Second) // two closes; next trigger due just after 6s
	net.SetDown(victim.Addr())
	net.RunFor(2 * time.Second) // the victim's pending trigger fires into the void
	net.SetUp(victim.Addr())
	before := triggerCount(victim)
	for i := 0; i < 6; i++ {
		net.RunFor(2 * time.Second)
		for _, n := range nodes {
			n.RebroadcastLatest()
		}
	}
	if got, want := victim.LastHeader().LedgerSeq, nodes[0].LastHeader().LedgerSeq; got+1 < want {
		t.Fatalf("victim at %d, network at %d", got, want)
	}
	if got := triggerCount(victim) - before; got < 3 {
		t.Fatalf("victim triggered %d ledgers in 12s after revival, want the cadence back (>= 3)", got)
	}
}

// catchupItems builds the response a peer would serve for [from, tip].
func catchupItems(server *Node, from uint32) []overlay.CatchupItem {
	var items []overlay.CatchupItem
	for seq := from; seq <= server.last.LedgerSeq; seq++ {
		it, _ := server.ledgerAt(seq)
		items = append(items, it)
	}
	return items
}

// TestCatchupReplayArmsOneImmediateTrigger: replaying k caught-up ledgers
// re-arms the cadence k times but leaves one live timer; none of the slots
// had a local ballot start, so it fires at once, exactly once, and every
// wait observed is zero.
func TestCatchupReplayArmsOneImmediateTrigger(t *testing.T) {
	net, nodes, _ := buildCadenceTrio(t)
	laggard := nodes[2]
	net.SetDown(laggard.Addr())
	for _, n := range nodes {
		n.Start()
	}
	net.RunFor(30 * time.Second) // two of three: slots led by the down node wait out a round
	net.SetUp(laggard.Addr())
	items := catchupItems(nodes[0], laggard.last.LedgerSeq+1)
	if len(items) < 4 {
		t.Fatalf("setup: only %d ledgers to replay", len(items))
	}
	tip := nodes[0].last.LedgerSeq

	laggard.applyCatchup(items)
	if laggard.last.LedgerSeq != tip {
		t.Fatalf("replayed to %d, want %d", laggard.last.LedgerSeq, tip)
	}
	if got := triggerCount(laggard); got != 0 {
		t.Fatalf("replay called triggerNextLedger %d times synchronously", got)
	}
	armed := laggard.trigTimer
	if armed == nil || armed.Fired() || armed.Cancelled() {
		t.Fatal("no live trigger timer after replay")
	}
	net.RunFor(time.Millisecond) // less than a message delay: only timers run
	if !armed.Fired() {
		t.Fatal("a replayed slot has no ballot start, so the trigger must fire at once")
	}
	if got := triggerCount(laggard); got != 1 {
		t.Fatalf("%d triggers after replaying %d ledgers, want exactly 1", got, len(items))
	}
	if _, ok := firstEvents(laggard, nominationStart)[uint64(tip)+1]; !ok {
		t.Fatalf("the one trigger was not for slot %d", tip+1)
	}
	slack := histogramSample(t, laggard, "herder_interval_slack_seconds")
	if slack.Count != uint64(len(items)) || slack.Sum != 0 {
		t.Fatalf("herder_interval_slack_seconds: %d observations summing to %vs, want %d zeros",
			slack.Count, slack.Sum, len(items))
	}
	if got := histogramSample(t, laggard, "herder_trigger_seconds").Count; got != 1 {
		t.Fatalf("herder_trigger_seconds observed %d triggers, want 1", got)
	}
}

// histogramSample reads one unlabeled histogram from the node's registry.
func histogramSample(t *testing.T, n *Node, name string) obs.Sample {
	t.Helper()
	for _, fam := range n.obs.Reg.Snapshot() {
		if fam.Name == name && len(fam.Samples) == 1 {
			return fam.Samples[0]
		}
	}
	t.Fatalf("registry has no histogram %s", name)
	return obs.Sample{}
}

// TestTriggerWaitIsClamped: Start and the close path arm the trigger by one
// rule — one interval after this node's first prepare on its tip, clamped
// to [0, LedgerInterval] from now, and at once when the tip has none.
func TestTriggerWaitIsClamped(t *testing.T) {
	none := time.Duration(1 << 62) // no first prepare on the tip
	rows := []struct {
		name                string
		firstPrepareFromNow time.Duration
		wantWait            func(interval time.Duration) time.Duration
	}{
		{"no first prepare", none, func(time.Duration) time.Duration { return 0 }},
		{"first prepare long ago", -time.Hour, func(time.Duration) time.Duration { return 0 }},
		{"first prepare 300ms ago", -300 * time.Millisecond, func(i time.Duration) time.Duration { return i - 300*time.Millisecond }},
		{"first prepare in the future", time.Hour, func(i time.Duration) time.Duration { return i }},
	}
	// Each path brings node n to a tip whose record prepare sets up, arms
	// the trigger, and returns n. The node is cut off from its peers, so no
	// envelope can close a ledger and re-arm the timer before it fires.
	paths := []struct {
		name string
		arm  func(net *simnet.Network, nodes []*Node, prepare func(n *Node, slot uint64)) *Node
	}{
		{"start", func(net *simnet.Network, nodes []*Node, prepare func(*Node, uint64)) *Node {
			n := nodes[0]
			isolate(net, n, nodes)
			net.RunFor(time.Second)
			prepare(n, uint64(n.last.LedgerSeq))
			n.Start()
			return n
		}},
		{"close", func(net *simnet.Network, nodes []*Node, prepare func(*Node, uint64)) *Node {
			laggard := nodes[2]
			isolate(net, laggard, nodes)
			nodes[0].Start()
			nodes[1].Start()
			net.RunFor(5 * time.Second)
			items := catchupItems(nodes[0], laggard.last.LedgerSeq+1)[:1]
			prepare(laggard, uint64(items[0].Header.LedgerSeq))
			laggard.applyCatchup(items)
			return laggard
		}},
	}
	for _, row := range rows {
		for _, path := range paths {
			net, nodes, _ := buildCadenceTrio(t)
			n := path.arm(net, nodes, func(n *Node, slot uint64) {
				if row.firstPrepareFromNow == none {
					return
				}
				n.slots.write(slot, func(r *SlotRecord) {
					r.BallotsStarted, r.FirstPrepare = 1, stamp(net.Now()+row.firstPrepareFromNow)
				})
			})
			armed, armedAt, interval := n.trigTimer, net.Now(), n.cfg.LedgerInterval
			for !armed.Fired() && !armed.Cancelled() && net.Now() <= armedAt+interval && net.Step() {
			}
			if !armed.Fired() {
				t.Fatalf("%s, %s: the trigger armed at %v did not fire within an interval", row.name, path.name, armedAt)
			}
			if got, want := net.Now()-armedAt, row.wantWait(interval); got != want {
				t.Fatalf("%s, %s: trigger fired after %v, want %v", row.name, path.name, got, want)
			}
		}
	}
}

// isolate cuts n's links to every other node.
func isolate(net *simnet.Network, n *Node, nodes []*Node) {
	for _, m := range nodes {
		if m != n {
			net.Partition(n.Addr(), m.Addr())
		}
	}
}

// TestFloodedTxIsPreVerified: a flooded transaction is signature-checked
// into the shared cache on admission and the pool remembers the pass, so
// the trigger does not look its signature up at all and the apply finds it
// warm; and admission itself is not gated on that check — a tx whose
// source account this node cannot see yet is pooled exactly as before.
func TestFloodedTxIsPreVerified(t *testing.T) {
	node, net, master := admitTestNode(t, true)
	source := ledger.AccountIDFromPublicKey(master.Public)
	tx := masterTx(node, master, 100, 1)
	sigsBefore := node.verifier.Cache.Stats()
	node.onTx(tx)
	if node.PendingCount() != 1 {
		t.Fatalf("flooded tx not pooled: pool holds %d", node.PendingCount())
	}
	admitted := node.verifier.Cache.Stats()
	if admitted.Misses != sigsBefore.Misses+1 || admitted.Hits != sigsBefore.Hits {
		t.Fatalf("admission verified %d signatures cold and %d warm, want 1 and 0 (one check, its verdict the proof)",
			admitted.Misses-sigsBefore.Misses, admitted.Hits-sigsBefore.Hits)
	}
	net.RunFor(2 * time.Second)
	if got := node.state.Account(source).SeqNum; got != tx.SeqNum {
		t.Fatalf("flooded tx not applied: source at seq %d, want %d", got, tx.SeqNum)
	}
	after := node.verifier.Cache.Stats()
	if after.Misses != admitted.Misses {
		t.Fatalf("trigger and apply added %d verify_cache_misses_total, want 0", after.Misses-admitted.Misses)
	}
	if after.Hits != admitted.Hits+1 {
		t.Fatalf("trigger and apply looked the signature up %d times, want 1 (apply alone)", after.Hits-admitted.Hits)
	}

	ghost := stellarcrypto.KeyPairFromString("cadence-ghost")
	orphan := &ledger.Transaction{
		Source: ledger.AccountIDFromPublicKey(ghost.Public), Fee: 100, SeqNum: 1,
		Operations: []ledger.Operation{{Body: &ledger.Payment{Destination: source, Amount: ledger.One}}},
	}
	orphan.Sign(node.cfg.NetworkID, ghost)
	node.onTx(orphan)
	if node.PendingCount() != 1 {
		t.Fatalf("flooded tx from a not-yet-visible account was dropped: pool holds %d", node.PendingCount())
	}
	if got := node.ins.flooded[AdmitAccepted].Value(); got != 2 {
		t.Fatalf("mempool_admitted_total{flood_accepted} = %v, want 2", got)
	}
}
