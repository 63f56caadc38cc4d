package herder

import (
	"testing"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/mempool"
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

// firstEvents maps slot → virtual time of the node's first event of kind.
func firstEvents(n *Node, kind obs.EventKind) map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	for _, ev := range n.obs.Trace.Events() {
		if _, seen := out[ev.Slot]; ev.Kind == kind && !seen {
			out[ev.Slot] = ev.At
		}
	}
	return out
}

// triggerCount counts the node's ledger triggers (nomination starts).
func triggerCount(n *Node) int {
	count := 0
	for _, ev := range n.obs.Trace.Events() {
		if ev.Kind == obs.EvNominationStart {
			count++
		}
	}
	return count
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
		trig := firstEvents(n, obs.EvNominationStart)
		prep := firstEvents(n, obs.EvBallotPrepare)
		ext := firstEvents(n, obs.EvExternalize)
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
	net.RunFor(15 * time.Second)
	trigs := make([]map[uint64]time.Duration, len(nodes))
	for i, n := range nodes {
		trigs[i] = firstEvents(n, obs.EvNominationStart)
	}
	first := uint64(nodes[0].nextSlot) // slot of the first close
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
		rc := server.recent[seq]
		items = append(items, overlay.CatchupItem{Slot: uint64(seq), Value: rc.value, TxSet: rc.txset})
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
	if _, ok := firstEvents(laggard, obs.EvNominationStart)[uint64(tip)+1]; !ok {
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

// TestTriggerWaitIsClamped: whatever the recorded ballot start, the wait
// armed at apply stays inside [0, LedgerInterval].
func TestTriggerWaitIsClamped(t *testing.T) {
	for name, tc := range map[string]struct {
		ballotStartFromNow time.Duration
		wantWait           func(interval time.Duration) time.Duration
	}{
		"ballot start in the future": {time.Hour, func(i time.Duration) time.Duration { return i }},
		"ballot start long ago":      {-time.Hour, func(time.Duration) time.Duration { return 0 }},
		"mid-interval":               {-300 * time.Millisecond, func(i time.Duration) time.Duration { return i - 300*time.Millisecond }},
	} {
		net, nodes, _ := buildCadenceTrio(t)
		laggard := nodes[2]
		net.SetDown(laggard.Addr())
		nodes[0].Start()
		nodes[1].Start()
		net.RunFor(5 * time.Second)
		net.SetUp(laggard.Addr())
		items := catchupItems(nodes[0], laggard.last.LedgerSeq+1)[:1]

		st := laggard.stat(items[0].Slot)
		st.sawPrepare, st.firstPrepareAt = true, net.Now()+tc.ballotStartFromNow
		laggard.applyCatchup(items)
		armed, armedAt := laggard.trigTimer, net.Now()
		for !armed.Fired() {
			if !net.Step() {
				t.Fatalf("%s: trigger never fired", name)
			}
		}
		interval := laggard.cfg.LedgerInterval
		if got, want := net.Now()-armedAt, tc.wantWait(interval); got != want {
			t.Fatalf("%s: trigger fired after %v, want %v", name, got, want)
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
	if admitted.Misses != sigsBefore.Misses+1 {
		t.Fatalf("admission verified %d signatures cold, want 1", admitted.Misses-sigsBefore.Misses)
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
	if got := node.ins.flooded[mempool.Added].Value(); got != 2 {
		t.Fatalf("mempool_admitted_total{flood_added} = %v, want 2", got)
	}
}
