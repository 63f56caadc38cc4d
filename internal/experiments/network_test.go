package experiments

import (
	"testing"
	"time"

	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/obs"
)

func smallOpts() Options {
	return Options{
		Validators:     4,
		Accounts:       200,
		ActiveAccounts: 100,
		TxRate:         20,
		LedgerInterval: 5 * time.Second,
	}
}

func TestNetworkClosesLedgers(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	for i, seq := range s.LedgerSeqs() {
		if seq < 8 {
			t.Fatalf("node %d closed only %d ledgers in 60s", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkAppliesTransactions(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	m := s.Summary()
	if m.TxPerLedger.N() == 0 {
		t.Fatal("no ledgers measured")
	}
	// 20 tx/s over 5 s ledgers ≈ 100 tx per ledger once warmed up.
	if m.TxPerLedger.Max() < 50 {
		t.Fatalf("max tx/ledger = %d, expected ≥ 50", m.TxPerLedger.Max())
	}
	// The generator's payments actually moved money.
	bal := s.Nodes[0].State().BalanceOf(s.Accounts[0].ID, nativeAsset())
	if bal == 10_000*one() {
		t.Fatal("account 0 balance unchanged; no payments applied")
	}
}

func TestNetworkCloseRate(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(120 * time.Second)
	m := s.Summary()
	mean := time.Duration(m.CloseInterval.Mean())
	// §7.3: close times hover just above the 5-second target.
	if mean < 4*time.Second || mean > 7*time.Second {
		t.Fatalf("mean close interval %v, want ≈5s", mean)
	}
}

func TestNetworkStateHashesAgree(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(45 * time.Second)
	// All nodes at the same ledger must have identical snapshot hashes.
	minSeq := s.LedgerSeqs()[0]
	for _, seq := range s.LedgerSeqs() {
		if seq < minSeq {
			minSeq = seq
		}
	}
	if minSeq < 3 {
		t.Fatalf("nodes too far behind: %v", s.LedgerSeqs())
	}
	var ref [32]byte
	for i, n := range s.Nodes {
		h, ok := n.HeaderHash(minSeq)
		if !ok {
			t.Fatalf("node %d missing header %d", i, minSeq)
		}
		if i == 0 {
			ref = h
		} else if ref != h {
			t.Fatalf("node %d header hash differs at %d", i, minSeq)
		}
	}
}

func TestSparseTopologyStillConverges(t *testing.T) {
	opts := smallOpts()
	opts.Validators = 6
	opts.SparseTopology = 2 // ring
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	for i, seq := range s.LedgerSeqs() {
		if seq < 5 {
			t.Fatalf("ring node %d closed only %d ledgers", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageLossToleratedWithAntiEntropy(t *testing.T) {
	opts := smallOpts()
	opts.DropRate = 0.05
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Periodic anti-entropy, as the overlay layer provides in production.
	for i := 0; i < 30; i++ {
		s.Run(4 * time.Second)
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
	}
	for i, seq := range s.LedgerSeqs() {
		if seq < 5 {
			t.Fatalf("node %d closed only %d ledgers under 5%% loss", i, seq)
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordsSurviveAWrappedHook: a caller that wraps the OnLedgerClose hook
// Build installed, as examples/remittance does, sees every close the
// records hold, and the records keep coming.
func TestRecordsSurviveAWrappedHook(t *testing.T) {
	s, err := Build(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint32
	record := s.Nodes[0].OnLedgerClose
	s.Nodes[0].OnLedgerClose = func(h *ledger.Header, results []ledger.TxResult, cs herder.CloseStats) {
		record(h, results, cs)
		if cs.Seq != h.LedgerSeq {
			t.Errorf("close stats for ledger %d handed with header %d", cs.Seq, h.LedgerSeq)
		}
		seen = append(seen, h.LedgerSeq)
	}
	s.Start()
	s.Run(30 * time.Second)
	if len(seen) < 4 {
		t.Fatalf("wrapping hook saw %d closes", len(seen))
	}
	if got := len(s.Records[0]); got != len(seen) {
		t.Fatalf("node 0 kept %d records, its wrapping hook saw %d closes", got, len(seen))
	}
	for k, r := range s.Records[0] {
		if r.Seq != seen[k] {
			t.Fatalf("record %d is ledger %d, the hook saw %d", k, r.Seq, seen[k])
		}
	}
	for i, records := range s.Records[1:] {
		if len(records) == 0 {
			t.Fatalf("node %d kept no records", i+1)
		}
	}
}

// TestCloseStatsFeedTheRegistry: each close is measured once. Over a lossy,
// laggy run — so that timeouts occur and some phases go unobserved — every
// node's herder_* histograms hold exactly the samples of its close records.
func TestCloseStatsFeedTheRegistry(t *testing.T) {
	opts := smallOpts()
	opts.LatencyMin, opts.LatencyMax = 20*time.Millisecond, 800*time.Millisecond
	opts.DropRate = 0.02
	opts.Seed = 3
	regs := make([]*obs.Registry, opts.Validators)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	opts.Obs = func(i int) *obs.Obs { return &obs.Obs{Reg: regs[i]} }
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 20; i++ {
		s.Run(opts.LedgerInterval)
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
	}
	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	timeouts := 0
	for i, records := range s.Records {
		if len(records) < 10 {
			t.Fatalf("node %d recorded %d closes", i, len(records))
		}
		for k, r := range records {
			if want := uint32(k + 2); r.Seq != want {
				t.Fatalf("node %d record %d is ledger %d, want %d", i, k, r.Seq, want)
			}
		}
		m := Summarize(records)
		var txs float64
		for _, n := range m.TxPerLedger {
			txs += float64(n)
		}
		for _, c := range []struct {
			name string
			n    int
			sum  float64
		}{
			{"herder_nomination_seconds", m.Nomination.N(), seconds(m.Nomination)},
			{"herder_balloting_seconds", m.Balloting.N(), seconds(m.Balloting)},
			{"herder_close_interval_seconds", m.CloseInterval.N(), seconds(m.CloseInterval)},
			{"herder_tx_per_ledger", m.TxPerLedger.N(), txs},
		} {
			count, sum := histogram(t, regs[i], c.name)
			if count != uint64(c.n) || sum != c.sum {
				t.Errorf("node %d %s: registry count %d sum %v, records %d sum %v", i, c.name, count, sum, c.n, c.sum)
			}
		}
		for _, r := range records {
			timeouts += r.NominationTimeouts + r.BallotTimeouts
		}
		checkSlotRecords(t, i, s.Nodes[i], records, regs[i])
	}
	if timeouts == 0 {
		t.Fatal("no timeouts: the run does not exercise the lossy path")
	}
}

// checkSlotRecords holds a node's per-slot records to what was derived from
// them: every closed slot's retained record gives that ledger's CloseStats,
// and the records' timeouts sum to scp_timeouts_total{kind}.
func checkSlotRecords(t *testing.T, i int, n *herder.Node, closes []herder.CloseStats, reg *obs.Registry) {
	t.Helper()
	recs := n.SlotRecords()
	bySlot := make(map[uint64]herder.SlotRecord, len(recs))
	var nomTimeouts, ballotTimeouts int
	for _, r := range recs {
		bySlot[r.Slot] = r
		nomTimeouts += r.NominationTimeouts
		ballotTimeouts += r.BallotTimeouts
	}
	for _, cs := range closes {
		r, ok := bySlot[uint64(cs.Seq)]
		if !ok || r.Applied == 0 {
			t.Fatalf("node %d ledger %d: no applied record in %d retained", i, cs.Seq, len(recs))
		}
		var want herder.CloseStats
		if want.InSCP = r.InSCP(); want.InSCP {
			want.NominationTimeouts, want.BallotTimeouts, want.Emitted = r.NominationTimeouts, r.BallotTimeouts, r.EnvelopesEmitted
		}
		if r.Prepared() {
			if r.NominationStart != 0 {
				want.Nominated, want.Nomination = true, r.FirstPrepare-r.NominationStart
			}
			decided := r.Externalized
			if decided == 0 {
				decided = r.Applied
			}
			want.Balloted, want.Balloting = true, decided-r.FirstPrepare
		}
		got := cs
		got.Seq, got.Txs, got.Apply, got.CloseInterval = 0, 0, 0, 0
		if got != want {
			t.Errorf("node %d ledger %d: close stats %+v, record gives %+v (record %+v)", i, cs.Seq, got, want, r)
		}
	}
	for kind, want := range map[string]int{"nomination": nomTimeouts, "ballot": ballotTimeouts} {
		if got := counter(t, reg, "scp_timeouts_total", kind); got != float64(want) {
			t.Errorf("node %d scp_timeouts_total{kind=%q} = %v, records sum to %d", i, kind, got, want)
		}
	}
}

// counter reads one child of a single-label counter family from reg (0 when
// the child never counted).
func counter(t *testing.T, reg *obs.Registry, name, label string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if len(s.LabelValues) == 1 && s.LabelValues[0] == label {
				return s.Value
			}
		}
		return 0
	}
	t.Fatalf("registry has no counter %s", name)
	return 0
}

// seconds sums a latency distribution in seconds, in sample order, as the
// registry does.
func seconds(d Dist[time.Duration]) float64 {
	var sum float64
	for _, v := range d {
		sum += v.Seconds()
	}
	return sum
}

// histogram reads an unlabeled histogram's count and sum from reg.
func histogram(t *testing.T, reg *obs.Registry, name string) (uint64, float64) {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name && len(f.Samples) == 1 {
			return f.Samples[0].Count, f.Samples[0].Sum
		}
	}
	t.Fatalf("registry has no histogram %s", name)
	return 0, 0
}
