package experiments

import (
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

// Soak test: a long multi-ledger run with continuous load, node churn, and
// an archive-based late joiner — the production conditions of §6 and §7
// compressed into one deterministic scenario.
func TestSoakLongRunWithChurnAndCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	opts := Options{
		Validators:    5,
		Accounts:      1000,
		TxRate:        40,
		ArchiveDirFor: ArchiveAt(t.TempDir()),
		Seed:          777,
		// The late validator joins from the archive at the live tip.
		CheckpointInterval: 1,
	}
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	// Phase 1: steady state.
	s.Run(50 * time.Second)

	// Phase 2: rolling single-node outages (within fault tolerance of
	// majority slices over 5 nodes).
	for i := 0; i < 5; i++ {
		victim := s.Nodes[i%len(s.Nodes)]
		s.Net.SetDown(victim.Addr())
		s.Run(12 * time.Second)
		s.Net.SetUp(victim.Addr())
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
		s.Run(12 * time.Second)
	}

	// Phase 3: steady state again; everyone should reconverge.
	for i := 0; i < 10; i++ {
		s.Run(5 * time.Second)
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
	}

	if err := s.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	lo, hi := s.LedgerSeqs()[0], s.LedgerSeqs()[0]
	for _, seq := range s.LedgerSeqs() {
		if seq < lo {
			lo = seq
		}
		if seq > hi {
			hi = seq
		}
	}
	if hi < 40 {
		t.Fatalf("network closed only %d ledgers over the soak", hi)
	}
	if hi-lo > 3 {
		t.Fatalf("validators spread too far after recovery: %v", s.LedgerSeqs())
	}

	// Phase 4: a brand-new validator joins from the archive (§5.4) and
	// participates passively (it is not in anyone's slices, but must
	// track consensus and stay consistent).
	kp := stellarcrypto.KeyPairFromString("soak-late-joiner")
	ids := make([]fba.NodeID, len(s.Nodes))
	for i, n := range s.Nodes {
		ids[i] = n.ID()
	}
	late, err := herder.New(s.Net, herder.Config{
		Keys:           kp,
		QSet:           fba.Majority(ids...),
		NetworkID:      s.NetworkID,
		LedgerInterval: s.Opts.LedgerInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.CatchUp(s.Archives[0]); err != nil {
		t.Fatal(err)
	}
	late.Overlay().Connect(s.Nodes[0].Addr(), s.Nodes[1].Addr())
	s.Nodes[0].Overlay().Connect(late.Addr())
	s.Nodes[1].Overlay().Connect(late.Addr())
	late.Start()
	for i := 0; i < 8; i++ {
		s.Run(5 * time.Second)
		for _, n := range s.Nodes {
			n.RebroadcastLatest()
		}
	}
	lateSeq := late.LastHeader().LedgerSeq
	netSeq := s.Nodes[0].LastHeader().LedgerSeq
	if lateSeq+2 < netSeq {
		t.Fatalf("late joiner stuck at %d, network at %d", lateSeq, netSeq)
	}
	// The joiner's headers must match the network's (compare at a ledger
	// both have closed; either may be slightly ahead of the other).
	cmp := lateSeq
	if netSeq < cmp {
		cmp = netSeq
	}
	h1, ok1 := late.HeaderHash(cmp)
	h2, ok2 := s.Nodes[0].HeaderHash(cmp)
	if !ok1 || !ok2 || h1 != h2 {
		t.Fatalf("late joiner header diverges from network at %d (ok1=%v ok2=%v)", cmp, ok1, ok2)
	}

	// The archive can replay history: every archived tx set references
	// its predecessor's header hash (Figure 3 chain).
	cp, err := s.Archives[0].LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.LedgerSeq < 40 {
		t.Fatalf("archive checkpoint at %d", cp.LedgerSeq)
	}
	for seq := cp.LedgerSeq - 5; seq <= cp.LedgerSeq; seq++ {
		if _, err := s.Archives[0].GetTxSet(seq); err != nil {
			t.Fatalf("archived tx set %d missing: %v", seq, err)
		}
		if _, err := s.Archives[0].GetHeader(seq); err != nil {
			t.Fatalf("archived header %d missing: %v", seq, err)
		}
	}
}

// TestSoakLedgerStateMatchesSnapshotHash verifies the Figure 3 invariant
// over a long run: at every close, the header's snapshot hash equals the
// bucket list hash of the actual ledger contents (checked implicitly by
// agreement; here we rebuild state from one node's bucket entries).
func TestSoakStateRebuildFromBuckets(t *testing.T) {
	opts := Options{Validators: 3, Accounts: 300, TxRate: 30, ArchiveDirFor: ArchiveAt(t.TempDir()), CheckpointInterval: 1, Seed: 778}
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(60 * time.Second)
	s.Stop()
	s.Run(10 * time.Second)

	cp, err := s.Archives[0].LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := s.Archives[0].GetHeader(cp.LedgerSeq)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := s.Archives[0].RestoreBucketList(cp)
	if err != nil {
		t.Fatal(err)
	}
	if buckets.Hash() != hdr.SnapshotHash {
		t.Fatal("bucket list hash does not match archived header snapshot hash")
	}
	st, err := ledger.RestoreState(buckets.AllLive(), hdr)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt state has the same account population as a live node at
	// that ledger (live node may have advanced; compare counts loosely).
	if st.NumAccounts() < opts.Accounts {
		t.Fatalf("rebuilt state has %d accounts, want ≥ %d", st.NumAccounts(), opts.Accounts)
	}
}
