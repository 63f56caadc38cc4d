// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// table and figure (experiment index in DESIGN.md), plus micro-benchmarks
// for the subsystems whose cost the paper discusses. Latencies inside the
// network simulations are virtual-time measurements reported as custom
// metrics; Go's ns/op for those benches measures the real cost of
// simulating, not the system's latency.
package stellar

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"stellar/internal/bucket"
	"stellar/internal/experiments"
	"stellar/internal/fba"
	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/qconfig"
	"stellar/internal/quorum"
	"stellar/internal/scp"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
	"stellar/internal/verify"
)

func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// BenchmarkMessagesPerLedger is E1 (§7.2): SCP envelopes per ledger.
func BenchmarkMessagesPerLedger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMessagesPerLedger(10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPerLedger, "msgs/ledger")
	}
}

// BenchmarkTimeoutProfile is E2 (Figure 8): timeout percentiles on
// degraded links.
func BenchmarkTimeoutProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTimeoutProfile(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Nomination99), "nom-timeouts-p99")
		b.ReportMetric(float64(res.Balloting99), "ballot-timeouts-p99")
	}
}

// BenchmarkLatencyVsAccounts is E3 (Figure 9).
func BenchmarkLatencyVsAccounts(b *testing.B) {
	for _, accounts := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunAccountsSweep([]int{accounts}, 5)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(msf(r.Nomination), "nominate-ms")
				b.ReportMetric(msf(r.Balloting), "ballot-ms")
				b.ReportMetric(msf(r.LedgerUpdate), "ledgerupd-ms")
			}
		})
	}
}

// BenchmarkLatencyVsLoad is E4 (Figure 10).
func BenchmarkLatencyVsLoad(b *testing.B) {
	for _, rate := range []float64{100, 200, 300} {
		b.Run(fmt.Sprintf("rate=%.0f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunLoadSweep([]float64{rate}, 10_000, 5)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(msf(r.LedgerUpdate), "ledgerupd-ms")
				b.ReportMetric(r.TxPerLedger, "tx/ledger")
			}
		})
	}
}

// BenchmarkLatencyVsValidators is E5 (Figure 11).
func BenchmarkLatencyVsValidators(b *testing.B) {
	for _, n := range []int{4, 10, 19} {
		b.Run(fmt.Sprintf("validators=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunValidatorsSweep([]int{n}, 2_000, 4)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(msf(r.Nomination), "nominate-ms")
				b.ReportMetric(msf(r.Balloting), "ballot-ms")
			}
		})
	}
}

// BenchmarkBaseline is E6/E7 (§7.3): the baseline experiment and close
// rate.
func BenchmarkBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBaseline(10_000, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TxPerLedgerMean, "tx/ledger")
		b.ReportMetric(res.Row.CloseMean.Seconds(), "close-s")
	}
}

// BenchmarkValidatorCost is E8 (§7.4).
func BenchmarkValidatorCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunValidatorCost(10, 5_000, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InboundMbitSec, "in-Mbit/s")
		b.ReportMetric(res.HeapMiB, "heap-MiB")
	}
}

// BenchmarkQuorumIntersection is E9/E10 (§6.2): the checker on tiered
// topologies of growing size.
func BenchmarkQuorumIntersection(b *testing.B) {
	for _, orgs := range []int{5, 7, 9} {
		cfg := qconfig.SimulatedNetwork(orgs, 3, qconfig.High)
		qs, err := cfg.QuorumSets()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("orgs=%d", orgs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := quorum.CheckIntersection(qs)
				if !res.Intersects {
					b.Fatal("intersection violated")
				}
			}
		})
	}
}

// BenchmarkCriticality is the E10 companion: per-org worst-case analysis.
func BenchmarkCriticality(b *testing.B) {
	cfg := qconfig.SimulatedNetwork(5, 3, qconfig.High)
	qs, err := cfg.QuorumSets()
	if err != nil {
		b.Fatal(err)
	}
	orgs := quorum.GroupByPrefix(qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := quorum.CheckCriticality(qs, orgs)
		if rep.AnyCritical() {
			b.Fatal("unexpected critical org")
		}
	}
}

// BenchmarkSCPvsPBFT is E11: the closed-membership baseline comparison.
func BenchmarkSCPvsPBFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSCPvsPBFT([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(msf(rows[0].SCPLatency), "scp-ms")
		b.ReportMetric(msf(rows[0].PBFTLatency), "pbft-ms")
	}
}

// BenchmarkTimeoutPolicy is the DESIGN §4 ablation: ballot timeout growth.
func BenchmarkTimeoutPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTimeoutPolicyAblation(6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CloseMean.Seconds(), "linear-close-s")
		b.ReportMetric(rows[len(rows)-1].CloseMean.Seconds(), "const-close-s")
	}
}

// --- micro-benchmarks on the subsystems the paper's costs come from ---

// BenchmarkBucketSpill measures bucket-list ingestion including spills,
// the "overhead of merging buckets, which get larger" of Figure 9.
func BenchmarkBucketSpill(b *testing.B) {
	for _, preload := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", preload), func(b *testing.B) {
			l := bucket.NewList()
			var batch []bucket.Entry
			for i := 0; i < preload; i++ {
				batch = append(batch, bucket.Entry{
					Key:  fmt.Sprintf("a|acct%08d", i),
					Data: []byte("balance"),
				})
			}
			l.AddBatch(1, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var delta []bucket.Entry
				for j := 0; j < 100; j++ {
					delta = append(delta, bucket.Entry{
						Key:  fmt.Sprintf("a|acct%08d", (i*100+j)%preload),
						Data: []byte("changed"),
					})
				}
				l.AddBatch(uint32(i+2), delta)
			}
		})
	}
}

// BenchmarkLedgerApplyPayment measures raw payment throughput of the
// transaction engine.
func BenchmarkLedgerApplyPayment(b *testing.B) {
	networkID := stellarcrypto.HashBytes([]byte("bench"))
	masterKP := stellarcrypto.KeyPairFromString("bench-master")
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	st := ledger.NewGenesisState(master)
	aliceKP := stellarcrypto.KeyPairFromString("bench-alice")
	alice := ledger.AccountIDFromPublicKey(aliceKP.Public)
	env := &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 1}
	setup := &ledger.Transaction{
		Source: master, Fee: ledger.DefaultBaseFee, SeqNum: 1,
		Operations: []ledger.Operation{{
			Body: &ledger.CreateAccount{Destination: alice, StartingBalance: ledger.TotalSupply / 2},
		}},
	}
	setup.Sign(networkID, masterKP)
	if res := st.ApplyTransaction(setup, networkID, env); !res.Success {
		b.Fatal(res.Err)
	}
	seq := st.Account(alice).SeqNum
	txs := make([]*ledger.Transaction, b.N)
	for i := range txs {
		txs[i] = &ledger.Transaction{
			Source: alice, Fee: ledger.DefaultBaseFee, SeqNum: seq + uint64(i) + 1,
			Operations: []ledger.Operation{{
				Body: &ledger.Payment{Destination: master, Asset: ledger.NativeAsset(), Amount: 1},
			}},
		}
		txs[i].Sign(networkID, aliceKP)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := st.ApplyTransaction(txs[i], networkID, env); !res.Success {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkVerifyTxSet measures applying a 256-transaction set three
// ways: without a verifier (direct ed25519 per check, the retained
// sequential reference), with a cold per-iteration verifier (parallel
// prepass pays for the cache fills), and with a warm persistent verifier
// (steady state: nomination already verified every transaction, so apply
// is all cache hits). All variants must produce identical results
// hashes — the equivalence the pipeline property test proves per-seed.
func BenchmarkVerifyTxSet(b *testing.B) {
	networkID := stellarcrypto.HashBytes([]byte("bench-verify"))
	masterKP := stellarcrypto.KeyPairFromString("bench-verify-master")
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	st0 := ledger.NewGenesisState(master)

	const nAccounts, txPerAccount = 64, 4
	kps := stellarcrypto.DeterministicKeyPairs("bench-verify-acct", nAccounts)
	setup := &ledger.Transaction{Source: master, SeqNum: 1}
	for _, kp := range kps {
		setup.Operations = append(setup.Operations, ledger.Operation{
			Body: &ledger.CreateAccount{
				Destination:     ledger.AccountIDFromPublicKey(kp.Public),
				StartingBalance: 1000 * ledger.One,
			},
		})
	}
	setup.Fee = st0.MinFee(setup)
	setup.Sign(networkID, masterKP)
	env := &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 1}
	if res := st0.ApplyTransaction(setup, networkID, env); !res.Success {
		b.Fatal(res.Err)
	}
	snapshot := st0.SnapshotAll()

	ts := &ledger.TxSet{}
	seqBase := uint64(env.LedgerSeq) << 32
	for i, kp := range kps {
		src := ledger.AccountIDFromPublicKey(kp.Public)
		dst := ledger.AccountIDFromPublicKey(kps[(i+1)%nAccounts].Public)
		for j := 0; j < txPerAccount; j++ {
			tx := &ledger.Transaction{
				Source: src, Fee: ledger.DefaultBaseFee, SeqNum: seqBase + uint64(j) + 1,
				Operations: []ledger.Operation{{
					Body: &ledger.Payment{Destination: dst, Asset: ledger.NativeAsset(), Amount: 1},
				}},
			}
			tx.Sign(networkID, kp)
			ts.Txs = append(ts.Txs, tx)
		}
	}

	var refHash stellarcrypto.Hash
	iter := func(b *testing.B, v *verify.Verifier) {
		b.StopTimer()
		st, err := ledger.RestoreState(snapshot, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v != nil {
			st.SetVerifier(v)
		}
		b.StartTimer()
		results, rh := st.ApplyTxSet(ts, networkID, &ledger.ApplyEnv{LedgerSeq: 3, CloseTime: 2})
		b.StopTimer()
		for _, r := range results {
			if !r.Success {
				b.Fatal(r.Err)
			}
		}
		if refHash == (stellarcrypto.Hash{}) {
			refHash = rh
		} else if rh != refHash {
			b.Fatalf("results hash diverged: %x != %x", rh, refHash)
		}
		b.StartTimer()
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			iter(b, nil)
		}
	})
	b.Run("parallel-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			iter(b, verify.New(0, 1<<16))
		}
	})
	b.Run("cached-warm", func(b *testing.B) {
		v := verify.New(0, 1<<16)
		// Warm the cache the way nomination does before apply ever runs.
		iter(b, v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iter(b, v)
		}
		s := v.Cache.Stats()
		b.ReportMetric(100*s.HitRate(), "hit-%")
	})
}

// fundedState returns a genesis state in which the master account has
// created n accounts, the funding transactions that did it (100 operations
// each, as in a benchmark run's setup ledgers), and the accounts' keys.
func fundedState(b *testing.B, networkID stellarcrypto.Hash, n int) (*ledger.State, []*ledger.Transaction, []stellarcrypto.KeyPair) {
	b.Helper()
	masterKP := stellarcrypto.KeyPairFromString("bench-funding-master")
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	st := ledger.NewGenesisState(master)
	kps := stellarcrypto.DeterministicKeyPairs("bench-funded-acct", n)
	var funding []*ledger.Transaction
	for i := 0; i < n; i += 100 {
		tx := &ledger.Transaction{Source: master, SeqNum: uint64(len(funding)) + 1}
		for _, kp := range kps[i:min(i+100, n)] {
			tx.Operations = append(tx.Operations, ledger.Operation{Body: &ledger.CreateAccount{
				Destination: ledger.AccountIDFromPublicKey(kp.Public), StartingBalance: 1000 * ledger.One}})
		}
		tx.Fee = st.MinFee(tx)
		tx.Sign(networkID, masterKP)
		funding = append(funding, tx)
	}
	for _, tx := range funding {
		if res := st.ApplyTransaction(tx, networkID, &ledger.ApplyEnv{LedgerSeq: 2, CloseTime: 1}); !res.Success {
			b.Fatal(res.Err, res.OpErrors)
		}
	}
	return st, funding, kps
}

// BenchmarkTriggerBuild measures what herder.triggerNextLedger computes
// between the timer firing and nomination: collect the pool's valid
// transactions, surge-price them to the 1000-operation cap, seal the set
// (its hash) and encode the flood packet. The pool holds one payment per
// account, decoded from the wire and proven at admission as on a running
// node, against a warm signature cache — the steady state of a saturated
// node (pool=2000, two ledgers' worth) and of a full default pool (8192).
func BenchmarkTriggerBuild(b *testing.B) {
	networkID := stellarcrypto.HashBytes([]byte("bench-trigger"))
	for _, size := range []int{2000, 8192} {
		b.Run(fmt.Sprintf("pool=%d", size), func(b *testing.B) {
			st, _, kps := fundedState(b, networkID, size)
			st.SetVerifier(verify.New(1, 1<<16))
			pool := mempool.New(mempool.Config{MaxTxs: size})
			seq := uint64(2)<<32 + 1
			for i, kp := range kps {
				built := &ledger.Transaction{
					Source: ledger.AccountIDFromPublicKey(kp.Public), Fee: ledger.DefaultBaseFee, SeqNum: seq,
					Operations: []ledger.Operation{{Body: &ledger.Payment{
						Destination: ledger.AccountIDFromPublicKey(kps[(i+1)%size].Public),
						Asset:       ledger.NativeAsset(), Amount: 1}}},
				}
				built.Sign(networkID, kp)
				tx, err := ledger.DecodeSignedTransactionXDR(built.MarshalSignedXDR())
				if err != nil {
					b.Fatal(err)
				}
				h := tx.Seal(networkID)
				if res := pool.Add(tx, h); !res.Outcome.Admitted() {
					b.Fatal(res.Outcome)
				}
				pool.Prove(h, st, networkID)
			}
			prev := stellarcrypto.HashBytes([]byte("prev"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				candidates := pool.Candidates(st, networkID, 2)
				candidates = ledger.SurgePrice(candidates, ledger.DefaultMaxTxSetSize)
				ts := &ledger.TxSet{PrevLedgerHash: prev, Txs: candidates}
				ts.Seal(networkID)
				payload, err := transport.EncodePacket(&overlay.Packet{Kind: overlay.KindTxSet, TxSet: ts, TTL: overlay.DefaultTTL})
				if err != nil || len(ts.Txs) != ledger.DefaultMaxTxSetSize {
					b.Fatalf("proposed %d transactions, %d bytes, err %v", len(ts.Txs), len(payload), err)
				}
			}
		})
	}
}

// BenchmarkDirtySnapshot measures State.TakeDirtySnapshot over the entries
// of a funding ledger: 2000 new accounts and the account that paid.
func BenchmarkDirtySnapshot(b *testing.B) {
	networkID := stellarcrypto.HashBytes([]byte("bench-dirty"))
	const entries = 2000
	b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, _, _ := fundedState(b, networkID, entries)
			b.StartTimer()
			if got := len(st.TakeDirtySnapshot()); got != entries+1 {
				b.Fatalf("snapshot holds %d entries, want %d", got, entries+1)
			}
		}
	})
}

// BenchmarkBucketRehash measures bucket-list ingestion across 128
// ledgers — including the level merges and rehashes on spills — with the
// merge work sequential (workers=1) versus fanned out across cores.
func BenchmarkBucketRehash(b *testing.B) {
	const ledgers, perLedger = 128, 200
	batches := make([][]bucket.Entry, ledgers)
	for i := range batches {
		for j := 0; j < perLedger; j++ {
			batches[i] = append(batches[i], bucket.Entry{
				Key:  fmt.Sprintf("a|acct%08d", (i*perLedger+j*17)%3000),
				Data: []byte(fmt.Sprintf("balance-%d-%d", i, j)),
			})
		}
	}
	var refHash stellarcrypto.Hash
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 { // one CPU: the fanned-out variant is the same run
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := bucket.NewList()
				l.SetPool(verify.NewPool(workers))
				for seq := uint32(1); seq <= ledgers; seq++ {
					l.AddBatch(seq, batches[seq-1])
				}
				b.StopTimer()
				if h := l.Hash(); refHash == (stellarcrypto.Hash{}) {
					refHash = h
				} else if h != refHash {
					b.Fatalf("bucket hash diverged across worker counts")
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEnvelopeSignVerify measures the crypto cost of one SCP
// envelope round trip.
func BenchmarkEnvelopeSignVerify(b *testing.B) {
	kp := stellarcrypto.KeyPairFromString("bench-validator")
	id := fba.NodeIDFromPublicKey(kp.Public)
	env := &scp.Envelope{
		Node: id, Slot: 1, Seq: 1,
		QSet:      fba.Majority(id),
		Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{scp.Value("v")}},
	}
	pk := kp.Public
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Signature = kp.Secret.Sign(env.SigningPayload())
		if !pk.Verify(env.SigningPayload(), env.Signature) {
			b.Fatal("verify failed")
		}
	}
}

// scpRoundBench measures one full consensus round (nominate →
// externalize) for a 4-node network in simulation, with or without the
// causal span tracer attached.
func scpRoundBench(trace bool) func(b *testing.B) {
	return func(b *testing.B) {
		s, err := experiments.Build(experiments.Options{
			Validators: 4, Accounts: 64, NoLoad: true, LedgerInterval: time.Second,
			Trace: trace,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Start()
		s.Run(3 * time.Second) // warm-up: first ledger closes
		b.ResetTimer()
		start := s.Nodes[0].LastHeader().LedgerSeq
		for i := 0; i < b.N; i++ {
			s.Run(1200 * time.Millisecond)
		}
		b.StopTimer()
		closed := int(s.Nodes[0].LastHeader().LedgerSeq - start)
		if closed == 0 {
			b.Fatal("no ledgers closed")
		}
		b.ReportMetric(float64(closed)/float64(b.N), "ledgers/iter")
	}
}

// BenchmarkSCPRound is the tracing-off configuration — every node runs
// with a nil tracer, so the instrumentation reduces to nil checks.
func BenchmarkSCPRound(b *testing.B) { scpRoundBench(false)(b) }

// BenchmarkSCPRoundTraced attaches the span tracer, for measuring what
// -trace costs when it is actually on.
func BenchmarkSCPRoundTraced(b *testing.B) { scpRoundBench(true)(b) }

// TestNilTracerOverhead (gated on TRACE_OVERHEAD=1; bench-smoke runs it)
// bounds what the span instrumentation adds to BenchmarkSCPRound when
// tracing is disabled. It measures the nil-tracer fast path directly,
// scales it by a generous per-ledger call-site budget, and asserts the
// result stays under 1% of the real cost of closing one ledger.
func TestNilTracerOverhead(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD") == "" {
		t.Skip("set TRACE_OVERHEAD=1 to run the nil-tracer overhead budget")
	}

	// (a) one bundle of nil-receiver tracer calls — the exact methods the
	// herder and ledger issue on the hot path.
	const opsPerBundle = 9
	nilRes := testing.Benchmark(func(b *testing.B) {
		var tr *obs.Tracer
		for i := 0; i < b.N; i++ {
			p := tr.Proc("node")
			sp := p.Span("consensus", obs.SpanSlot)
			c := sp.Child(obs.SpanNomination)
			c.End()
			sp.CompleteChild(obs.SpanBucketMerge, 0)
			sp.Arg("slot", "1")
			sp.EndAfter(0)
			sp.End()
			tr.Flow(sp, c)
		}
	})
	nsPerCall := float64(nilRes.NsPerOp()) / opsPerBundle

	// (b) the real cost of one consensus round, untraced.
	simRes := testing.Benchmark(scpRoundBench(false))
	ledgersPerIter := simRes.Extra["ledgers/iter"]
	if ledgersPerIter <= 0 {
		t.Fatal("SCP round benchmark closed no ledgers")
	}
	nsPerLedger := float64(simRes.NsPerOp()) / ledgersPerIter

	// Budget: 4 validators × (a full tx lifecycle for every one of the
	// ~100 transactions a ledger can carry + the slot's own span tree),
	// far above the real call counts.
	const callsPerLedger = 4 * (100*10 + 50)
	overhead := nsPerCall * callsPerLedger
	limit := nsPerLedger / 100 // 1%
	t.Logf("nil-tracer call: %.2f ns; ledger close: %.0f ns; budgeted overhead %.0f ns (%.3f%%)",
		nsPerCall, nsPerLedger, overhead, 100*overhead/nsPerLedger)
	if overhead >= limit {
		t.Fatalf("nil-tracer path too slow: %d budgeted calls × %.2f ns = %.0f ns ≥ 1%% of a %.0f ns ledger close",
			callsPerLedger, nsPerCall, overhead, nsPerLedger)
	}
}
