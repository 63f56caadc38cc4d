package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"stellar/internal/bucket"
	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/mempool"
	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
	"stellar/internal/verify"
	"stellar/internal/xdr"
)

// The traced layer replay. The live runs measure the nodes from outside and
// untraced; this is where the per-layer times come from. The workload's own
// transactions, regrouped into ledger-sized batches, go through each layer's
// public functions in the order herder.applyLedger runs them, in this
// process, one span per call group under that ledger's root span. A layer's
// number is its span's self time, as a median over the replayed ledgers.

// replayLedgers is how many ledgers are replayed, so every median has at
// least twenty samples behind it.
const replayLedgers = 20

// Span names: <module>.<call group>.
const (
	spanLedger        = "replay.ledger"
	spanSign          = "stellarcrypto.sign"
	spanVerify        = "stellarcrypto.verify"
	spanTxEncode      = "xdr.tx_encode"
	spanTxDecode      = "xdr.tx_decode"
	spanVerifyCold    = "verify.cold"
	spanVerifyCached  = "verify.cached"
	spanPoolAdd       = "mempool.add"
	spanCheckValid    = "ledger.check_valid"
	spanTxSetHash     = "ledger.txset_hash"
	spanTxSetEncode   = "xdr.txset_encode"
	spanFrameEncode   = "transport.frame_encode"
	spanFrameDecode   = "transport.frame_decode"
	spanSCPRound      = "scp.round"
	spanApply         = "ledger.apply"
	spanDirtySnapshot = "ledger.dirty_snapshot"
	spanAddBatch      = "bucket.add_batch"
	spanPutLedger     = "history.put_ledger"
	spanCheckpoint    = "history.checkpoint"
	spanPrune         = "mempool.prune"
)

// criticalPath lists, in order, the call groups a node runs between a
// ledger trigger and being ready for the next: what close_overhead_ms_p50
// is made of. Ingress work (decode, cold verify, pool add, tx framing)
// happens between closes and is budgeted per transaction instead.
var criticalPath = []string{
	spanCheckValid, spanTxSetHash, spanTxSetEncode, spanSCPRound, spanApply,
	spanDirtySnapshot, spanAddBatch, spanPutLedger, spanCheckpoint, spanPrune,
}

// layerRow is one row of the reconciliation table.
type layerRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
}

// ledgerCounts is the work one replayed ledger held, for per-unit metrics.
type ledgerCounts struct {
	txs, ops, entries, packets, envelopes int
}

// memSCP is an N-node SCP network in memory: envelopes go through a FIFO
// queue, signatures are real, timers fire only when the queue runs dry
// before every node has externalized (the pattern of scp's test harness).
type memSCP struct {
	nodes   []*scp.Node
	keys    map[fba.NodeID]stellarcrypto.PublicKey
	queue   []memDelivery
	emitted []*scp.Envelope
	decided int
	timers  map[memTimer]func()
}

type memDelivery struct {
	to  int
	env *scp.Envelope
}

type memTimer struct {
	node int
	slot uint64
	kind scp.TimerKind
}

// memDriver is one node's scp.Driver.
type memDriver struct {
	net *memSCP
	idx int
	kp  stellarcrypto.KeyPair
}

func (d *memDriver) ValidateValue(uint64, scp.Value) scp.ValidationLevel {
	return scp.ValueFullyValid
}

func (d *memDriver) CombineCandidates(_ uint64, candidates []scp.Value) scp.Value {
	var best scp.Value
	for _, c := range candidates {
		if best == nil || best.Hash().Less(c.Hash()) {
			best = c
		}
	}
	return best
}

func (d *memDriver) EmitEnvelope(env *scp.Envelope) {
	d.net.emitted = append(d.net.emitted, env)
	for i := range d.net.nodes {
		if i != d.idx {
			d.net.queue = append(d.net.queue, memDelivery{to: i, env: env})
		}
	}
}

func (d *memDriver) SignEnvelope(env *scp.Envelope) {
	env.Signature = d.kp.Secret.Sign(env.SigningPayload())
}

func (d *memDriver) VerifyEnvelope(env *scp.Envelope) bool {
	pk, ok := d.net.keys[env.Node]
	return ok && pk.Verify(env.SigningPayload(), env.Signature)
}

func (d *memDriver) SetTimer(slot uint64, kind scp.TimerKind, _ time.Duration, cb func()) {
	key := memTimer{d.idx, slot, kind}
	if cb == nil {
		delete(d.net.timers, key)
		return
	}
	d.net.timers[key] = cb
}

func (d *memDriver) NominationTimeout(round int) time.Duration {
	return scp.DefaultNominationTimeout(round)
}

func (d *memDriver) BallotTimeout(counter uint32) time.Duration {
	return scp.DefaultBallotTimeout(counter)
}

func (d *memDriver) ValueExternalized(uint64, scp.Value) { d.net.decided++ }

func newMemSCP(n int) (*memSCP, error) {
	net := &memSCP{keys: map[fba.NodeID]stellarcrypto.PublicKey{}, timers: map[memTimer]func(){}}
	kps := make([]stellarcrypto.KeyPair, n)
	ids := make([]fba.NodeID, n)
	for i := range kps {
		kps[i] = stellarcrypto.KeyPairFromString("node-" + strconv.Itoa(i))
		ids[i] = fba.NodeIDFromPublicKey(kps[i].Public)
		net.keys[ids[i]] = kps[i].Public
	}
	for i := range kps {
		node, err := scp.NewNode(ids[i], fba.Majority(ids...), networkID, &memDriver{net: net, idx: i, kp: kps[i]})
		if err != nil {
			return nil, err
		}
		net.nodes = append(net.nodes, node)
	}
	return net, nil
}

// round runs one slot from nomination until every node has externalized
// and returns the envelopes emitted.
func (s *memSCP) round(slot uint64, value scp.Value) ([]*scp.Envelope, error) {
	s.emitted, s.decided = nil, 0
	for _, node := range s.nodes {
		node.Nominate(slot, value)
	}
	for s.decided < len(s.nodes) {
		if len(s.queue) == 0 {
			// Nothing in flight: let the earliest-keyed timer fire.
			var keys []memTimer
			for k := range s.timers {
				keys = append(keys, k)
			}
			if len(keys) == 0 {
				return nil, fmt.Errorf("scp round for slot %d is stuck with %d of %d decided", slot, s.decided, len(s.nodes))
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.kind != b.kind {
					return a.kind < b.kind
				}
				return a.node < b.node
			})
			cb := s.timers[keys[0]]
			delete(s.timers, keys[0])
			cb()
			continue
		}
		d := s.queue[0]
		s.queue = s.queue[1:]
		if err := s.nodes[d.to].Receive(d.env); err != nil {
			return nil, err
		}
	}
	s.queue = s.queue[:0]
	for k := range s.timers {
		delete(s.timers, k)
	}
	for _, node := range s.nodes {
		node.PurgeBelow(slot + 1)
	}
	return s.emitted, nil
}

// replayState is the single simulated node the layers are called on.
type replayState struct {
	st      *ledger.State
	buckets *bucket.List
	arch    *history.Archive
	pool    *mempool.Pool
	last    *ledger.Header
	scp     *memSCP
}

// closeUntraced applies a transaction set the way the replay applies the
// measured ones, without spans: the funding ledgers.
func (rs *replayState) closeUntraced(txs []*ledger.Transaction) error {
	ts := &ledger.TxSet{PrevLedgerHash: rs.last.Hash(), Txs: txs}
	seq := rs.last.LedgerSeq + 1
	results, resultsHash := rs.st.ApplyTxSet(ts, networkID, &ledger.ApplyEnv{LedgerSeq: seq, CloseTime: int64(seq)})
	for _, res := range results {
		if !res.Success {
			return fmt.Errorf("funding transaction failed in replay: %s %v", res.Err, res.OpErrors)
		}
	}
	rs.buckets.AddBatch(seq, rs.st.TakeDirtySnapshot())
	rs.last = rs.nextHeader(ts, resultsHash, int64(seq))
	return nil
}

func (rs *replayState) nextHeader(ts *ledger.TxSet, resultsHash stellarcrypto.Hash, closeTime int64) *ledger.Header {
	hdr := ledger.NextHeader(rs.last, rs.last.Hash())
	hdr.TxSetHash = ts.Hash(networkID)
	hdr.ResultsHash = resultsHash
	hdr.SnapshotHash = rs.buckets.Hash()
	hdr.CloseTime = closeTime
	hdr.FeePool = rs.st.FeePool
	return hdr
}

// newReplayState builds the genesis every stellar-node derives, funds the
// workload's accounts through the same funding tree the live run submits,
// and opens an archive on a temp dir so history writes pay a real fsync.
func newReplayState(w workload, dir string) (*replayState, []*account, error) {
	st, masterKP := herder.GenesisState(networkID)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	demo := newAccount("demo-master")
	op := &ledger.CreateAccount{Destination: demo.ID, StartingBalance: 1_000_000 * ledger.One}
	if err := op.Apply(st, &ledger.ApplyEnv{LedgerSeq: 1}, master); err != nil {
		return nil, nil, err
	}
	demo.Seq = st.Account(demo.ID).SeqNum
	rs := &replayState{st: st, buckets: bucket.NewList(), pool: mempool.New(mempool.Config{})}
	v := verify.New(0, 0)
	st.SetVerifier(v)
	rs.buckets.SetPool(v.Pool)
	rs.buckets.AddBatch(1, st.SnapshotAll())
	st.TakeDirtySnapshot()
	rs.last = ledger.GenesisHeader(st, 0)
	rs.last.SnapshotHash = rs.buckets.Hash()

	fp := newFundingPlan(w.Accounts)
	accts := workloadAccounts(w.Accounts)
	if err := rs.closeUntraced([]*ledger.Transaction{fp.hubsTx(demo)}); err != nil {
		return nil, nil, err
	}
	var shares []*ledger.Transaction
	for h, hub := range fp.Hubs {
		hub.Seq = st.Account(hub.ID).SeqNum
		shares = append(shares, fp.shareTx(h, accts))
	}
	if err := rs.closeUntraced(shares); err != nil {
		return nil, nil, err
	}
	for _, a := range accts {
		a.Seq = st.Account(a.ID).SeqNum
	}

	var err error
	if rs.arch, err = history.Open(dir); err != nil {
		return nil, nil, err
	}
	if rs.scp, err = newMemSCP(w.Nodes); err != nil {
		return nil, nil, err
	}
	return rs, accts, nil
}

// frame runs packets through the transport codec both ways, as a peer
// connection does: encode and frame onto a buffer, then read and decode.
func frame(root *obs.Span, packets []*overlay.Packet) error {
	var wire []byte
	sp := root.Child(spanFrameEncode)
	for _, p := range packets {
		payload, err := transport.EncodePacket(p)
		if err != nil {
			return err
		}
		if wire, err = transport.AppendFrame(wire, transport.FramePacket, payload); err != nil {
			return err
		}
	}
	sp.End()
	r := bytes.NewReader(wire)
	sp = root.Child(spanFrameDecode)
	for range packets {
		_, payload, err := transport.ReadFrame(r)
		if err != nil {
			return err
		}
		if _, err := transport.DecodePacket(payload); err != nil {
			return err
		}
	}
	sp.End()
	return nil
}

// replayLedger pushes one batch through the layers under a root span.
func (rs *replayState) replayLedger(proc *obs.Proc, plan *planner, accts []*account, batch int) (uint64, ledgerCounts, error) {
	var counts ledgerCounts
	origin := simnet.Addr(rs.scp.nodes[0].ID())

	// The client's side, outside the root span: build the transactions.
	txs := make([]*ledger.Transaction, batch)
	hashes := make([]stellarcrypto.Hash, batch)
	srcs := make([]*account, batch)
	for i := range txs {
		p := plan.Next()
		tx := buildTx(p, accts)
		tx.Signatures = nil // signed again below, under a span
		txs[i], hashes[i], srcs[i] = tx, tx.Hash(networkID), accts[p.Source]
		srcs[i].Seq = tx.SeqNum
		counts.ops += len(tx.Operations)
	}
	counts.txs = batch

	root := proc.Span("replay", spanLedger)
	defer root.End()

	sp := root.Child(spanSign)
	for i, tx := range txs {
		kp := srcs[i].KP
		tx.Signatures = []ledger.DecoratedSignature{{Hint: kp.Public.Hint(), Sig: kp.Secret.Sign(hashes[i][:])}}
	}
	sp.End()

	sp = root.Child(spanVerify)
	for i, tx := range txs {
		pk, err := tx.Source.PublicKey()
		if err != nil {
			return 0, counts, err
		}
		if !pk.Verify(hashes[i][:], tx.Signatures[0].Sig) {
			return 0, counts, fmt.Errorf("replay: signature of %s does not verify", hashes[i].Hex())
		}
	}
	sp.End()

	envelopes := make([]string, batch)
	sp = root.Child(spanTxEncode)
	raws := make([][]byte, batch)
	for i, tx := range txs {
		raws[i] = tx.MarshalSignedXDR()
	}
	sp.End()
	for i, raw := range raws {
		envelopes[i] = hex.EncodeToString(raw) // the client's hex, not the node's work
	}

	// From here on the node's side: what arrives is hex.
	sp = root.Child(spanTxDecode)
	for i, env := range envelopes {
		raw, err := hex.DecodeString(env)
		if err != nil {
			return 0, counts, err
		}
		if txs[i], err = ledger.DecodeSignedTransactionXDR(raw); err != nil {
			return 0, counts, err
		}
	}
	sp.End()

	rs.st.SetVerifier(verify.New(0, 0))
	sp = root.Child(spanVerifyCold)
	for _, tx := range txs {
		if err := rs.st.CheckSignatures(tx, networkID); err != nil {
			return 0, counts, err
		}
	}
	sp.End()
	sp = root.Child(spanVerifyCached)
	for _, tx := range txs {
		if err := rs.st.CheckSignatures(tx, networkID); err != nil {
			return 0, counts, err
		}
	}
	sp.End()

	sp = root.Child(spanPoolAdd)
	for _, tx := range txs {
		if res := rs.pool.Add(tx, tx.Hash(networkID)); !res.Outcome.Admitted() {
			return 0, counts, fmt.Errorf("replay: pool refused a transaction: %v", res.Outcome)
		}
	}
	sp.End()

	packets := make([]*overlay.Packet, batch)
	for i, tx := range txs {
		packets[i] = &overlay.Packet{Kind: overlay.KindTx, Tx: tx, TTL: overlay.DefaultTTL, Origin: origin}
	}
	if err := frame(root, packets); err != nil {
		return 0, counts, err
	}
	counts.packets = len(packets)

	// The ledger trigger.
	seq := rs.last.LedgerSeq + 1
	closeTime := int64(seq)
	sp = root.Child(spanCheckValid)
	var candidates []*ledger.Transaction
	var invalid error
	rs.pool.Each(func(_ stellarcrypto.Hash, tx *ledger.Transaction) {
		if err := rs.st.CheckValid(tx, networkID, closeTime); err != nil {
			invalid = err
			return
		}
		candidates = append(candidates, tx)
	})
	sp.End()
	if invalid != nil {
		return 0, counts, fmt.Errorf("replay: pooled transaction is not valid: %w", invalid)
	}
	sp = root.Child(spanTxSetHash)
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Source != candidates[j].Source {
			return candidates[i].Source < candidates[j].Source
		}
		return candidates[i].SeqNum < candidates[j].SeqNum
	})
	candidates = ledger.SurgePrice(candidates, rs.st.MaxTxSetSize)
	ts := &ledger.TxSet{PrevLedgerHash: rs.last.Hash(), Txs: candidates}
	tsHash := ts.Hash(networkID)
	sp.End()
	if len(candidates) != batch {
		return 0, counts, fmt.Errorf("replay: tx set holds %d of %d transactions", len(candidates), batch)
	}
	sp = root.Child(spanTxSetEncode)
	enc := xdr.NewEncoder(256 * batch)
	ts.EncodeXDR(enc)
	sp.End()

	// Consensus on the value, among as many nodes as the workload runs.
	value := (&herder.StellarValue{TxSetHash: tsHash, CloseTime: closeTime}).Encode()
	sp = root.Child(spanSCPRound)
	emitted, err := rs.scp.round(uint64(seq), value)
	sp.End()
	if err != nil {
		return 0, counts, err
	}
	counts.envelopes = len(emitted)
	packets = packets[:0]
	for _, env := range emitted {
		packets = append(packets, &overlay.Packet{Kind: overlay.KindEnvelope, Envelope: env, TTL: overlay.DefaultTTL, Origin: simnet.Addr(env.Node)})
	}
	if err := frame(root, packets); err != nil {
		return 0, counts, err
	}
	counts.packets += len(packets)

	// Apply, as herder.applyLedger does, on the warm cache the node has by now.
	sp = root.Child(spanApply)
	results, resultsHash := rs.st.ApplyTxSet(ts, networkID, &ledger.ApplyEnv{LedgerSeq: seq, CloseTime: closeTime})
	sp.End()
	for _, res := range results {
		if !res.Success {
			return 0, counts, fmt.Errorf("replay: transaction %s failed: %s %v", res.TxHash.Hex(), res.Err, res.OpErrors)
		}
	}
	sp = root.Child(spanDirtySnapshot)
	changed := rs.st.TakeDirtySnapshot()
	sp.End()
	counts.entries = len(changed)
	sp = root.Child(spanAddBatch)
	rs.buckets.AddBatch(seq, changed)
	sp.End()
	hdr := rs.nextHeader(ts, resultsHash, closeTime)
	rs.last = hdr

	sp = root.Child(spanPutLedger)
	if err := rs.arch.PutHeader(hdr); err != nil {
		return 0, counts, err
	}
	if err := rs.arch.PutTxSet(seq, ts); err != nil {
		return 0, counts, err
	}
	sp.End()
	sp = root.Child(spanCheckpoint)
	bucketHashes := rs.buckets.BucketHashes()
	for i, h := range bucketHashes {
		if h == bucket.EmptyBucket().Hash() {
			continue
		}
		b, err := rs.buckets.Bucket(i/2, i%2 == 1)
		if err != nil {
			return 0, counts, err
		}
		if err := rs.arch.PutBucket(b); err != nil {
			return 0, counts, err
		}
	}
	if err := rs.arch.PutCheckpoint(&history.Checkpoint{LedgerSeq: seq, HeaderHash: hdr.Hash(), BucketHashes: bucketHashes}); err != nil {
		return 0, counts, err
	}
	sp.End()

	sp = root.Child(spanPrune)
	rs.pool.PruneStale(func(tx *ledger.Transaction) bool {
		acct := rs.st.Account(tx.Source)
		return acct == nil || tx.SeqNum <= acct.SeqNum
	})
	sp.End()
	if rs.pool.Len() != 0 {
		return 0, counts, fmt.Errorf("replay: %d transactions left in the pool after apply", rs.pool.Len())
	}
	return root.ID(), counts, nil
}

// selfTimes returns, per root span, each span name's summed self time:
// its duration minus the part its children cover.
func selfTimes(exp *obs.Export) map[uint64]map[string]time.Duration {
	childTime := map[uint64]int64{}
	for _, s := range exp.Spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.EndNanos - s.StartNanos
		}
	}
	out := map[uint64]map[string]time.Duration{}
	for _, s := range exp.Spans {
		root := s.Parent
		if root == 0 {
			root = s.ID
		}
		if out[root] == nil {
			out[root] = map[string]time.Duration{}
		}
		out[root][s.Name] += time.Duration(s.EndNanos - s.StartNanos - childTime[s.ID])
	}
	return out
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// replay runs the traced replay for one workload, adds the R metrics to m
// (and their sample counts to n), writes the trace under bench/out/, and
// returns the reconciliation table: the critical-path layers, their sum,
// the live close overhead when m holds one, and the remainder.
func replay(w workload, seed int64, m map[string]float64, n map[string]int) ([]layerRow, error) {
	dir := filepath.Join(buildDir, "replay-"+w.Name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rs, accts, err := newReplayState(w, dir)
	if err != nil {
		return nil, err
	}
	// One ledger's worth at the cadence the live runs close at, capped at
	// what a ledger can hold.
	batch := int(math.Round(w.Rate * 1.1))
	if most := rs.st.MaxTxSetSize / w.OpsPerTx; batch > most {
		batch = most
	}
	if batch > w.Accounts {
		return nil, fmt.Errorf("a ledger of %d transactions needs as many accounts, %s has %d", batch, w.Name, w.Accounts)
	}

	tracer := obs.NewTracer(nil)
	proc := tracer.Proc("replay:" + w.Name)
	plan := newPlanner(w, seed)
	sizeBefore, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	roots := make([]uint64, replayLedgers)
	counts := make([]ledgerCounts, replayLedgers)
	for i := range roots {
		if roots[i], counts[i], err = rs.replayLedger(proc, plan, accts, batch); err != nil {
			return nil, err
		}
	}
	sizeAfter, err := dirSize(dir)
	if err != nil {
		return nil, err
	}

	exp := tracer.Export("replay:" + w.Name)
	if exp.Dropped > 0 {
		return nil, fmt.Errorf("tracer dropped %d spans", exp.Dropped)
	}
	self := selfTimes(exp)
	// per returns the median over ledgers of a span's self time divided by
	// that ledger's count of some unit, in the given time unit.
	per := func(span string, unit time.Duration, count func(ledgerCounts) int) float64 {
		xs := make([]float64, len(roots))
		for i, root := range roots {
			xs[i] = float64(self[root][span]) / float64(unit) / float64(max(count(counts[i]), 1))
		}
		return median(xs)
	}
	one := func(ledgerCounts) int { return 1 }
	txs := func(c ledgerCounts) int { return c.txs }
	us, msec := time.Microsecond, time.Millisecond

	m["xdr.tx_decode_us"] = per(spanTxDecode, us, txs)
	m["xdr.tx_encode_us"] = per(spanTxEncode, us, txs)
	m["xdr.txset_encode_us_per_tx"] = per(spanTxSetEncode, us, txs)
	m["stellarcrypto.sign_us"] = per(spanSign, us, txs)
	m["stellarcrypto.verify_us"] = per(spanVerify, us, txs)
	m["verify.cold_us_per_sig"] = per(spanVerifyCold, us, txs) // one signature per transaction
	m["verify.cached_us_per_sig"] = per(spanVerifyCached, us, txs)
	m["mempool.add_us"] = per(spanPoolAdd, us, txs)
	m["mempool.prune_us_per_tx"] = per(spanPrune, us, txs)
	m["ledger.check_valid_us_per_tx"] = per(spanCheckValid, us, txs)
	m["ledger.txset_hash_us_per_tx"] = per(spanTxSetHash, us, txs)
	m["ledger.apply_us_per_op"] = per(spanApply, us, func(c ledgerCounts) int { return c.ops })
	m["ledger.dirty_snapshot_us_per_entry"] = per(spanDirtySnapshot, us, func(c ledgerCounts) int { return c.entries })
	m["bucket.add_batch_ms_per_ledger"] = per(spanAddBatch, msec, one)
	m["bucket.add_batch_us_per_entry"] = per(spanAddBatch, us, func(c ledgerCounts) int { return c.entries })
	m["history.put_ledger_ms"] = per(spanPutLedger, msec, one)
	m["history.checkpoint_ms"] = per(spanCheckpoint, msec, one)
	m["history.bytes_per_ledger"] = float64(sizeAfter-sizeBefore) / replayLedgers
	m["scp.round_ms"] = per(spanSCPRound, msec, one)
	envs := make([]float64, len(counts))
	for i, c := range counts {
		envs[i] = float64(c.envelopes)
	}
	m["scp.envelopes_per_round"] = median(envs)
	packets := func(c ledgerCounts) int { return c.packets }
	m["transport.frame_encode_us"] = per(spanFrameEncode, us, packets)
	m["transport.frame_decode_us"] = per(spanFrameDecode, us, packets)
	n["replay_ledgers"] = replayLedgers
	n["replay_tx_per_ledger"] = batch

	var rows []layerRow
	var sum float64
	for _, span := range criticalPath {
		v := per(span, msec, one)
		rows = append(rows, layerRow{Layer: span, Ms: v})
		sum += v
	}
	m["replay.layer_sum_ms"] = sum
	rows = append(rows, layerRow{Layer: "replay.layer_sum_ms", Ms: sum})
	rows = append(rows, layerRow{Layer: "replay overhead (root self time)", Ms: per(spanLedger, msec, one)})
	if live, ok := m["close_overhead_ms_p50"]; ok {
		m["replay.unexplained_ms"] = live - sum
		rows = append(rows,
			layerRow{Layer: "live close_overhead_ms_p50", Ms: live},
			layerRow{Layer: "replay.unexplained_ms (remainder)", Ms: live - sum})
	}

	out := filepath.Join("bench", "out", w.Name+".trace.json")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(exp)
	if err != nil {
		return nil, err
	}
	return rows, os.WriteFile(out, data, 0o644)
}
