package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"stellar/internal/history"
	"stellar/internal/ledger"
	"stellar/internal/stellarcrypto"
)

const (
	ledgerInterval = time.Second
	// warmup is load at the workload's rate that is sent but not measured,
	// so the window starts with pools and caches at their steady occupancy.
	warmup = 4 * time.Second
	// pollEvery is the close-detection resolution: every first-seen time,
	// and so every latency and close gap, is quantised to it.
	pollEvery = 10 * time.Millisecond
	// stallGap is the close gap from which a ledger counts as stalled: the
	// first nomination timeout alone adds 2 s.
	stallGap = 2 * ledgerInterval
	// drainLedgers bounds the wait for accepted transactions to apply once
	// the generator has stopped; the drain ends as soon as node-0's pool is
	// empty, which takes more than two ledgers only on pay_saturate.
	drainLedgers = 8
	// lateLimit is the generator lateness beyond which load due in one
	// ledger was sent after the next had closed: the window did not run the
	// workload and is reported invalid, not slow. Lateness below it is the
	// system's doing, not the generator's: with one request in flight, a node
	// that holds a POST while its event loop closes a ledger holds up
	// everything due behind it, and latencies are timed from when each
	// request was due.
	lateLimit = ledgerInterval
)

// submission is one POST /transactions of the load phase.
type submission struct {
	Due    time.Time
	Late   time.Duration // when the request actually started, after Due
	RTT    time.Duration
	Status int // HTTP status; 0 = transport error
	Hash   stellarcrypto.Hash
}

func (s *submission) accepted() bool {
	return s.Status == http.StatusAccepted || s.Status == http.StatusOK
}

// closeObs is the poller first seeing a ledger on node-0.
type closeObs struct {
	Seq uint32
	At  time.Time
}

// snapshot is what the benchmark reads from outside at a window edge.
type snapshot struct {
	closeObs
	Metrics scrape
	CPU     time.Duration // all nodes, on a CPU
	Waiting time.Duration // all nodes, runnable without a CPU
}

// liveRun is one workload run against a real quorum.
type liveRun struct {
	w       workload
	seed    int64
	window  time.Duration
	rejoin  bool // run the restart epilogue
	c       *cluster
	accts   []*account
	fundSeq uint32 // a ledger by which every account exists

	// Backpressure (workloads with a Backlog): the generator may start
	// request number sent only while sent < limit; the poller raises limit
	// after each close by the room node-0's pool then has.
	sent, limit atomic.Int64

	setup      time.Duration
	subs       []submission
	closes     []closeObs
	readRTT    []float64 // poller round trips inside the window, ms
	a, b       snapshot  // window edges
	peakRSS    int64
	rejoinTime time.Duration
	violations []string
}

func (r *liveRun) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// post submits one signed transaction to a node and returns the status.
func (r *liveRun) post(nd *node, tx *ledger.Transaction) (int, error) {
	raw := tx.MarshalSignedXDR()
	body := make([]byte, 0, 32+2*len(raw))
	body = append(body, `{"envelope_xdr":"`...)
	body = hex.AppendEncode(body, raw)
	body = append(body, `"}`...)
	resp, err := r.c.http.Post(nd.HTTP+"/transactions", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode, nil
}

// accountSeq reads an account's sequence number from a node, reporting
// false while the account does not exist yet.
func (r *liveRun) accountSeq(nd *node, id ledger.AccountID) (uint64, bool, error) {
	status, body, err := r.c.get(nd.HTTP + "/accounts/" + string(id))
	if err != nil {
		return 0, false, err
	}
	if status == http.StatusNotFound {
		return 0, false, nil
	}
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("GET /accounts/%s: status %d", id, status)
	}
	var info struct {
		Sequence uint64 `json:"sequence"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, false, err
	}
	return info.Sequence, true, nil
}

// awaitAccount polls until the account exists on the node.
func (r *liveRun) awaitAccount(nd *node, a *account, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		seq, ok, err := r.accountSeq(nd, a.ID)
		if err != nil {
			return err
		}
		if ok {
			a.Seq = seq
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("account %s did not appear on %s in %v", a.ID, nd.Label, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fund creates the workload's accounts through POST /transactions and
// returns once every account is visible on every node: each is read back
// from node-0, and the other nodes must reach a ledger at or past that
// point with the same header hash — the header commits to the bucket list,
// so an equal hash is an equal account set.
func (r *liveRun) fund() error {
	node0 := r.c.nodes[0]
	master := newAccount("demo-master")
	if err := r.awaitAccount(node0, master, 5*time.Second); err != nil {
		return err
	}
	fp := newFundingPlan(r.w.Accounts)
	r.accts = workloadAccounts(r.w.Accounts)

	submit := func(tx *ledger.Transaction) error {
		status, err := r.post(node0, tx)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("funding transaction refused with status %d", status)
		}
		return nil
	}
	if err := submit(fp.hubsTx(master)); err != nil {
		return err
	}
	for _, hub := range fp.Hubs {
		if err := r.awaitAccount(node0, hub, 10*time.Second); err != nil {
			return err
		}
	}
	for h := range fp.Hubs {
		if err := submit(fp.shareTx(h, r.accts)); err != nil {
			return err
		}
	}
	// One 1000-op ledger per ten hubs, plus slack for a slow round.
	timeout := time.Duration(len(fp.Hubs)/10+10) * ledgerInterval * 2
	for _, a := range r.accts {
		if err := r.awaitAccount(node0, a, timeout); err != nil {
			return err
		}
	}
	at, err := r.c.ledger(node0, "latest")
	if err != nil {
		return err
	}
	r.fundSeq = at.Sequence
	if err := r.c.waitLedger(r.fundSeq, 10*time.Second); err != nil {
		return err
	}
	return r.checkHashes([]uint32{r.fundSeq})
}

// checkHashes compares GET /ledgers/{seq} across all nodes.
func (r *liveRun) checkHashes(seqs []uint32) error {
	for _, seq := range seqs {
		var want string
		for i, nd := range r.c.nodes {
			li, err := r.c.ledger(nd, strconv.FormatUint(uint64(seq), 10))
			if err != nil {
				return err
			}
			if i == 0 {
				want = li.Hash
			} else if li.Hash != want {
				return fmt.Errorf("ledger %d: %s has header %s, node-0 has %s", seq, nd.Label, li.Hash, want)
			}
		}
	}
	return nil
}

// submitLoop is the open-loop generator: each transaction is due a fixed
// interval after the one before it, whatever happened to that one, and one
// request is in flight at a time. Until the window opens the interval is
// twice the workload's (see warmup). It signs at send time with the
// source's next sequence number, so a refused submission never leaves a
// sequence gap. On a workload with a Backlog it also holds back while the
// pool is that full (see refill).
func (r *liveRun) submitLoop(start time.Time, full, stop *atomic.Bool) []submission {
	plan := newPlanner(r.w, r.seed)
	subs := make([]submission, 0, int(r.w.Rate*(r.window+warmup+4*ledgerInterval).Seconds()))
	interval := time.Duration(float64(time.Second) / r.w.Rate)
	for due := start; !stop.Load(); {
		if r.w.Backlog > 0 && r.sent.Load() >= r.limit.Load() {
			// The pool is as full as the workload lets it get. What was due
			// meanwhile is not offered later: the clock restarts when there
			// is room, so the wait is neither lateness nor latency.
			for r.sent.Load() >= r.limit.Load() && !stop.Load() {
				time.Sleep(time.Millisecond)
			}
			if now := time.Now(); now.After(due) {
				due = now
			}
			continue
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p := plan.Next()
		src := r.accts[p.Source]
		tx := buildTx(p, r.accts)
		sub := submission{Due: due, Hash: tx.Hash(networkID)}
		// Sources are pinned to a node, so one node sees an account's whole
		// sequence chain and never judges it from a flood that is behind.
		nd := r.c.nodes[p.Source%len(r.c.nodes)]
		sent := time.Now()
		sub.Late = sent.Sub(due)
		status, err := r.post(nd, tx)
		sub.RTT = time.Since(sent)
		if err == nil {
			sub.Status = status
		}
		if sub.accepted() {
			src.Seq = tx.SeqNum
		}
		subs = append(subs, sub)
		r.sent.Add(1)
		if full.Load() {
			due = due.Add(interval)
		} else {
			due = due.Add(2 * interval)
		}
	}
	return subs
}

// refill reads node-0's pool size and lets the generator fill the pool up to
// the workload's backlog. A request that node-0 has not yet seen when it
// answers is counted twice, which errs on the side of sending less.
func (r *liveRun) refill() error {
	if r.w.Backlog == 0 {
		return nil
	}
	sent := r.sent.Load()
	status, body, err := r.c.get(r.c.nodes[0].HTTP + "/fee_stats")
	if err != nil {
		return err
	}
	var fs struct {
		PoolSize int `json:"pool_size"`
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /fee_stats: status %d", status)
	}
	if err := json.Unmarshal(body, &fs); err != nil {
		return err
	}
	if room := r.w.Backlog - fs.PoolSize; room > 0 {
		r.limit.Store(sent + int64(room))
	}
	return nil
}

// take reads a window edge: node-0's registry and every node's CPU time.
func (r *liveRun) take(obs closeObs) (snapshot, error) {
	m, err := r.c.metrics(r.c.nodes[0])
	if err != nil {
		return snapshot{}, err
	}
	cpu, waiting, err := procSched(r.c.pids())
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{closeObs: obs, Metrics: m, CPU: cpu, Waiting: waiting}, nil
}

// load runs warm-up, the measured window and the drain. This goroutine is
// the poller; with the generator that makes the two requests in flight the
// 2-core reference box can afford. The window runs from a close seen after
// the warm-up to the first close seen at least `window` later: whole
// ledgers, so counts per ledger and per second do not depend on where in a
// ledger the edges fall. It opens only on the second of two consecutive
// closes that came on time: a stalled ledger hands the next one a backlog
// of three ledgers' transactions, and a window opening there would count
// work that was offered before it began. Stalls inside the window stay in.
func (r *liveRun) load() error {
	node0 := r.c.nodes[0]
	var full, stop atomic.Bool
	// A bounded backlog cannot carry a first-ledger stall into the window,
	// so such a workload warms up at its full rate and with its full pool.
	full.Store(r.w.Backlog > 0)
	r.limit.Store(int64(r.w.Backlog))
	start := time.Now()
	subsc := make(chan []submission, 1)
	go func() { subsc <- r.submitLoop(start, &full, &stop) }()
	defer func() {
		if r.subs == nil { // an error path: collect the generator
			stop.Store(true)
			r.subs = <-subsc
		}
	}()

	const (
		warming = iota
		measuring
		draining
	)
	phase := warming
	last, err := r.c.ledger(node0, "latest")
	if err != nil {
		return err
	}
	deadline := start.Add(warmup + r.window + (drainLedgers+12)*2*ledgerInterval)
	var drainFrom uint32
	onTime := 0 // consecutive closes seen less than stallGap after the one before
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for range tick.C {
		t0 := time.Now()
		li, err := r.c.ledger(node0, "latest")
		now := time.Now()
		if err != nil {
			return fmt.Errorf("polling node-0: %w", err)
		}
		if now.After(deadline) {
			return fmt.Errorf("load phase of %s overran its deadline", r.w.Name)
		}
		if phase == measuring {
			r.readRTT = append(r.readRTT, ms(now.Sub(t0)))
		}
		if li.Sequence == last.Sequence {
			continue
		}
		obs := closeObs{Seq: li.Sequence, At: now}
		if n := len(r.closes); n > 0 && li.Sequence == last.Sequence+1 && now.Sub(r.closes[n-1].At) < stallGap {
			onTime++
		} else {
			onTime = 0
		}
		last = li
		r.closes = append(r.closes, obs)
		if err := r.refill(); err != nil {
			return err
		}
		switch phase {
		case warming:
			if now.Sub(start) >= warmup && onTime >= 2 {
				if r.a, err = r.take(obs); err != nil {
					return err
				}
				full.Store(true)
				phase = measuring
			}
		case measuring:
			if now.Sub(r.a.At) >= r.window {
				if r.b, err = r.take(obs); err != nil {
					return err
				}
				if r.peakRSS, err = procPeakRSS(r.c.pids()); err != nil {
					return err
				}
				stop.Store(true)
				r.subs = <-subsc
				drainFrom = obs.Seq
				phase = draining
			}
		case draining:
			m, err := r.c.metrics(node0)
			if err != nil {
				return err
			}
			if m.sum("mempool_size") == 0 || obs.Seq >= drainFrom+drainLedgers {
				return nil
			}
		}
	}
	return nil
}

// restartLast is the epilogue: SIGTERM the last node, start it again on the
// same data dir, and time how long it takes to stand at node-0's tip, with
// the same header hash, on a ledger closed after it went down — one it can
// only have by restoring, catching up and following consensus again.
func (r *liveRun) restartLast() error {
	nd := r.c.nodes[len(r.c.nodes)-1]
	down, err := r.c.ledger(r.c.nodes[0], "latest")
	if err != nil {
		return err
	}
	nd.signal(syscall.SIGTERM, 8*time.Second)
	begin := time.Now()
	if err := r.c.start(nd); err != nil {
		return err
	}
	deadline := begin.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		mine, err := r.c.ledger(nd, "latest")
		if err != nil || mine.Sequence <= down.Sequence {
			continue // not listening yet, or still on what it had archived
		}
		tip, err := r.c.ledger(r.c.nodes[0], "latest")
		if err != nil {
			return err
		}
		if mine == tip {
			r.rejoinTime = time.Since(begin)
			return nil
		}
	}
	return fmt.Errorf("%s did not rejoin within 30 s", nd.Label)
}

// run executes the whole workload. A returned error is a run that could
// not be measured; violations are a run whose outputs were wrong.
func (r *liveRun) run(bin, dir string) (err error) {
	boot := time.Now()
	if r.c, err = startCluster(bin, dir, r.w.Nodes); err != nil {
		return err
	}
	defer r.c.Stop()
	defer func() {
		if err != nil || len(r.violations) > 0 {
			r.c.keepLogs(failedLogsDir(r.w.Name))
		}
	}()
	if err = r.c.waitLedger(3, 30*time.Second); err != nil {
		return err
	}
	if err = r.fund(); err != nil {
		return fmt.Errorf("funding: %w", err)
	}
	r.setup = time.Since(boot)

	if err = r.load(); err != nil {
		return err
	}

	// Agreement: every tenth ledger and the last one all nodes have.
	tip := r.closes[len(r.closes)-1].Seq
	if err = r.c.waitLedger(tip, 10*time.Second); err != nil {
		return err
	}
	seqs := []uint32{tip}
	for s := uint32(10); s < tip; s += 10 {
		seqs = append(seqs, s)
	}
	if herr := r.checkHashes(seqs); herr != nil {
		r.violate("%v", herr)
	}
	for _, nd := range r.c.nodes {
		m, merr := r.c.metrics(nd)
		if merr != nil {
			return merr
		}
		if f := m.sum("ledger_txs_applied_total", `result="failed"`); f != 0 {
			r.violate("%s applied %v failed transactions", nd.Label, f)
		}
	}
	if r.rejoin {
		if err = r.restartLast(); err != nil {
			return err
		}
	}
	return nil
}

// appliedIn reads node-0's archived transaction sets for ledgers
// (from, to] and returns hash -> ledger for every transaction in them,
// plus the per-ledger counts. It is called after the nodes have stopped:
// opening an archive sweeps its temp files, which a live node may own.
func appliedIn(dataDir string, from, to uint32) (map[stellarcrypto.Hash][]uint32, map[uint32]int, error) {
	arch, err := history.Open(dataDir)
	if err != nil {
		return nil, nil, err
	}
	where := make(map[stellarcrypto.Hash][]uint32)
	counts := make(map[uint32]int)
	for seq := from + 1; seq <= to; seq++ {
		ts, err := arch.GetTxSet(seq)
		if err != nil {
			return nil, nil, fmt.Errorf("node-0 archive, ledger %d: %w", seq, err)
		}
		counts[seq] = len(ts.Txs)
		for _, tx := range ts.Txs {
			h := tx.Hash(networkID)
			where[h] = append(where[h], seq)
		}
	}
	return where, counts, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func failedLogsDir(workload string) string {
	return "bench/out/failed-" + workload + "-" + strconv.Itoa(os.Getpid())
}
