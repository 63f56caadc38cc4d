// Command stellar-node runs ONE validator as an OS process, speaking the
// authenticated TCP overlay (internal/transport) to its peers — where
// stellar-sim simulates a whole network in-process, N stellar-node
// processes form a real quorum:
//
//	stellar-node -seed node-0 -listen :11625 -peers localhost:11626,localhost:11627 -horizon :8000
//	stellar-node -seed node-1 -listen :11626 -peers localhost:11625,localhost:11627 -horizon :8001
//	stellar-node -seed node-2 -listen :11627 -peers localhost:11625,localhost:11626 -horizon :8002
//
// Identities are derived from seed labels so every process computes the
// same quorum set and genesis state with no coordination; -quorum lists
// the labels of all validators (majority threshold). The demo master
// account ("demo-master" seed label) exists at genesis for transaction
// submission through horizon. A single validator is a quorum of one:
//
//	stellar-node -seed node-0 -quorum node-0 -horizon :8000 -interval 1s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/history"
	"stellar/internal/horizon"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
)

// config is the command line, parsed.
type config struct {
	listen, peers, seed, quorum, horizon, network string
	interval                                      time.Duration
	verbose, traceLive                            bool

	// Ingress: the pending pool's bounds (0 = package defaults).
	mempool, mempoolPerSource int

	// Durability: the archive directory (empty = in-memory only), the
	// bucket checkpoint cadence in ledgers (0 = herder's default), network
	// catch-up for an empty archive, and where crash bundles go.
	dataDir            string
	checkpointInterval int
	catchup            bool
	bundleDir          string
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.listen, "listen", ":11625", "TCP overlay listen address")
	fs.StringVar(&c.peers, "peers", "", "comma-separated peer overlay addresses (host:port) to dial")
	fs.StringVar(&c.seed, "seed", "node-0", "identity seed label of this validator (must appear in -quorum)")
	fs.StringVar(&c.quorum, "quorum", "node-0,node-1,node-2", "comma-separated identity seed labels of all validators (majority quorum)")
	fs.StringVar(&c.horizon, "horizon", "", "HTTP listen address for the horizon API, metrics and debug endpoints (empty = disabled)")
	fs.DurationVar(&c.interval, "interval", 5*time.Second, "target ledger interval")
	fs.StringVar(&c.network, "network", "stellar-node-network", "network passphrase; nodes on different passphrases reject each other at handshake")
	fs.BoolVar(&c.verbose, "v", false, "structured node and transport logging to stderr")
	fs.BoolVar(&c.traceLive, "trace-live", false, "enable span tracing, served over /debug/trace/export")
	fs.IntVar(&c.mempool, "mempool", 0, "pending transaction pool cap (0 = default 8192)")
	fs.IntVar(&c.mempoolPerSource, "mempool-per-source", 0, "pending transactions one account may hold (0 = default 64)")
	fs.StringVar(&c.dataDir, "data-dir", "", "archive directory for headers, tx sets, buckets, and checkpoints (empty = in-memory only)")
	fs.IntVar(&c.checkpointInterval, "checkpoint-interval", 0, fmt.Sprintf("ledgers between bucket checkpoints (0 = every %d ledgers; needs -data-dir)", herder.DefaultCheckpointInterval))
	fs.BoolVar(&c.catchup, "catchup", false, "on an archive with no checkpoint, fetch a peer's checkpointed state and the ledgers past it over the network instead of bootstrapping at genesis (needs -data-dir and -peers)")
	fs.StringVar(&c.bundleDir, "bundle-dir", "crash-bundles", "directory for crash bundles")
}

// validate rejects values the node would otherwise replace by a default
// or misread, and flag combinations that cannot work.
func (c *config) validate() error {
	if c.interval <= 0 {
		return fmt.Errorf("-interval %v: must be positive", c.interval)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"mempool", c.mempool},
		{"mempool-per-source", c.mempoolPerSource},
		{"checkpoint-interval", c.checkpointInterval},
	} {
		if f.v < 0 {
			return fmt.Errorf("-%s %v: must not be negative", f.name, f.v)
		}
	}
	if c.dataDir == "" {
		if c.catchup {
			return errors.New("-catchup needs -data-dir")
		}
		if c.checkpointInterval != 0 {
			return errors.New("-checkpoint-interval needs -data-dir")
		}
	}
	if c.catchup && len(c.peerList()) == 0 {
		return errors.New("-catchup needs at least one -peers address")
	}
	return nil
}

// peerList splits -peers, dropping empty entries.
func (c *config) peerList() []string {
	var peers []string
	for _, p := range strings.Split(c.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func main() {
	var c config
	c.register(flag.CommandLine)
	flag.Parse()
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(&c); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func run(c *config) error {
	labels := strings.Split(c.quorum, ",")
	ids := make([]fba.NodeID, 0, len(labels))
	self := -1
	for i, label := range labels {
		label = strings.TrimSpace(label)
		if label == "" {
			return errors.New("-quorum has an empty label")
		}
		labels[i] = label
		kp := stellarcrypto.KeyPairFromString(label)
		ids = append(ids, fba.NodeIDFromPublicKey(kp.Public))
		if label == c.seed {
			self = i
		}
	}
	if self < 0 {
		return fmt.Errorf("-seed %q is not among the -quorum labels %v", c.seed, labels)
	}
	keys := stellarcrypto.KeyPairFromString(c.seed)
	qset := fba.Majority(ids...)
	networkID := stellarcrypto.HashBytes([]byte(c.network))

	ob := &obs.Obs{}
	if c.verbose {
		ob.Log = obs.NewLogger(os.Stderr, slog.LevelDebug).With(slog.String("node", c.seed))
	}
	var tracer *obs.Tracer
	if c.traceLive {
		tracer = obs.NewTracer(nil) // wall clock
		// Namespace span ids by this validator's public key so traces
		// exported from independent processes merge without collisions.
		tracer.SetIDBase(obs.IDBaseFromString(keys.Public.Address()))
		ob.Tracer = tracer
	}

	// Every process derives the identical genesis ledger (plus the
	// demo-master account for horizon transaction submission), so the
	// chain of header hashes matches across the quorum from seq 1.
	genesis, masterKP := herder.GenesisState(networkID)
	demoKP := stellarcrypto.KeyPairFromString("demo-master")
	demo := ledger.AccountIDFromPublicKey(demoKP.Public)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	op := &ledger.CreateAccount{Destination: demo, StartingBalance: 1_000_000 * ledger.One}
	if err := op.Apply(genesis, &ledger.ApplyEnv{LedgerSeq: 1}, master); err != nil {
		return err
	}

	var arch *history.Archive
	if c.dataDir != "" {
		var err error
		if arch, err = history.Open(c.dataDir); err != nil {
			return err
		}
	}

	loop := transport.NewLoop()
	node, err := herder.New(loop, herder.Config{
		Keys:                keys,
		QSet:                qset,
		NetworkID:           networkID,
		LedgerInterval:      c.interval,
		MempoolMaxTxs:       c.mempool,
		MempoolMaxPerSource: c.mempoolPerSource,
		Archive:             arch,
		CheckpointInterval:  c.checkpointInterval,
		Obs:                 ob,
	})
	if err != nil {
		return err
	}
	obs.RegisterRuntimeMetrics(node.Obs().Reg)
	obs.RegisterTracerMetrics(node.Obs().Reg, tracer)

	peers := c.peerList()
	// Boot policy (DESIGN.md §7): a data dir restores its latest checkpoint,
	// or genesis while it holds none, and replays to its archived tip before
	// the overlay opens; an empty data dir with -catchup fetches a peer's
	// checkpointed state over the wire once the first peer is up, then
	// catches up the ledgers past it; without a data dir every process
	// derives the shared genesis. Each path then starts the ledger cadence,
	// which nominates at once on a tip this node did not ballot on.
	var startCatchup func()
	switch {
	case c.catchup && !herder.ArchiveHoldsLedgers(arch):
		// Deferred to the first OnPeerUp loop event: discovery needs a
		// live peer. OnPeerUp events are serialized on the loop, so the
		// one-shot reset below is race-free.
		startCatchup = func() {
			if err := node.StartNetworkCatchup(nil); err != nil {
				fmt.Fprintf(os.Stderr, "catchup: %v\n", err)
			}
		}
		fmt.Printf("empty archive at %s; waiting for a peer to catch up from\n", c.dataDir)
	case arch != nil:
		var replayed int
		var rerr error
		loop.Run(func() {
			if replayed, rerr = node.RestoreFromArchive(arch, genesis); rerr == nil {
				node.Start()
			}
		})
		if rerr != nil {
			return fmt.Errorf("restoring from %s: %w", c.dataDir, rerr)
		}
		if seq := node.LastHeader().LedgerSeq; seq > 1 {
			fmt.Printf("restored from %s at ledger %d (%d archived ledgers replayed)\n", c.dataDir, seq, replayed)
		} else {
			fmt.Printf("empty archive at %s; booting at genesis\n", c.dataDir)
		}
	default:
		loop.Run(func() {
			node.Bootstrap(genesis, 0)
			node.Start()
		})
	}

	mgr, err := transport.NewManager(loop, transport.Config{
		ListenAddr: c.listen,
		Peers:      peers,
		Keys:       keys,
		NetworkID:  networkID,
		Obs:        node.Obs(),
		OnPeerUp: func(p simnet.Addr) {
			node.Overlay().AddPeer(p)
			node.RebroadcastLatest()
			if startCatchup != nil {
				startCatchup()
				startCatchup = nil
			}
		},
		OnPeerDown: func(p simnet.Addr) {
			node.Overlay().RemovePeer(p)
		},
	})
	if err != nil {
		return err
	}

	srv := horizon.New(node, networkID)
	srv.Mu = loop.Locker()

	// Detection stack. The pre-sample hook refreshes the quorum_available
	// gauge under the event-loop lock, because ledger close — the usual
	// refresher — is exactly what a stall withholds. peer-loss arms at
	// threshold-1: fewer live peers than that makes quorum unreachable.
	det := newDetection(node, c.seed, c.bundleDir, qset.Threshold-1,
		func() { loop.Run(func() { node.RefreshQuorumHealth() }) }, ob.Log)
	srv.SetAlerts(det.engine, c.seed, det.clock)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if arch != nil {
		fmt.Printf("archiving to %s (checkpoint every %d ledger(s); bucket list below level 0 on disk)\n",
			c.dataDir, node.CheckpointInterval())
	}

	// SIGQUIT dumps a crash bundle without killing the process — the
	// operator's on-demand post-mortem switch.
	det.sampler.Start()
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			if dir, err := det.flight.Dump("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "crash bundle: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "crash bundle written to %s\n", dir)
			}
		}
	}()

	var hs *http.Server
	errc := make(chan error, 1)
	if c.horizon != "" {
		hs = &http.Server{Addr: c.horizon, Handler: srv.Handler()}
		go func() {
			if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}

	fmt.Printf("validator %s (%s)\n", c.seed, node.ID())
	fmt.Printf("overlay listening on %s, dialing %d peer(s); quorum %d-of-%d, ledgers every %v\n",
		mgr.Addr(), len(peers), qset.Threshold, len(qset.Validators), c.interval)
	if hs != nil {
		fmt.Printf("horizon on %s — try: curl localhost%s/ledgers/latest\n", c.horizon, c.horizon)
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
	case err := <-errc:
		return err
	}

	// Graceful shutdown: stop serving HTTP, halt the sampler (its pre-hook
	// takes the event-loop lock, so it must quiesce before the loop dies),
	// then tear down the overlay and the loop.
	if hs != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
		}
	}
	det.sampler.Stop()
	mgr.Close()
	loop.Close()
	return nil
}
