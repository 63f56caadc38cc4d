// Command stellar-node runs ONE validator as an OS process, speaking the
// authenticated TCP overlay (internal/transport) to its peers — where
// stellar-sim and horizon-demo simulate a whole network in-process, N
// stellar-node processes form a real quorum:
//
//	stellar-node -seed node-0 -listen :11625 -peers localhost:11626,localhost:11627 -horizon :8000
//	stellar-node -seed node-1 -listen :11626 -peers localhost:11625,localhost:11627 -metrics :9001
//	stellar-node -seed node-2 -listen :11627 -peers localhost:11625,localhost:11626 -metrics :9002
//
// Identities are derived from seed labels so every process computes the
// same quorum set and genesis state with no coordination; -quorum lists
// the labels of all validators (majority threshold). The demo master
// account ("demo-master" seed label) exists at genesis for transaction
// submission through horizon, exactly as in horizon-demo.
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

	"stellar/internal/cliutil"
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

func main() {
	listen := flag.String("listen", ":11625", "TCP overlay listen address")
	peersFlag := flag.String("peers", "", "comma-separated peer overlay addresses (host:port) to dial")
	seed := flag.String("seed", "node-0", "identity seed label of this validator (must appear in -quorum)")
	quorumFlag := flag.String("quorum", "node-0,node-1,node-2", "comma-separated identity seed labels of all validators (majority quorum)")
	horizonAddr := flag.String("horizon", "", "HTTP listen address for the full horizon API (empty = disabled)")
	metricsAddr := flag.String("metrics", "", "HTTP listen address for metrics and debug endpoints (empty = disabled)")
	interval := flag.Duration("interval", 5*time.Second, "target ledger interval")
	network := flag.String("network", "stellar-node-network", "network passphrase; nodes on different passphrases reject each other at handshake")
	drift := flag.Duration("max-drift", 0, "close-time clock tolerance (0 = 10s); widen when -interval is sub-second")
	queueSize := flag.Int("queue", 0, "per-peer outbound frame queue, oldest shed when full (0 = 512)")
	verbose := flag.Bool("v", false, "structured node and transport logging to stderr")
	var common cliutil.CommonFlags
	common.Register(flag.CommandLine)
	var ingress cliutil.IngressFlags
	ingress.Register(flag.CommandLine)
	var alerts cliutil.AlertFlags
	alerts.Register(flag.CommandLine)
	var dur cliutil.DurabilityFlags
	dur.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*listen, *peersFlag, *seed, *quorumFlag, *horizonAddr, *metricsAddr,
		*network, *interval, *drift, *queueSize, *verbose, &common, &ingress, &alerts, &dur); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, peersFlag, seed, quorumFlag, horizonAddr, metricsAddr, network string,
	interval, drift time.Duration, queueSize int, verbose bool,
	common *cliutil.CommonFlags, ingress *cliutil.IngressFlags, alerts *cliutil.AlertFlags,
	dur *cliutil.DurabilityFlags) error {

	labels := strings.Split(quorumFlag, ",")
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
		if label == seed {
			self = i
		}
	}
	if self < 0 {
		return fmt.Errorf("-seed %q is not among the -quorum labels %v", seed, labels)
	}
	keys := stellarcrypto.KeyPairFromString(seed)
	qset := fba.Majority(ids...)
	networkID := stellarcrypto.HashBytes([]byte(network))

	ob := &obs.Obs{}
	if verbose {
		ob.Log = obs.NewLogger(os.Stderr, slog.LevelDebug).With(slog.String("node", seed))
	}
	var tracer *obs.Tracer
	if common.Tracing() {
		tracer = obs.NewTracer(nil) // wall clock
		// Namespace span ids by this validator's public key so traces
		// exported from independent processes merge without collisions.
		tracer.SetIDBase(obs.IDBaseFromString(keys.Public.Address()))
		tracer.SetLimit(common.TraceLimit)
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

	arch, err := dur.Open()
	if err != nil {
		return err
	}

	loop := transport.NewLoop()
	node, err := herder.New(loop, herder.Config{
		Keys:                keys,
		QSet:                qset,
		NetworkID:           networkID,
		LedgerInterval:      interval,
		MaxCloseTimeDrift:   drift,
		VerifyWorkers:       common.VerifyWorkers,
		VerifyCacheSize:     common.VerifyCache,
		MempoolMaxTxs:       ingress.MempoolMax,
		MempoolMaxPerSource: ingress.MempoolPerSource,
		Archive:             arch,
		CheckpointInterval:  dur.CheckpointInterval,
		Obs:                 ob,
	})
	if err != nil {
		return err
	}
	obs.RegisterRuntimeMetrics(node.Obs().Reg)
	obs.RegisterTracerMetrics(node.Obs().Reg, tracer)

	var peers []string
	if peersFlag != "" {
		for _, p := range strings.Split(peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	// Boot policy (DESIGN.md §16): a data dir holding a checkpoint restores
	// and replays to its archived tip before the overlay opens; an empty
	// data dir with -catchup fetches a peer's archive over the wire once the
	// first peer is up; otherwise every process derives the shared genesis.
	var startCatchup func()
	switch {
	case arch != nil && hasCheckpoint(arch):
		var replayed int
		var rerr error
		loop.Run(func() {
			if replayed, rerr = node.RestoreFromArchive(arch); rerr == nil {
				node.Start()
			}
		})
		if rerr != nil {
			return fmt.Errorf("restoring from %s: %w", dur.DataDir, rerr)
		}
		fmt.Printf("restored from %s at ledger %d (%d replayed past the checkpoint)\n",
			dur.DataDir, node.LastHeader().LedgerSeq, replayed)
	case dur.Catchup:
		if len(peers) == 0 {
			return errors.New("-catchup needs at least one -peers address")
		}
		// Deferred to the first OnPeerUp loop event: discovery needs a
		// live peer. OnPeerUp events are serialized on the loop, so the
		// one-shot reset below is race-free.
		startCatchup = func() {
			if err := node.StartNetworkCatchup(nil); err != nil {
				fmt.Fprintf(os.Stderr, "catchup: %v\n", err)
			}
		}
		fmt.Printf("empty archive at %s; waiting for a peer to catch up from\n", dur.DataDir)
	default:
		loop.Run(func() {
			node.Bootstrap(genesis, 0)
			node.Start()
		})
	}

	mgr, err := transport.NewManager(loop, transport.Config{
		ListenAddr: listen,
		Peers:      peers,
		Keys:       keys,
		NetworkID:  networkID,
		QueueSize:  queueSize,
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

	// Horizon (full API) and the metrics endpoint serve the same handler:
	// the metrics address is the lightweight alternative when no client
	// API is wanted, exposing /metrics, /debug/quorum, and /ledgers.
	srv := horizon.New(node, loop, networkID)
	srv.Mu = loop.Locker()
	srv.SetIngress(horizon.IngressConfig{
		SourceRate:  ingress.SubmitRate,
		SourceBurst: ingress.SubmitBurst,
		IPRate:      ingress.SubmitIPRate,
		IPBurst:     ingress.SubmitIPBurst,
	})

	// Detection stack: registry sampler → SLO engine → liveness watchdog →
	// flight recorder. The pre-sample hook refreshes the pull-style quorum
	// gauges under the event-loop lock, because ledger close — the usual
	// refresher — is exactly what a stall withholds. peer-loss arms at
	// threshold-1: fewer live peers than that makes quorum unreachable.
	stack := alerts.Build(cliutil.AlertWiring{
		Node:     node,
		NodeName: seed,
		MinPeers: qset.Threshold - 1,
		Pre:      func() { loop.Run(func() { node.RefreshQuorumHealth() }) },
		Log:      ob.Log,
	})
	if stack != nil {
		srv.SetAlerts(stack.Engine, seed, stack.Clock)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if arch != nil {
		fmt.Printf("archiving to %s (checkpoint every %d ledger(s); bucket list below level 0 on disk)\n",
			dur.DataDir, max(dur.CheckpointInterval, 1))
	}

	// SIGQUIT dumps a crash bundle without killing the process — the
	// operator's on-demand post-mortem switch.
	if stack != nil {
		stack.Start()
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		defer signal.Stop(quitc)
		go func() {
			for range quitc {
				if dir, err := stack.Flight.Dump("sigquit"); err != nil {
					fmt.Fprintf(os.Stderr, "crash bundle: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "crash bundle written to %s\n", dir)
				}
			}
		}()
	}

	servers := make([]*http.Server, 0, 2)
	errc := make(chan error, 2)
	for _, addr := range []string{horizonAddr, metricsAddr} {
		if addr == "" {
			continue
		}
		hs := &http.Server{Addr: addr, Handler: srv.Handler()}
		servers = append(servers, hs)
		go func() {
			if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}

	fmt.Printf("validator %s (%s)\n", seed, node.ID())
	fmt.Printf("overlay listening on %s, dialing %d peer(s); quorum %d-of-%d, ledgers every %v\n",
		mgr.Addr(), len(peers), qset.Threshold, len(qset.Validators), interval)
	if horizonAddr != "" {
		fmt.Printf("horizon on %s — try: curl localhost%s/ledgers/latest\n", horizonAddr, horizonAddr)
	}
	if metricsAddr != "" {
		fmt.Printf("metrics on %s — try: curl localhost%s/metrics\n", metricsAddr, metricsAddr)
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
	case err := <-errc:
		return err
	}

	// Graceful shutdown: stop serving HTTP, halt the sampler (its pre-hook
	// takes the event-loop lock, so it must quiesce before the loop dies),
	// tear down the overlay, then flush the trace while the node state is
	// quiescent.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range servers {
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
		}
	}
	stack.Stop()
	mgr.Close()
	loop.Close()
	if tracer != nil {
		if err := common.WriteTrace(tracer); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

// hasCheckpoint reports whether the archive holds a restorable checkpoint.
func hasCheckpoint(a *history.Archive) bool {
	_, err := a.LatestCheckpointSeq()
	return err == nil
}
