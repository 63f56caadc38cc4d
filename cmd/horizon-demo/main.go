// Command horizon-demo runs a small Stellar network with a horizon HTTP
// API in front of it (the Figure 5 architecture): the validators close
// ledgers on a real-time cadence while horizon serves clients from the
// first validator's view.
//
//	horizon-demo -listen :8000 -validators 3
//
// Then, for example:
//
//	curl localhost:8000/ledgers/latest
//	curl localhost:8000/accounts/<G...>
//	curl localhost:8000/debug/quorum
//	curl -X POST localhost:8000/transactions -d '{
//	    "source_seed": "demo-master",
//	    "operations": [{"type":"create_account","destination":"G...","amount":"100"}]}'
//
// The demo master account's seed label is printed at startup; any account
// created from a seed label can sign via the same label.
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
	"syscall"
	"time"

	"stellar/internal/cliutil"
	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/horizon"
	"stellar/internal/ledger"
	"stellar/internal/obs"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

func main() {
	listen := flag.String("listen", ":8000", "HTTP listen address")
	validators := flag.Int("validators", 1, "number of validator nodes (majority quorum)")
	interval := flag.Duration("interval", 5*time.Second, "ledger interval")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	verbose := flag.Bool("v", false, "structured node logging to stderr")
	var common cliutil.CommonFlags
	common.Register(flag.CommandLine)
	var ingress cliutil.IngressFlags
	ingress.Register(flag.CommandLine)
	var alerts cliutil.AlertFlags
	alerts.Register(flag.CommandLine)
	flag.Parse()
	if *validators < 1 {
		fmt.Fprintln(os.Stderr, "error: -validators must be at least 1")
		os.Exit(2)
	}

	var rootLog *slog.Logger
	if *verbose {
		rootLog = obs.NewLogger(os.Stderr, slog.LevelDebug)
	}
	// Demo processes serve real traffic, so spans run on the wall clock
	// (the simulation below is driven in near-real-time anyway).
	var tracer *obs.Tracer
	if common.Tracing() {
		tracer = obs.NewTracer(nil)
		tracer.SetLimit(common.TraceLimit)
	}

	net := simnet.New(time.Now().UnixNano())
	networkID := stellarcrypto.HashBytes([]byte("horizon-demo-network"))
	kps := stellarcrypto.DeterministicKeyPairs("demo-validator", *validators)
	ids := make([]fba.NodeID, *validators)
	for i, kp := range kps {
		ids[i] = fba.NodeIDFromPublicKey(kp.Public)
	}
	qset := fba.Majority(ids...)

	// Genesis, plus a human-friendly master account controlled by the
	// seed label "demo-master" so curl users can sign transactions.
	genesis, masterKP := herder.GenesisState(networkID)
	demoKP := stellarcrypto.KeyPairFromString("demo-master")
	demo := ledger.AccountIDFromPublicKey(demoKP.Public)
	master := ledger.AccountIDFromPublicKey(masterKP.Public)
	op := &ledger.CreateAccount{Destination: demo, StartingBalance: 1_000_000 * ledger.One}
	if err := op.Apply(genesis, &ledger.ApplyEnv{LedgerSeq: 1}, master); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	genesisSnapshot := genesis.SnapshotAll()
	genesisHeader := ledger.GenesisHeader(genesis, 0)

	nodes := make([]*herder.Node, *validators)
	for i, kp := range kps {
		ob := &obs.Obs{Tracer: tracer}
		if rootLog != nil {
			ob.Log = rootLog.With(slog.Int("node", i))
		}
		node, err := herder.New(net, herder.Config{
			Keys:                kp,
			QSet:                qset,
			NetworkID:           networkID,
			LedgerInterval:      *interval,
			VerifyWorkers:       common.VerifyWorkers,
			VerifyCacheSize:     common.VerifyCache,
			MempoolMaxTxs:       ingress.MempoolMax,
			MempoolMaxPerSource: ingress.MempoolPerSource,
			Obs:                 ob,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		// Bootstrap on the simulation's timebase: close-time validation
		// compares against the virtual clock, so seeding with wall-clock
		// unix time would leave every nominated value merely maybe-valid
		// and the validators could never confirm a candidate.
		state, err := ledger.RestoreState(genesisSnapshot, genesisHeader)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		node.Bootstrap(state, 0)
		nodes[i] = node
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				a.Overlay().Connect(b.Addr())
			}
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	node := nodes[0]

	// Go runtime self-metrics (heap, GC pauses, goroutines) on the serving
	// node's registry, refreshed at every /metrics scrape.
	obs.RegisterRuntimeMetrics(node.Obs().Reg)
	obs.RegisterTracerMetrics(node.Obs().Reg, tracer)

	srv := horizon.New(node, net, networkID)
	srv.EnablePprof = *pprofFlag
	srv.SetIngress(horizon.IngressConfig{
		SourceRate:  ingress.SubmitRate,
		SourceBurst: ingress.SubmitBurst,
		IPRate:      ingress.SubmitIPRate,
		IPBurst:     ingress.SubmitIPBurst,
	})

	// Detection stack over the serving validator: sampler → SLO engine →
	// watchdog → flight recorder. The pre-sample hook refreshes the quorum
	// gauges under the server lock (ledger close normally refreshes them —
	// exactly the event a stall withholds). MinPeers stays 0: the demo's
	// validators share one process, so there is no transport to lose.
	const nodeName = "demo-validator-0"
	stack := alerts.Build(cliutil.AlertWiring{
		Node:     node,
		NodeName: nodeName,
		Pre: func() {
			srv.Mu.Lock()
			node.RefreshQuorumHealth()
			srv.Mu.Unlock()
		},
		Log: node.Obs().Log,
	})
	if stack != nil {
		srv.SetAlerts(stack.Engine, nodeName, stack.Clock)
		stack.Start()
		defer stack.Stop()
	}

	// Drive virtual time in near-real-time under the server lock until
	// shutdown is requested.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		const step = 50 * time.Millisecond
		for ctx.Err() == nil {
			time.Sleep(step)
			srv.Mu.Lock()
			net.RunFor(step)
			srv.Mu.Unlock()
		}
	}()

	fmt.Printf("%d validator(s) closing ledgers every %v (quorum: %d-of-%d)\n",
		*validators, *interval, qset.Threshold, len(qset.Validators))
	fmt.Printf("demo master account: %s (source_seed \"demo-master\", balance 1,000,000 XLM)\n", demo)
	fmt.Printf("horizon listening on %s (serving validator %s)\n", *listen, node.ID())
	fmt.Printf("try: curl localhost%s/ledgers/latest\n", *listen)
	fmt.Printf("     curl localhost%s/metrics           (Prometheus text)\n", *listen)
	fmt.Printf("     curl localhost%s/debug/slots/3/trace  (SCP slot timeline)\n", *listen)
	fmt.Printf("     curl localhost%s/debug/quorum      (live quorum health)\n", *listen)
	if *pprofFlag {
		fmt.Printf("     go tool pprof localhost%s/debug/pprof/profile\n", *listen)
	}
	if tracer != nil {
		fmt.Printf("tracing to %s (flushed on Ctrl-C)\n", common.TracePath)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and flush
	// the trace while the simulation driver is parked.
	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
		}
	}()
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	<-ctx.Done()
	if tracer != nil {
		srv.Mu.Lock()
		err := common.WriteTrace(tracer)
		srv.Mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error writing trace: %v\n", err)
			os.Exit(1)
		}
	}
}
