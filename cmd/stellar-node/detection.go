package main

import (
	"log/slog"
	"time"

	"stellar/internal/herder"
	"stellar/internal/obs/flight"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

// stallIntervals is how many ledger intervals may pass with no close
// before the close-stall alert fires and the watchdog dumps a crash
// bundle. A wall-clock node sees real scheduling jitter, so the bar sits
// higher than the simulator's default 4.
const stallIntervals = 8

// detection is the node's detection stack: a registry sampler feeding a
// time-series ring, the SLO engine over slo.DefaultRules, and the flight
// recorder that writes crash bundles.
type detection struct {
	engine  *slo.Engine
	flight  *flight.Recorder
	sampler *timeseries.Sampler
	clock   func() time.Duration
}

// newDetection wires the stack for node. It samples once per ledger
// interval, and at least once a second. pre runs before each sample under
// whatever lock the node's event loop requires: it must refresh the
// quorum_available gauge, which otherwise updates only at ledger close.
// minPeers arms the peer-loss rule. A firing close stall dumps a crash
// bundle into bundleDir: the liveness watchdog.
func newDetection(node *herder.Node, name, bundleDir string, minPeers int, pre func(), log *slog.Logger) *detection {
	clock := timeseries.WallClock()
	ring := timeseries.New(0)
	ob := node.Obs()
	engine := slo.NewEngine(ring, slo.DefaultRules(slo.Config{
		LedgerInterval: node.LedgerInterval(),
		StallIntervals: stallIntervals,
		MinPeers:       minPeers,
	}), log)
	fl := flight.New(flight.Config{
		Dir:    bundleDir,
		Node:   name,
		Ring:   ring,
		Tracer: ob.Tracer,
		Slots:  func() any { return node.SlotRecords() },
		Alerts: engine,
		Clock:  clock,
		Log:    log,
	})
	engine.OnTransition(func(rule slo.Rule, from, to slo.State, now time.Duration) {
		if rule.Name == slo.RuleCloseStall && to == slo.StateFiring {
			fl.AutoDump("close-stall", now)
		}
	})
	return &detection{
		engine: engine,
		flight: fl,
		clock:  clock,
		sampler: &timeseries.Sampler{
			Reg:      ob.Reg,
			Ring:     ring,
			Interval: min(node.LedgerInterval(), time.Second),
			Clock:    clock,
			Pre:      pre,
			OnSample: engine.Evaluate,
		},
	}
}
