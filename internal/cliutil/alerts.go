package cliutil

import (
	"flag"
	"log/slog"
	"time"

	"stellar/internal/herder"
	"stellar/internal/obs/flight"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

// AlertFlags is stellar-node's detection-layer tuning: sampling cadence,
// stall sensitivity, and the crash-bundle destination. Detection is on by default — a node that cannot notice its
// own stall defeats the point — and -no-alerts turns the whole stack off.
type AlertFlags struct {
	// Disable turns the sampler, SLO engine, watchdog, and flight
	// recorder off.
	Disable bool
	// SampleInterval is the registry sampling cadence (0 = 1 s).
	SampleInterval time.Duration
	// StallIntervals is how many expected ledger intervals may pass with
	// no close before the close-stall alert fires and the watchdog dumps a
	// crash bundle (0 = 8 — wall-clock nodes see real scheduling jitter,
	// so the bar sits higher than the simulator's default 4).
	StallIntervals int
	// MinPeers arms the peer-loss alert (0 = off).
	MinPeers int
	// BundleDir receives crash bundles ("" = crash-bundles).
	BundleDir string
}

// Register attaches the alert flags to fs.
func (f *AlertFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Disable, "no-alerts", false, "disable SLO alerting, the liveness watchdog, and the flight recorder")
	fs.DurationVar(&f.SampleInterval, "sample-interval", 0, "metric sampling cadence for SLO evaluation (0 = 1s)")
	fs.IntVar(&f.StallIntervals, "stall-intervals", 0, "ledger intervals without a close before the stall alert fires (0 = 8)")
	fs.StringVar(&f.BundleDir, "bundle-dir", "", "directory for crash bundles (default crash-bundles)")
}

// AlertStack is one process's wired detection layer.
type AlertStack struct {
	Ring    *timeseries.Ring
	Engine  *slo.Engine
	Flight  *flight.Recorder
	Sampler *timeseries.Sampler
	Clock   func() time.Duration
}

// AlertWiring is what Build needs from the hosting binary.
type AlertWiring struct {
	// Node supplies the ledger interval and the registry.
	Node *herder.Node
	// NodeName labels reports and bundles.
	NodeName string
	// Pre runs before each sample under whatever lock the node's event
	// loop requires — it must refresh the pull-style quorum gauges
	// (Node.RefreshQuorumHealth), which otherwise update only at ledger
	// close: exactly the event a stall withholds.
	Pre func()
	// MinPeers arms the peer-loss rule (0 = off; single-process demos
	// have no transport).
	MinPeers int
	// Log receives alert transitions and dump events.
	Log *slog.Logger
}

// Build wires the detection stack for a live binary: time-series ring,
// SLO engine over DefaultRules, flight recorder, a watchdog transition
// hook (close stall firing dumps a crash bundle), and the wall-clock
// sampler driving it all. Returns nil when flags disable alerting.
// Callers then SetAlerts on their horizon server and Start the stack.
func (f *AlertFlags) Build(w AlertWiring) *AlertStack {
	if f.Disable {
		return nil
	}
	interval := f.SampleInterval
	if interval <= 0 {
		interval = time.Second
	}
	stallIntervals := f.StallIntervals
	if stallIntervals <= 0 {
		stallIntervals = 8
	}
	bundleDir := f.BundleDir
	if bundleDir == "" {
		bundleDir = "crash-bundles"
	}
	minPeers := f.MinPeers
	if minPeers <= 0 {
		minPeers = w.MinPeers
	}

	clock := timeseries.WallClock()
	ring := timeseries.New(0)
	ob := w.Node.Obs()
	engine := slo.NewEngine(ring, slo.DefaultRules(slo.Config{
		LedgerInterval: w.Node.LedgerInterval(),
		StallIntervals: stallIntervals,
		MinPeers:       minPeers,
	}), ob.Reg, w.Log)
	fl := flight.New(flight.Config{
		Dir:    bundleDir,
		Node:   w.NodeName,
		Ring:   ring,
		Tracer: ob.Tracer,
		Slots:  func() any { return w.Node.SlotRecords() },
		Alerts: engine,
		Clock:  clock,
		Log:    w.Log,
	})
	// The liveness watchdog: a firing close-stall alert is the signal the
	// node is wedged, so capture the post-mortem while the evidence is
	// still in memory.
	engine.OnTransition(func(rule slo.Rule, from, to slo.State, now time.Duration) {
		if rule.Name == slo.RuleCloseStall && to == slo.StateFiring {
			fl.AutoDump("close-stall", now)
		}
	})
	stack := &AlertStack{
		Ring:   ring,
		Engine: engine,
		Flight: fl,
		Clock:  clock,
		Sampler: &timeseries.Sampler{
			Reg:      ob.Reg,
			Ring:     ring,
			Interval: interval,
			Clock:    clock,
			Pre:      w.Pre,
			OnSample: engine.Evaluate,
		},
	}
	return stack
}

// Start launches the sampling goroutine. Nil-safe.
func (s *AlertStack) Start() {
	if s != nil {
		s.Sampler.Start()
	}
}

// Stop halts sampling. Nil-safe; call before tearing down the event loop
// the Pre hook locks.
func (s *AlertStack) Stop() {
	if s != nil {
		s.Sampler.Stop()
	}
}
