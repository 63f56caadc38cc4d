package timeseries

import (
	"time"

	"stellar/internal/obs"
)

// WallClock returns a time source anchored at the moment of the call —
// the shared time axis for a wall-clock process's sampler, SLO engine,
// and flight recorder. Deterministic simulations pass their virtual clock
// instead and never construct one of these.
func WallClock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Sampler drives a Ring from a registry on a wall-clock cadence. The
// chaos harness does not use it — simulations call Ring.Observe directly
// at each deterministic tick — but a live stellar-node needs a goroutine
// that samples and evaluates on its own.
type Sampler struct {
	// Reg is the registry to snapshot; Ring receives the samples.
	Reg  *obs.Registry
	Ring *Ring
	// Interval is the sample cadence (0 = 1 s).
	Interval time.Duration
	// Clock is the shared time axis (nil = WallClock anchored at Start).
	Clock func() time.Duration
	// Pre runs before each snapshot, outside any sampler lock — the hook
	// where the node refreshes pull-style gauges that need its event-loop
	// lock (quorum health must be current even when no ledger closes,
	// which is exactly when the stall rules read it).
	Pre func()
	// OnSample runs after each snapshot with the sample time — the SLO
	// engine's evaluation hook.
	OnSample func(now time.Duration)

	stop chan struct{}
	done chan struct{}
}

// Start launches the sampling goroutine. It takes one sample immediately
// so queries have a starting point before the first tick.
func (s *Sampler) Start() {
	if s.Interval <= 0 {
		s.Interval = time.Second
	}
	if s.Clock == nil {
		s.Clock = WallClock()
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.Sample()
	go s.run()
}

func (s *Sampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Sample takes one sample now: Pre, snapshot, Observe, OnSample.
func (s *Sampler) Sample() {
	if s.Pre != nil {
		s.Pre()
	}
	now := s.Clock()
	s.Ring.Observe(now, s.Reg.Snapshot())
	if s.OnSample != nil {
		s.OnSample(now)
	}
}

// Stop halts the goroutine and waits for it to exit. Safe to call more
// than once; a never-started sampler is a no-op.
func (s *Sampler) Stop() {
	if s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}
