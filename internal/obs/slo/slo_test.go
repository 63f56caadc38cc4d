package slo

import (
	"fmt"
	"testing"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/timeseries"
)

// stubRule builds a rule whose verdict is driven by the test.
func stubRule(name string, forDur time.Duration, verdict *Check) Rule {
	return Rule{
		Name: name, Severity: SeverityWarning, For: forDur,
		Eval: func(r *timeseries.Ring, now time.Duration) Check { return *verdict },
	}
}

func TestStateMachineForDamping(t *testing.T) {
	verdict := Check{}
	e := NewEngine(nil, []Rule{stubRule("r", 10*time.Second, &verdict)}, nil)

	e.Evaluate(1 * time.Second)
	if got := e.State("r"); got != StateInactive {
		t.Fatalf("state = %v, want inactive", got)
	}

	verdict = Check{Breached: true}
	e.Evaluate(2 * time.Second)
	if got := e.State("r"); got != StatePending {
		t.Fatalf("state = %v, want pending (inside for-duration)", got)
	}
	e.Evaluate(11 * time.Second)
	if got := e.State("r"); got != StatePending {
		t.Fatalf("state = %v, want pending at 9s of 10s", got)
	}
	e.Evaluate(12 * time.Second)
	if got := e.State("r"); got != StateFiring {
		t.Fatalf("state = %v, want firing after for-duration", got)
	}
	if e.Firing() != 1 || e.FiredCount("r") != 1 {
		t.Fatalf("Firing=%d FiredCount=%d", e.Firing(), e.FiredCount("r"))
	}

	verdict = Check{}
	e.Evaluate(13 * time.Second)
	if got := e.State("r"); got != StateResolved {
		t.Fatalf("state = %v, want resolved", got)
	}
	if e.Firing() != 0 {
		t.Fatalf("Firing = %d after resolve", e.Firing())
	}

	// A new breach restarts from pending, and the for-clock restarts too.
	verdict = Check{Breached: true}
	e.Evaluate(14 * time.Second)
	if got := e.State("r"); got != StatePending {
		t.Fatalf("state = %v, want pending on re-breach", got)
	}
	e.Evaluate(24 * time.Second)
	if got := e.State("r"); got != StateFiring {
		t.Fatalf("state = %v, want firing again", got)
	}
	if e.FiredCount("r") != 2 {
		t.Fatalf("FiredCount = %d, want 2", e.FiredCount("r"))
	}
}

func TestBlipShorterThanForNeverFires(t *testing.T) {
	verdict := Check{Breached: true}
	e := NewEngine(nil, []Rule{stubRule("r", 10*time.Second, &verdict)}, nil)
	e.Evaluate(0)
	verdict = Check{}
	e.Evaluate(5 * time.Second) // breach cleared inside the for-duration
	if got := e.State("r"); got != StateInactive {
		t.Fatalf("state = %v, want inactive after blip", got)
	}
	if e.FiredCount("r") != 0 {
		t.Fatal("blip must not count as fired")
	}
}

func TestUnknownHoldsState(t *testing.T) {
	verdict := Check{Breached: true}
	e := NewEngine(nil, []Rule{stubRule("r", 0, &verdict)}, nil)
	e.Evaluate(0)
	if got := e.State("r"); got != StateFiring {
		t.Fatalf("state = %v, want firing (for=0)", got)
	}
	verdict = Check{Unknown: true}
	e.Evaluate(time.Second)
	if got := e.State("r"); got != StateFiring {
		t.Fatalf("state = %v, unknown verdict must hold firing", got)
	}
}

func TestTransitionCallback(t *testing.T) {
	verdict := Check{Breached: true}
	e := NewEngine(nil, []Rule{stubRule("r", 0, &verdict)}, nil)
	var gotFrom, gotTo State
	calls := 0
	e.OnTransition(func(rule Rule, from, to State, now time.Duration) {
		calls++
		gotFrom, gotTo = from, to
	})
	e.Evaluate(0)
	if calls != 1 || gotFrom != StateInactive || gotTo != StateFiring {
		t.Fatalf("callback calls=%d from=%v to=%v", calls, gotFrom, gotTo)
	}
	verdict = Check{}
	e.Evaluate(time.Second)
	if calls != 2 || gotFrom != StateFiring || gotTo != StateResolved {
		t.Fatalf("callback calls=%d from=%v to=%v, want firing to resolved", calls, gotFrom, gotTo)
	}
}

func TestReportShape(t *testing.T) {
	verdict := Check{Breached: true, Value: 3, Threshold: 1, Detail: "x"}
	e := NewEngine(nil, []Rule{
		stubRule("a", 0, &verdict),
		stubRule("b", time.Hour, &verdict),
	}, nil)
	e.Evaluate(time.Second)
	rep := e.Report("node-0", 2*time.Second)
	if rep.Schema != ReportSchema || !rep.Enabled || rep.Node != "node-0" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Firing != 1 || rep.Pending != 1 || len(rep.Alerts) != 2 {
		t.Fatalf("firing=%d pending=%d alerts=%d", rep.Firing, rep.Pending, len(rep.Alerts))
	}
	if rep.Alerts[0].State != "firing" || rep.Alerts[0].Value != 3 {
		t.Fatalf("alert row: %+v", rep.Alerts[0])
	}
	dis := DisabledReport("n")
	if dis.Enabled || dis.Alerts == nil {
		t.Fatalf("disabled report: %+v", dis)
	}
}

// synthRing drives the real close_stall rule end to end: counters advance,
// stall, then advance again.
func TestDefaultRulesCloseStallFireResolve(t *testing.T) {
	reg := obs.NewRegistry()
	closed := reg.Counter("herder_ledgers_closed_total", "ledgers closed")
	ring := timeseries.New(256)
	rules := DefaultRules(Config{LedgerInterval: time.Second, StallIntervals: 4})
	e := NewEngine(ring, rules, nil)

	tick := func(at time.Duration) {
		ring.Observe(at, reg.Snapshot())
		e.Evaluate(at)
	}

	// Healthy phase: one close per second for 10s.
	for i := 1; i <= 10; i++ {
		closed.Inc()
		tick(time.Duration(i) * time.Second)
	}
	if got := e.State(RuleCloseStall); got != StateInactive {
		t.Fatalf("healthy close_stall state = %v", got)
	}

	// Stall: clock advances, no closes. Fires once the 4s window is dry.
	for i := 11; i <= 16; i++ {
		tick(time.Duration(i) * time.Second)
	}
	if got := e.State(RuleCloseStall); got != StateFiring {
		t.Fatalf("stalled close_stall state = %v, want firing", got)
	}

	// Heal: closes resume; the alert resolves once the window sees one.
	closed.Inc()
	tick(17 * time.Second)
	if got := e.State(RuleCloseStall); got != StateResolved {
		t.Fatalf("healed close_stall state = %v, want resolved", got)
	}
	if e.FiredCount(RuleCloseStall) != 1 {
		t.Fatalf("FiredCount = %d", e.FiredCount(RuleCloseStall))
	}
}

// Boot-time gauges at zero must not fire the armed rules before the node
// has closed a ledger.
func TestDefaultRulesArming(t *testing.T) {
	reg := obs.NewRegistry()
	closed := reg.Counter("herder_ledgers_closed_total", "ledgers closed")
	avail := reg.Gauge("quorum_available", "quorum available")
	avail.Set(0) // boot: nothing heard yet
	ring := timeseries.New(64)
	rules := DefaultRules(Config{LedgerInterval: time.Second})
	e := NewEngine(ring, rules, nil)

	for i := 1; i <= 10; i++ {
		ring.Observe(time.Duration(i)*time.Second, reg.Snapshot())
		e.Evaluate(time.Duration(i) * time.Second)
	}
	if got := e.State(RuleQuorumUnavailable); got != StateInactive {
		t.Fatalf("unarmed quorum_unavailable = %v, want inactive", got)
	}

	// Armed and healthy: still quiet.
	closed.Inc()
	avail.Set(1)
	ring.Observe(11*time.Second, reg.Snapshot())
	e.Evaluate(11 * time.Second)
	if e.Firing() != 0 {
		t.Fatalf("healthy armed node firing %d alerts", e.Firing())
	}

	// Armed and degraded: fires after the for-duration (2×interval).
	avail.Set(0)
	for i := 12; i <= 16; i++ {
		ring.Observe(time.Duration(i)*time.Second, reg.Snapshot())
		e.Evaluate(time.Duration(i) * time.Second)
	}
	if got := e.State(RuleQuorumUnavailable); got != StateFiring {
		t.Fatalf("armed degraded quorum_unavailable = %v, want firing", got)
	}
}

func TestDefaultRulesMempoolSaturated(t *testing.T) {
	reg := obs.NewRegistry()
	size := reg.Gauge("mempool_size", "pool size")
	capacity := reg.Gauge("mempool_capacity", "pool cap")
	ring := timeseries.New(64)
	rules := DefaultRules(Config{LedgerInterval: time.Second})
	e := NewEngine(ring, rules, nil)

	capacity.Set(100)
	size.Set(50)
	ring.Observe(time.Second, reg.Snapshot())
	e.Evaluate(time.Second)
	if got := e.State(RuleMempoolSaturated); got != StateInactive {
		t.Fatalf("half-full pool state = %v", got)
	}
	size.Set(95)
	for i := 2; i <= 5; i++ {
		ring.Observe(time.Duration(i)*time.Second, reg.Snapshot())
		e.Evaluate(time.Duration(i) * time.Second)
	}
	if got := e.State(RuleMempoolSaturated); got != StateFiring {
		t.Fatalf("saturated pool state = %v, want firing", got)
	}
}

func TestDefaultRulesPeerLoss(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("herder_ledgers_closed_total", "ledgers closed").Inc()
	peers := reg.Gauge("transport_peers", "peers")
	ring := timeseries.New(64)

	// MinPeers=0 disables the rule entirely.
	off := NewEngine(ring, DefaultRules(Config{LedgerInterval: time.Second}), nil)
	peers.Set(0)
	ring.Observe(time.Second, reg.Snapshot())
	off.Evaluate(time.Second)
	if got := off.State(RulePeerLoss); got != StateInactive {
		t.Fatalf("disabled peer_loss = %v", got)
	}

	on := NewEngine(ring, DefaultRules(Config{LedgerInterval: time.Second, MinPeers: 2}), nil)
	for i := 2; i <= 6; i++ {
		ring.Observe(time.Duration(i)*time.Second, reg.Snapshot())
		on.Evaluate(time.Duration(i) * time.Second)
	}
	if got := on.State(RulePeerLoss); got != StateFiring {
		t.Fatalf("peer_loss = %v, want firing at 0 < 2 peers", got)
	}
}

// TestDefaultRulesQuantileCeilings drives close_interval_p99 and
// submit_applied_p99 at three cadences. Their ceilings are derived from the
// ledger interval alone: 1.5× and 3× max(interval, 2 s), over a
// max(30 s, 6 × interval) window. Each rule stays quiet just below its
// ceiling, fires just above it, and resolves once the window has slid past
// the last slow observation.
func TestDefaultRulesQuantileCeilings(t *testing.T) {
	for _, interval := range []time.Duration{250 * time.Millisecond, time.Second, 5 * time.Second} {
		floor := max(interval, 2*time.Second)
		window := max(30*time.Second, 6*interval)
		for _, tc := range []struct {
			rule, family string
			ceiling      time.Duration
		}{
			{RuleCloseIntervalP99, "herder_close_interval_seconds", floor + floor/2},
			{RuleSubmitAppliedP99, "herder_submit_applied_seconds", 3 * floor},
		} {
			t.Run(fmt.Sprintf("%s/%v", tc.rule, interval), func(t *testing.T) {
				ceiling := tc.ceiling.Seconds()
				reg := obs.NewRegistry()
				// Bucket edges a hair either side of the ceiling, so the
				// interpolated p99 lands just below or just above it.
				h := reg.Histogram(tc.family, "", []float64{0.99 * ceiling, ceiling, 1.01 * ceiling})
				ring := timeseries.New(1024)
				e := NewEngine(ring, DefaultRules(Config{LedgerInterval: interval}), nil)
				var now time.Duration
				// run observes v once per interval for d.
				run := func(v float64, d time.Duration) {
					for end := now + d; now < end; {
						h.Observe(v)
						now += interval
						ring.Observe(now, reg.Snapshot())
						e.Evaluate(now)
					}
				}
				alert := func() Alert {
					for _, a := range e.Report("n", now).Alerts {
						if a.Name == tc.rule {
							return a
						}
					}
					t.Fatalf("no %s in the report", tc.rule)
					return Alert{}
				}
				below, above := 0.995*ceiling, 1.005*ceiling

				run(below, 2*window)
				if a := alert(); a.State != "inactive" || a.Threshold != ceiling || a.Value >= ceiling {
					t.Fatalf("just below the ceiling: %+v, want inactive at threshold %.3f", a, ceiling)
				}
				run(above, interval)
				if got := e.State(tc.rule); got == StateFiring {
					t.Fatalf("fired on the first slow observation, before its %v damping", 2*interval)
				}
				run(above, window)
				if a := alert(); a.State != "firing" || a.Value <= ceiling {
					t.Fatalf("just above the ceiling: %+v, want firing", a)
				}
				run(below, window-2*interval)
				if got := e.State(tc.rule); got != StateFiring {
					t.Fatalf("%v after the last slow observation: %v, want still firing inside the %v window",
						window-2*interval, got, window)
				}
				run(below, 2*interval)
				if got := e.State(tc.rule); got != StateResolved {
					t.Fatalf("a full %v window after the last slow observation: %v, want resolved", window, got)
				}
			})
		}
	}
}
