// Package slo is the detection layer of the observability stack: a
// declarative rule engine that evaluates service-level objectives over
// the windowed time-series ring (internal/obs/timeseries) and turns
// breaches into typed alerts with a pending→firing→resolved life cycle.
// The rules encode the paper's headline service properties — the ~5 s
// close cadence of §7, submit→applied latency, and liveness under
// befouled quorums (§3) — so a degraded node *judges* its own telemetry
// instead of leaving an operator to eyeball /metrics.
//
// Alert state is exported two ways: structured log events on every
// transition, and the Report document behind horizon's GET /debug/alerts
// (which a fleet scrape reads).
package slo

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/timeseries"
)

// Severity ranks an alert's urgency.
type Severity string

// Severities.
const (
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// State is one alert's position in its life cycle.
type State int

// Alert states. A breached rule sits Pending until the breach has lasted
// its For duration (damping against one-sample blips), then Firing.
// When the breach clears, Firing becomes Resolved — a sticky marker that
// the alert fired and recovered — and a later breach restarts at Pending.
const (
	StateInactive State = iota
	StatePending
	StateFiring
	StateResolved
)

// String names the state for labels, logs, and JSON.
func (s State) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Check is one rule evaluation's verdict.
type Check struct {
	// Value and Threshold describe the comparison for operators.
	Value     float64
	Threshold float64
	// Breached is true when the SLO is violated right now.
	Breached bool
	// Unknown is true when the ring lacks the data to judge (no baseline
	// old enough, metric absent, zero observations). The engine holds the
	// current state rather than resolving or firing on missing data.
	Unknown bool
	// Detail is a short human explanation ("no ledger closed in 20s").
	Detail string
}

// Rule is one declarative SLO: a named evaluation function over the ring
// plus firing policy and provenance.
type Rule struct {
	// Name identifies the alert ("close_stall").
	Name string
	// Severity ranks it.
	Severity Severity
	// For is how long a breach must persist before Pending becomes Firing
	// (0 = fire on first breached evaluation).
	For time.Duration
	// Claim ties the rule to the paper figure or claim it guards.
	Claim string
	// Eval judges the SLO against the ring at time now.
	Eval func(r *timeseries.Ring, now time.Duration) Check
}

// ruleState is the engine's per-rule memory.
type ruleState struct {
	state       State
	since       time.Duration // when state was entered
	breachStart time.Duration // start of the current continuous breach
	fired       int           // times this rule has reached Firing
	last        Check
	hasLast     bool
}

// transitionEvent is one state change queued for the OnTransition
// callbacks, which run after the evaluation pass outside the engine lock
// (a callback may legitimately re-enter the engine — the flight recorder
// snapshots Report while dumping a bundle).
type transitionEvent struct {
	rule     Rule
	from, to State
	now      time.Duration
}

// Engine evaluates a rule set against one ring and tracks alert state.
// All methods are safe for concurrent use.
type Engine struct {
	mu           sync.Mutex
	ring         *timeseries.Ring
	rules        []Rule
	states       []ruleState
	log          *slog.Logger
	onTransition []func(rule Rule, from, to State, now time.Duration)
}

// NewEngine builds an engine over ring with the given rules (a nil logger
// keeps transitions silent).
func NewEngine(ring *timeseries.Ring, rules []Rule, log *slog.Logger) *Engine {
	return &Engine{
		ring:   ring,
		rules:  rules,
		states: make([]ruleState, len(rules)),
		log:    obs.Component(log, "slo"),
	}
}

// OnTransition registers fn to run on every state transition — the
// liveness watchdog hooks the close-stall alert here to trigger a
// flight-recorder dump. Callbacks run after the evaluation pass that
// produced the transition, outside the engine lock, so they may call back
// into the engine (Report, State) freely.
func (e *Engine) OnTransition(fn func(rule Rule, from, to State, now time.Duration)) {
	e.mu.Lock()
	e.onTransition = append(e.onTransition, fn)
	e.mu.Unlock()
}

// Evaluate runs every rule against the ring at time now and advances the
// alert state machines.
func (e *Engine) Evaluate(now time.Duration) {
	var events []transitionEvent
	e.mu.Lock()
	for i := range e.rules {
		rule := &e.rules[i]
		st := &e.states[i]
		c := rule.Eval(e.ring, now)
		if c.Unknown {
			// No data: hold state. Resolving on silence would hide a dead
			// node; firing on silence would false-alarm every boot.
			continue
		}
		st.last, st.hasLast = c, true
		if c.Breached {
			switch st.state {
			case StateInactive, StateResolved:
				st.breachStart = now
				if rule.For <= 0 {
					events = append(events, e.transition(i, StateFiring, now))
				} else {
					events = append(events, e.transition(i, StatePending, now))
				}
			case StatePending:
				if now-st.breachStart >= rule.For {
					events = append(events, e.transition(i, StateFiring, now))
				}
			}
		} else {
			switch st.state {
			case StatePending:
				events = append(events, e.transition(i, StateInactive, now))
			case StateFiring:
				events = append(events, e.transition(i, StateResolved, now))
			}
		}
	}
	cbs := e.onTransition
	e.mu.Unlock()
	for _, ev := range events {
		for _, fn := range cbs {
			fn(ev.rule, ev.from, ev.to, ev.now)
		}
	}
}

// transition moves rule i to state to, logging it, and returns the event for post-unlock callback delivery. Caller holds e.mu.
func (e *Engine) transition(i int, to State, now time.Duration) transitionEvent {
	rule := e.rules[i]
	st := &e.states[i]
	from := st.state
	st.state = to
	st.since = now
	if to == StateFiring {
		st.fired++
	}
	attrs := []any{
		"alert", rule.Name, "from", from.String(), "to", to.String(),
		"severity", string(rule.Severity), "value", st.last.Value,
		"threshold", st.last.Threshold, "detail", st.last.Detail,
	}
	switch to {
	case StateFiring:
		e.log.Error("alert firing", attrs...)
	case StateResolved:
		e.log.Info("alert resolved", attrs...)
	default:
		e.log.Debug("alert transition", attrs...)
	}
	return transitionEvent{rule: rule, from: from, to: to, now: now}
}

// State reports the named rule's current state (StateInactive for unknown
// names).
func (e *Engine) State(name string) State {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		if e.rules[i].Name == name {
			return e.states[i].state
		}
	}
	return StateInactive
}

// FiredCount reports how many times the named rule has reached Firing.
func (e *Engine) FiredCount(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		if e.rules[i].Name == name {
			return e.states[i].fired
		}
	}
	return 0
}

// EverFired lists the rules that have reached Firing at least once — the
// chaos harness's false-positive check on fault-free soaks.
func (e *Engine) EverFired() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for i := range e.rules {
		if e.states[i].fired > 0 {
			names = append(names, e.rules[i].Name)
		}
	}
	return names
}

// Firing reports how many rules are firing right now.
func (e *Engine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.states {
		if e.states[i].state == StateFiring {
			n++
		}
	}
	return n
}

// ReportSchema versions the GET /debug/alerts document.
const ReportSchema = "stellar-alerts/v1"

// Alert is one rule's row in the report.
type Alert struct {
	Name      string   `json:"name"`
	Severity  Severity `json:"severity"`
	State     string   `json:"state"`
	SinceNano int64    `json:"since_ns"` // when the current state was entered
	Value     float64  `json:"value"`
	Threshold float64  `json:"threshold"`
	Detail    string   `json:"detail,omitempty"`
	Claim     string   `json:"claim,omitempty"`
	Fired     int      `json:"fired_count"` // times fired since process start
}

// Report is the GET /debug/alerts payload and the crash bundle's
// alerts.json.
type Report struct {
	Schema  string  `json:"schema"`
	Node    string  `json:"node,omitempty"`
	Enabled bool    `json:"enabled"`
	NowNano int64   `json:"now_ns"`
	Firing  int     `json:"firing"`
	Pending int     `json:"pending"`
	Alerts  []Alert `json:"alerts"`
}

// DisabledReport is what a node without an engine serves: enabled=false
// with an empty rule table, keeping fleet scraping uniform (200, never
// 404) the way /debug/trace/export serves an empty document with tracing
// off.
func DisabledReport(node string) *Report {
	return &Report{Schema: ReportSchema, Node: node, Alerts: []Alert{}}
}

// Report snapshots every rule's state for the named node.
func (e *Engine) Report(node string, now time.Duration) *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := &Report{
		Schema:  ReportSchema,
		Node:    node,
		Enabled: true,
		NowNano: now.Nanoseconds(),
		Alerts:  make([]Alert, 0, len(e.rules)),
	}
	for i := range e.rules {
		rule := &e.rules[i]
		st := &e.states[i]
		a := Alert{
			Name:      rule.Name,
			Severity:  rule.Severity,
			State:     st.state.String(),
			SinceNano: st.since.Nanoseconds(),
			Claim:     rule.Claim,
			Fired:     st.fired,
		}
		if st.hasLast {
			a.Value = st.last.Value
			a.Threshold = st.last.Threshold
			a.Detail = st.last.Detail
		} else {
			a.Detail = "no data yet"
		}
		switch st.state {
		case StateFiring:
			rep.Firing++
		case StatePending:
			rep.Pending++
		}
		rep.Alerts = append(rep.Alerts, a)
	}
	return rep
}
