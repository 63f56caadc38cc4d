// Package flight is the post-mortem half of the detection layer: when
// the liveness watchdog decides the node is degraded (close stall,
// SIGQUIT, operator request), it dumps a crash bundle — goroutine
// stacks, the recent time-series window, the span store, the node's
// per-slot consensus records, and the active alert table — into a
// timestamped directory so the stall can be diagnosed after the process is
// gone.
package flight

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"stellar/internal/obs"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
)

// MetaSchema versions the bundle's meta.json.
const MetaSchema = "stellar-flight/v1"

// Meta is the bundle manifest.
type Meta struct {
	Schema  string   `json:"schema"`
	Node    string   `json:"node"`
	Reason  string   `json:"reason"`
	Wall    string   `json:"wall"` // RFC3339 wall-clock time of the dump
	NowNano int64    `json:"now_ns"`
	Files   []string `json:"files"`
}

// Config wires a recorder to a node's telemetry. Any source may be nil;
// the corresponding bundle file is simply omitted.
type Config struct {
	// Dir is the parent directory bundles are created under.
	Dir string
	// Node names the bundle ("node-0").
	Node string
	// Ring and Window select the time-series slice to dump (Window ≤ 0
	// dumps everything retained).
	Ring   *timeseries.Ring
	Window time.Duration
	// Tracer is the span store.
	Tracer *obs.Tracer
	// Slots returns the node's per-slot consensus records. It is called
	// while the node may be wedged, so it must not need the event loop.
	Slots func() any
	// Alerts is the SLO engine whose state goes into alerts.json.
	Alerts *slo.Engine
	// Clock is the shared telemetry time axis (nil = zero times).
	Clock func() time.Duration
	// Cooldown rate-limits automatic dumps (0 = 1 min). Manual Dump calls
	// ignore it.
	Cooldown time.Duration
	// Log receives dump events.
	Log *slog.Logger
}

// Recorder writes crash bundles. Safe for concurrent use.
type Recorder struct {
	cfg Config
	log *slog.Logger

	mu       sync.Mutex
	seq      int
	lastAuto time.Duration
	hasAuto  bool
}

// New builds a recorder (cfg.Dir and cfg.Node required in practice, but
// nothing is touched on disk until a dump happens).
func New(cfg Config) *Recorder {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Minute
	}
	return &Recorder{cfg: cfg, log: obs.Component(cfg.Log, "flight")}
}

// Dump writes a bundle now and returns its directory. reason becomes part
// of the directory name ("close-stall", "sigquit").
func (r *Recorder) Dump(reason string) (string, error) {
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	wall := time.Now()
	dir := filepath.Join(r.cfg.Dir,
		fmt.Sprintf("bundle-%s-%s-%s-%d", r.cfg.Node, reason, wall.Format("20060102-150405"), seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: create bundle dir: %w", err)
	}

	var now time.Duration
	if r.cfg.Clock != nil {
		now = r.cfg.Clock()
	}
	var files []string
	note := func(name string, err error) {
		if err != nil {
			r.log.Warn("bundle file failed", "file", name, "err", err)
			return
		}
		files = append(files, name)
	}

	// Goroutine stacks: the one artifact that explains a wedged event loop.
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	note("stacks.txt", os.WriteFile(filepath.Join(dir, "stacks.txt"), buf, 0o644))

	if r.cfg.Ring != nil {
		note("timeseries.json", writeJSON(dir, "timeseries.json", r.cfg.Ring.Export(r.cfg.Window, now)))
	}
	if r.cfg.Tracer != nil {
		note("spans.json", writeJSON(dir, "spans.json", r.cfg.Tracer.Export(r.cfg.Node)))
	}
	if r.cfg.Slots != nil {
		note("slots.json", writeJSON(dir, "slots.json", r.cfg.Slots()))
	}
	if r.cfg.Alerts != nil {
		note("alerts.json", writeJSON(dir, "alerts.json", r.cfg.Alerts.Report(r.cfg.Node, now)))
	} else {
		note("alerts.json", writeJSON(dir, "alerts.json", slo.DisabledReport(r.cfg.Node)))
	}

	meta := Meta{
		Schema: MetaSchema, Node: r.cfg.Node, Reason: reason,
		Wall: wall.UTC().Format(time.RFC3339), NowNano: now.Nanoseconds(),
		Files: files,
	}
	if err := writeJSON(dir, "meta.json", meta); err != nil {
		return dir, fmt.Errorf("flight: write meta: %w", err)
	}
	r.log.Info("crash bundle written", "dir", dir, "reason", reason, "files", len(files)+1)
	return dir, nil
}

// AutoDump is Dump behind the cooldown: the watchdog calls it on every
// close-stall transition, and repeated stalls within the cooldown are
// suppressed so a flapping alert cannot fill the disk. The now argument
// is the telemetry clock (monotone with Config.Clock). Returns the bundle
// directory and whether a dump happened.
func (r *Recorder) AutoDump(reason string, now time.Duration) (string, bool) {
	r.mu.Lock()
	if r.hasAuto && now-r.lastAuto < r.cfg.Cooldown {
		r.mu.Unlock()
		return "", false
	}
	r.lastAuto, r.hasAuto = now, true
	r.mu.Unlock()
	dir, err := r.Dump(reason)
	if err != nil {
		r.log.Warn("auto dump failed", "reason", reason, "err", err)
		return "", false
	}
	return dir, true
}

func writeJSON(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
