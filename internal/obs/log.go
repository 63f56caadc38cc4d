package obs

import (
	"context"
	"io"
	"log/slog"
)

// discardHandler drops every record (slog.DiscardHandler exists only from
// go 1.24; this module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Nop returns a logger that discards everything — the default for nodes
// so tests stay silent.
func Nop() *slog.Logger { return slog.New(discardHandler{}) }

// NewLogger returns a text logger writing records at or above level to w.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Component derives a child logger tagged with the subsystem name
// (herder, overlay, horizon, bucket, ...), so one node logger fans out
// into per-component streams that remain filterable.
func Component(l *slog.Logger, name string) *slog.Logger {
	if l == nil {
		return Nop()
	}
	return l.With(slog.String("component", name))
}

// Obs bundles the per-node observability facilities: the metric registry,
// the root logger, and (optionally) the causal span tracer. Reg/Log are
// always non-nil after New; Tracer stays nil unless explicitly enabled —
// nil is the documented zero-overhead "tracing off" state, so Normalize
// never fills it.
type Obs struct {
	Reg    *Registry
	Log    *slog.Logger
	Tracer *Tracer
}

// New creates a default bundle: fresh registry, silent logger.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Log: Nop()}
}

// Normalize fills nil fields with defaults, so partially configured
// bundles (e.g. only a logger) are safe to use.
func (o *Obs) Normalize() *Obs {
	if o == nil {
		return New()
	}
	if o.Reg == nil {
		o.Reg = NewRegistry()
	}
	if o.Log == nil {
		o.Log = Nop()
	}
	return o
}
