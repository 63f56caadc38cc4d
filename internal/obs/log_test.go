package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

func TestNopLoggerDiscardsEverything(t *testing.T) {
	l := Nop()
	if l == nil {
		t.Fatal("Nop returned nil")
	}
	// All levels disabled: nothing is formatted, nothing panics.
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if l.Enabled(context.Background(), lv) {
			t.Fatalf("Nop logger enabled at %v", lv)
		}
	}
	l.Info("dropped", "k", "v")
	l.Error("dropped too")
	// Derived loggers stay silent as well.
	l.With("a", 1).WithGroup("g").Error("still dropped")
}

func TestNewLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Debug("too quiet")
	l.Info("heard")
	l.Warn("also heard")
	out := buf.String()
	if strings.Contains(out, "too quiet") {
		t.Fatalf("debug line leaked through info-level logger:\n%s", out)
	}
	if !strings.Contains(out, "heard") || !strings.Contains(out, "also heard") {
		t.Fatalf("info/warn lines missing:\n%s", out)
	}
	if !strings.Contains(out, "level=INFO") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("level attributes missing:\n%s", out)
	}

	buf.Reset()
	dl := NewLogger(&buf, slog.LevelDebug)
	dl.Debug("now audible")
	if !strings.Contains(buf.String(), "now audible") {
		t.Fatalf("debug-level logger dropped debug line:\n%s", buf.String())
	}
}

func TestNewLoggerOutputRouting(t *testing.T) {
	var a, b bytes.Buffer
	la := NewLogger(&a, slog.LevelInfo)
	lb := NewLogger(&b, slog.LevelInfo)
	la.Info("to-a")
	lb.Info("to-b")
	if !strings.Contains(a.String(), "to-a") || strings.Contains(a.String(), "to-b") {
		t.Fatalf("writer a got the wrong stream: %q", a.String())
	}
	if !strings.Contains(b.String(), "to-b") || strings.Contains(b.String(), "to-a") {
		t.Fatalf("writer b got the wrong stream: %q", b.String())
	}
}

func TestComponentPrefix(t *testing.T) {
	var buf bytes.Buffer
	root := NewLogger(&buf, slog.LevelInfo)
	Component(root, "herder").Info("closing ledger")
	Component(root, "overlay").Info("flooding")
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "component=herder") || !strings.Contains(lines[0], "closing ledger") {
		t.Fatalf("herder line missing component tag: %s", lines[0])
	}
	if !strings.Contains(lines[1], "component=overlay") {
		t.Fatalf("overlay line missing component tag: %s", lines[1])
	}
}

func TestComponentOfNilIsSilent(t *testing.T) {
	l := Component(nil, "herder")
	if l == nil {
		t.Fatal("Component(nil) returned nil")
	}
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("Component(nil) logger is enabled")
	}
	l.Error("dropped")
}

func TestObsNormalizeTracerOptIn(t *testing.T) {
	// nil bundle → full defaults, tracing off.
	ob := (*Obs)(nil).Normalize()
	if ob.Tracer != nil {
		t.Fatal("Normalize must leave Tracer nil (tracing is opt-in)")
	}
	// Partially filled bundle keeps its fields.
	reg := NewRegistry()
	tr := NewTracer(nil)
	ob2 := (&Obs{Reg: reg, Tracer: tr}).Normalize()
	if ob2.Reg != reg {
		t.Fatal("Normalize replaced a non-nil Reg")
	}
	if ob2.Tracer != tr {
		t.Fatal("Normalize dropped the Tracer")
	}
	if ob2.Log == nil {
		t.Fatal("Normalize left nil Log")
	}
}

func TestObsNormalize(t *testing.T) {
	var o *Obs
	n := o.Normalize()
	if n.Reg == nil || n.Log == nil {
		t.Fatal("Normalize left nil fields")
	}
	partial := &Obs{Log: NewLogger(nopWriter{}, 0)}
	if p := partial.Normalize(); p.Reg == nil {
		t.Fatal("partial Normalize left nil fields")
	}
	Component(nil, "x").Info("discarded")
	Component(n.Log, "herder").Debug("also discarded")
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
