package obs

import (
	"context"
	"log/slog"

	"streamhist/internal/hwprof"
)

// Obs bundles the observability facilities a component needs: the metrics
// registry, the store of published scan records (the tracer, which keeps both
// the every-scan and the tail-sampled view), the hardware-cycle profiler, and
// a structured logger. New wires all four; a program replaces only Log. A nil
// *Obs is valid everywhere (all accessors degrade to no-ops), so components
// accept one without guarding; so is the zero bundle, or one with any member
// left nil.
type Obs struct {
	Log *slog.Logger

	trace *Tracer
	reg   *Registry
	prof  *hwprof.Profiler
}

// New returns a fully wired Obs: fresh registry, a DefaultTraceRing-deep
// tracer, a hardware-cycle profiler, and a no-op logger (replace Log to get
// output).
func New() *Obs {
	return &Obs{
		Log:   NopLogger(),
		trace: NewTracer(0),
		reg:   NewRegistry(),
		prof:  hwprof.New(),
	}
}

// Publish is the single hand-over point of a scan's record. It finalises the
// record — the wall clock is stamped once, spans a failing stage left open
// are closed, the tail-sampling verdict is computed — then hands the pointer
// to the tracer, the one store every view reads, and emits the scan's one log
// line. The record is immutable from here on: every reader, and the caller's
// latency observation, sees the same ID, trace ID, start and wall time.
// Nil-safe in both arguments; a nil bundle still finalises the record, so a
// client with no bundle ships closed spans in its trailer.
func (o *Obs) Publish(rec *ScanRecord) {
	if rec == nil {
		return
	}
	rec.seal()
	if o == nil {
		return
	}
	o.trace.Publish(rec)
	level, msg := slog.LevelInfo, "scan served"
	if rec.Err != "" {
		level, msg = slog.LevelWarn, "scan failed"
	}
	if log := o.Logger(); log.Enabled(context.Background(), level) {
		log.LogAttrs(context.Background(), level, msg, rec.LogValue().Group()...)
	}
}

// Registry returns the bundle's registry; nil for a nil bundle.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the bundle's tracer; nil for a nil bundle.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}

// Profiler returns the bundle's hardware-cycle profiler; nil for a nil
// bundle (a nil profiler is itself a valid no-op).
func (o *Obs) Profiler() *hwprof.Profiler {
	if o == nil {
		return nil
	}
	return o.prof
}

// Logger returns the bundle's logger, or the shared no-op logger when the
// bundle (or its Log field) is nil — callers can always log unconditionally.
func (o *Obs) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return nopLogger
	}
	return o.Log
}

// nopHandler drops everything; Enabled short-circuits before any attribute
// work happens, so an unconfigured logger costs one interface call.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// NopLogger returns a logger that discards every record.
func NopLogger() *slog.Logger { return nopLogger }
