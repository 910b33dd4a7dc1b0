package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Level is the logger's severity scale (an alias of slog.Level so
// callers never import log/slog directly — golint GL009 keeps slog
// construction inside this package).
type Level = slog.Level

// Severity levels.
const (
	LevelDebug Level = slog.LevelDebug
	LevelInfo  Level = slog.LevelInfo
	LevelWarn  Level = slog.LevelWarn
	LevelError Level = slog.LevelError
)

// ParseLevel maps a flag string onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return LevelInfo, nil
	case "debug":
		return LevelDebug, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
	}
}

// Logger is the repository's structured, leveled logger: a thin
// nil-safe wrapper over log/slog's JSON handler. Like the Tracer and
// Ledger, a nil *Logger swallows every call, so instrumented code
// logs unconditionally and observability-off costs nothing.
//
// The deterministic tiers (core, analysis, sqldb) never log: what
// happened inside an extraction is on its trace, so GL009 holds and
// tests stay byte-reproducible. Correlation attributes (job_id) are
// attached by derivation: WithJob and With return child loggers whose
// every record carries the attr.
type Logger struct {
	s *slog.Logger
}

// NewLogger builds a JSON logger writing records at or above level to
// w. A nil writer returns a nil (no-op) logger.
func NewLogger(w io.Writer, level Level) *Logger {
	if w == nil {
		return nil
	}
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return &Logger{s: slog.New(h)}
}

// With derives a logger whose records all carry the given key/value
// attrs (slog conventions: alternating string keys and values).
func (l *Logger) With(args ...any) *Logger {
	if l == nil || l.s == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// WithJob derives the per-job logger: every record carries the job id.
func (l *Logger) WithJob(id int64) *Logger {
	return l.With("job_id", id)
}

// Enabled reports whether records at the given level would be
// emitted; nil loggers emit nothing.
func (l *Logger) Enabled(level Level) bool {
	if l == nil || l.s == nil {
		return false
	}
	return l.s.Enabled(nil, level)
}

// Debug logs at LevelDebug; nil-safe.
func (l *Logger) Debug(msg string, args ...any) {
	if l != nil && l.s != nil {
		l.s.Debug(msg, args...)
	}
}

// Info logs at LevelInfo; nil-safe.
func (l *Logger) Info(msg string, args ...any) {
	if l != nil && l.s != nil {
		l.s.Info(msg, args...)
	}
}

// Warn logs at LevelWarn; nil-safe.
func (l *Logger) Warn(msg string, args ...any) {
	if l != nil && l.s != nil {
		l.s.Warn(msg, args...)
	}
}

// Error logs at LevelError; nil-safe.
func (l *Logger) Error(msg string, args ...any) {
	if l != nil && l.s != nil {
		l.s.Error(msg, args...)
	}
}
