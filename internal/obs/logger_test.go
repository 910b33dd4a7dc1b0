package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLoggerJSONRecords(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelDebug)
	log.Info("job started", "job_id", int64(7), "app", "tpch/Q3")
	log.Debug("probe", "n", 1)
	log.Warn("slow", "ms", 12.5)
	log.Error("failed", "err", "boom")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 records, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record not JSON: %v", err)
	}
	if rec["msg"] != "job started" || rec["job_id"] != float64(7) || rec["app"] != "tpch/Q3" {
		t.Errorf("unexpected record: %v", rec)
	}
	if rec["level"] != "INFO" {
		t.Errorf("level = %v", rec["level"])
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelWarn)
	log.Debug("hidden")
	log.Info("hidden")
	log.Warn("visible")
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("expected 1 record at warn level, got %d", got)
	}
	if !log.Enabled(LevelError) || log.Enabled(LevelInfo) {
		t.Error("Enabled does not reflect the configured level")
	}
}

func TestLoggerCorrelationAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo).WithJob(42).With("latency_ms", 1.5)
	log.Info("probe batch", "n", 3)
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("record not JSON: %v", err)
	}
	if rec["job_id"] != float64(42) || rec["latency_ms"] != 1.5 {
		t.Errorf("correlation attrs missing: %v", rec)
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var log *Logger
	log.Info("nothing")
	log.Debug("nothing")
	log.Warn("nothing")
	log.Error("nothing")
	if log.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
	if d := log.With("k", "v"); d != nil {
		t.Error("With on nil logger must stay nil")
	}
	if d := log.WithJob(1).With("k", "v"); d != nil {
		t.Error("derivations of nil logger must stay nil")
	}
	if NewLogger(nil, LevelInfo) != nil {
		t.Error("NewLogger(nil) must return the no-op logger")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"": LevelInfo, "info": LevelInfo, "debug": LevelDebug,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
		"  Error ": LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}
