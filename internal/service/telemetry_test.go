package service_test

// Service-level tests of the telemetry pipeline: Prometheus /metrics
// content negotiation, live SSE trace streaming (mid-job subscribe
// and terminal replay), engine counters on the result JSON, and
// structured job-lifecycle logging.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unmasque/internal/obs"
	"unmasque/internal/obs/telemetry"
	"unmasque/internal/service"
)

// telemetryServer boots a manager with full observability and wraps
// it in a test server.
func telemetryServer(t *testing.T, workers int) (*service.Manager, *httptest.Server, *obs.Metrics, *bytes.Buffer) {
	t.Helper()
	ctx := context.Background()
	met := obs.NewMetrics()
	var logBuf bytes.Buffer
	mgr, err := service.Start(ctx, service.Config{
		Workers:    workers,
		QueueDepth: 8,
		Metrics:    met,
		Logger:     obs.NewLogger(&logBuf, obs.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(mgr))
	t.Cleanup(srv.Close)
	return mgr, srv, met, &logBuf
}

func submitSpec(t *testing.T, mgr *service.Manager, name string) int64 {
	t.Helper()
	v, err := mgr.Submit(context.Background(), inlineSpec(name))
	if err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// TestMetricsContentNegotiation: /metrics answers JSON by default
// (back-compat, with latency quantiles computed at read time) and
// Prometheus text exposition under ?format=prom or an Accept header —
// each with the right Content-Type, and the prom document round-trips
// through the exposition parser.
func TestMetricsContentNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mgr, srv, _, _ := telemetryServer(t, 2)
	id := submitSpec(t, mgr, "prom-job")
	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	p50, ok50 := snap["job_latency_p50_ms"].(float64)
	p99, ok99 := snap["job_latency_p99_ms"].(float64)
	if !ok50 || !ok99 || p50 > p99 {
		t.Errorf("read-time quantiles wrong: p50=%v p99=%v (%v %v)", p50, p99, ok50, ok99)
	}

	check := func(how string, req *http.Request) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
			t.Errorf("%s: Content-Type = %q, want %q", how, ct, telemetry.PromContentType)
		}
		fams, err := telemetry.ParsePromText(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: exposition rejected by parser: %v\n%s", how, err, body)
		}
		names := map[string]string{}
		for _, f := range fams {
			names[f.Name] = f.Type
		}
		for fam, typ := range map[string]string{
			"unmasque_jobs_done":      "counter",
			"unmasque_job_latency_ms": "histogram",
			"unmasque_queue_depth":    "gauge",
			"unmasque_probes_total":   "counter",
		} {
			if names[fam] != typ {
				t.Errorf("%s: family %s has type %q, want %q", how, fam, names[fam], typ)
			}
		}
	}
	req, _ := http.NewRequest("GET", srv.URL+"/metrics?format=prom", nil)
	check("query param", req)
	req, _ = http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	check("accept header", req)
}

// TestResultEngineCounters: the terminal result JSON carries the
// job's execution-engine accounting.
func TestResultEngineCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mgr, srv, _, _ := telemetryServer(t, 1)
	id := submitSpec(t, mgr, "engine-job")
	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}
	resp, err := http.Get(srv.URL + "/jobs/1/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.VectorBatches == 0 {
		t.Errorf("vector_batches = 0 on a vector-engine job:\n%s", body)
	}
	want, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.VectorBatches != want.VectorBatches || res.JoinBuildsReused != want.JoinBuildsReused {
		t.Errorf("engine counters drifted through JSON: got %+v want %+v", res, want)
	}
}

// TestTraceStreamTerminal: subscribing to a finished job's stream
// yields an immediate full replay — run header, live span frames,
// probe events, lifecycle transitions ending in "done" — and the
// response ends. Every frame passes the stream validator.
func TestTraceStreamTerminal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mgr, srv, _, _ := telemetryServer(t, 1)
	id := submitSpec(t, mgr, "sse-terminal")
	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}
	resp, err := http.Get(srv.URL + "/jobs/1/trace/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sum, err := obs.ValidateStream(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("terminal stream fails validation: %v", err)
	}
	if sum.Final != "done" {
		t.Errorf("final lifecycle state %q, want done", sum.Final)
	}
	if sum.Spans == 0 || sum.Probes == 0 || sum.Jobs < 3 {
		t.Errorf("replay incomplete: %s", sum)
	}
	if len(sum.Apps) != 1 || sum.Apps[0] != "sse-terminal" {
		t.Errorf("run header missing from replay: apps=%v", sum.Apps)
	}

	// Unknown job and (simulated) pre-daemon jobs are 404s.
	if resp, err := http.Get(srv.URL + "/jobs/99/trace/stream"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job stream: %d, want 404", resp.StatusCode)
		}
	}
}

// TestTraceStreamLive: a subscriber that joins mid-job sees the
// replay prefix plus every event published after it joined, and the
// stream ends when the job reaches a terminal state.
func TestTraceStreamLive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// One worker and a pre-submitted long-ish job make the subscribe
	// race tractable: we attach while the job is queued or running and
	// must still observe a terminal frame.
	mgr, srv, _, _ := telemetryServer(t, 1)
	id := submitSpec(t, mgr, "sse-live")

	resp, err := http.Get(srv.URL + "/jobs/1/trace/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var transcript bytes.Buffer
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			transcript.WriteString(sc.Text())
			transcript.WriteByte('\n')
		}
		done <- sc.Err()
	}()

	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after the job finished")
	}

	sum, err := obs.ValidateStream(bytes.NewReader(transcript.Bytes()))
	if err != nil {
		t.Fatalf("live stream fails validation: %v", err)
	}
	if sum.Final != "done" {
		t.Errorf("final lifecycle state %q, want done", sum.Final)
	}
	if sum.Spans == 0 || sum.Probes == 0 {
		t.Errorf("live stream missing span/probe frames: %s", sum)
	}
}

// TestJobLifecycleLogs: the structured log carries submitted /
// started / done records correlated by job_id.
func TestJobLifecycleLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mgr, _, _, logBuf := telemetryServer(t, 1)
	id := submitSpec(t, mgr, "log-job")
	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}
	if err := mgr.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	logs := logBuf.String()
	for _, msg := range []string{"job submitted", "job started", "job done"} {
		if !strings.Contains(logs, `"msg":"`+msg+`"`) {
			t.Errorf("missing lifecycle record %q in logs:\n%s", msg, logs)
		}
	}
	var sawJobID bool
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line: %s", line)
		}
		if rec["job_id"] == float64(1) {
			sawJobID = true
		}
	}
	if !sawJobID {
		t.Error("no log record carries the job_id correlation attr")
	}
}
