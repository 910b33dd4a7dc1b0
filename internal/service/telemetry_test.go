package service_test

// Service-level tests of the telemetry pipeline: the Prometheus
// /metrics exposition, live SSE trace streaming (mid-job subscribe
// and terminal replay), engine counters on the result JSON, and
// structured job-lifecycle logging.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// get fetches url and returns the status code and the body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// sseFrames returns the data payloads of an SSE transcript in order.
func sseFrames(transcript []byte) []string {
	var frames []string
	for _, line := range strings.Split(string(transcript), "\n") {
		if f, ok := strings.CutPrefix(line, "data: "); ok {
			frames = append(frames, f)
		}
	}
	return frames
}

// traceLines splits a JSONL trace download into its lines.
func traceLines(trace []byte) []string {
	return strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
}

func submitSpec(t *testing.T, mgr *service.Manager, name string) int64 {
	t.Helper()
	v, err := mgr.Submit(context.Background(), inlineSpec(name))
	if err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// TestMetricsContentNegotiation: /metrics answers Prometheus text
// exposition, with its Content-Type, whatever the query string or
// Accept header asks for, and the document round-trips through the
// exposition parser.
func TestMetricsContentNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mgr, srv, _, _ := telemetryServer(t, 2)
	id := submitSpec(t, mgr, "prom-job")
	if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
		t.Fatalf("job state %s (%s)", v.State, v.Error)
	}

	for _, tc := range []struct{ query, accept string }{
		{"", ""},
		{"?format=json", "application/json"},
		{"?format=prom", ""},
		{"", "text/plain;version=0.0.4"},
	} {
		req, _ := http.NewRequest("GET", srv.URL+"/metrics"+tc.query, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		how := fmt.Sprintf("query %q accept %q", tc.query, tc.accept)
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
// yields an immediate full replay — its lifecycle frames around the
// lines of its trace download, ending in "done" — and the response
// ends. Every frame passes the stream validator.
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
	code, trace := get(t, srv.URL+"/jobs/1/trace")
	if code != http.StatusOK {
		t.Fatalf("trace download: %d %s", code, trace)
	}
	want := append([]string{
		`{"type":"job","id":1,"state":"queued"}`,
		`{"type":"job","id":1,"state":"running"}`,
	}, traceLines(trace)...)
	want = append(want, `{"type":"job","id":1,"state":"done"}`)
	if got := sseFrames(body); !slices.Equal(got, want) {
		t.Errorf("replay is not the lifecycle frames around the trace download:\n%s\nwant\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
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

// TestTraceStreamLive: a subscriber that joins while the job waits in
// the queue sees every frame published after it joined, and the stream
// ends when the job reaches a terminal state. Probes arrive as they
// land; the span tree arrives once, with its ids, after the last probe.
func TestTraceStreamLive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The lone worker runs a job that blocks until it is cancelled, so
	// the subscriber joins before the job under test starts.
	service.BlockJobsNamed(t, "slow")
	mgr, srv, _, _ := telemetryServer(t, 1)
	slow := submitSpec(t, mgr, "slow")
	waitState(t, mgr, slow, func(s service.State) bool { return s == service.StateRunning }, "running")
	id := submitSpec(t, mgr, "sse-live")

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/trace/stream", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var transcript bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(&transcript, resp.Body)
		done <- err
	}()

	if _, err := mgr.Cancel(context.Background(), slow); err != nil {
		t.Fatal(err)
	}
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

	code, trace := get(t, fmt.Sprintf("%s/jobs/%d/trace", srv.URL, id))
	if code != http.StatusOK {
		t.Fatalf("trace download: %d %s", code, trace)
	}
	want, err := obs.Validate(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	probes, lastProbe, firstSpan := 0, -1, -1
	ids := map[int]bool{}
	for i, f := range sseFrames(transcript.Bytes()) {
		var frame struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal([]byte(f), &frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		switch frame.Type {
		case obs.TypeProbe:
			probes++
			lastProbe = i
		case obs.TypeSpan:
			if frame.ID <= 0 || ids[frame.ID] {
				t.Fatalf("span frame %d has id %d: every span comes once, with its id", i, frame.ID)
			}
			ids[frame.ID] = true
			if firstSpan < 0 {
				firstSpan = i
			}
		}
	}
	if want.Spans == 0 || len(ids) != want.Spans || probes != want.Probes {
		t.Errorf("live stream carries %d spans and %d probes, the trace %d and %d",
			len(ids), probes, want.Spans, want.Probes)
	}
	if firstSpan < lastProbe {
		t.Errorf("first span at frame %d, before the last probe at frame %d", firstSpan, lastProbe)
	}
	sum, err := obs.ValidateStream(bytes.NewReader(transcript.Bytes()))
	if err != nil {
		t.Fatalf("live stream fails validation: %v", err)
	}
	if sum.Final != "done" {
		t.Errorf("final lifecycle state %q, want done", sum.Final)
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
