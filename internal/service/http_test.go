package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unmasque/internal/obs"
	"unmasque/internal/service"
)

// TestHTTPEndToEnd drives the full API surface over a live test
// server: submit → status → result → trace download, plus the error
// statuses the handlers promise.
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	mgr, err := service.Start(ctx, service.Config{
		Workers:    2,
		QueueDepth: 8,
		StorePath:  filepath.Join(t.TempDir(), "jobs.jsonl"),
		Metrics:    obs.NewMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(mgr))
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	// Liveness.
	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Bad submissions.
	if resp, _ := post("/jobs", `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	if resp, body := post("/jobs", `{"app":"no-such/app"}`); resp.StatusCode != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("unknown application")) {
		t.Errorf("unknown app: %d %s, want 400", resp.StatusCode, body)
	}
	// A client built against an older daemon may still send a knob
	// that no longer exists; it is refused, never silently dropped.
	if resp, body := post("/jobs", `{"app":"enki/posts_by_tag","bounded":2}`); resp.StatusCode != http.StatusBadRequest ||
		!bytes.Contains(body, []byte(`unknown field \"bounded\"`)) {
		t.Errorf("removed spec field: %d %s, want 400 unknown field", resp.StatusCode, body)
	}

	// Submit an inline job.
	enc, err := json.Marshal(inlineSpec("http-inline"))
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post("/jobs", string(enc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view service.View
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID != 1 || view.State != service.StateQueued {
		t.Fatalf("submit view: %+v", view)
	}

	// Poll status to terminal.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body = get(fmt.Sprintf("/jobs/%d", view.ID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != service.StateDone {
		t.Fatalf("job finished %s: %s", view.State, view.Error)
	}

	// Result carries the SQL and the ledger invariant.
	resp, body = get(fmt.Sprintf("/jobs/%d/result", view.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.SQL == "" || !strings.Contains(strings.ToLower(res.SQL), "select") {
		t.Errorf("result sql: %q", res.SQL)
	}
	if res.LedgerEvents == 0 || res.LedgerEvents != res.AppInvocations+res.CacheHits {
		t.Errorf("ledger invariant over HTTP: events %d, invocations %d + hits %d",
			res.LedgerEvents, res.AppInvocations, res.CacheHits)
	}

	// The trace download is a valid obs JSONL stream.
	resp, body = get(fmt.Sprintf("/jobs/%d/trace", view.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	sum, err := obs.Validate(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if int64(sum.Probes) != res.AppInvocations+res.CacheHits {
		t.Errorf("trace ledger has %d probes, result reports %d",
			sum.Probes, res.AppInvocations+res.CacheHits)
	}

	// List includes the job.
	resp, body = get("/jobs")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"http-inline"`)) {
		t.Errorf("list: %d %s", resp.StatusCode, body)
	}

	// Error statuses.
	if resp, _ := get("/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/jobs/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric id: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(fmt.Sprintf("/jobs/%d/cancel", view.ID), ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal job: %d, want 409", resp.StatusCode)
	}

	// Drain, then submissions bounce with 503.
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := post("/jobs", string(enc)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", resp.StatusCode)
	}
}

// TestTraceOfUnstartedAndRecoveredJobs: a job cancelled while queued
// serves a trace of its run header alone, which the trace validator
// accepts; after a restart the same job is history from an earlier
// daemon instance and its trace answers 404.
func TestTraceOfUnstartedAndRecoveredJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	service.BlockJobsNamed(t, "slow")
	ctx := context.Background()
	store := filepath.Join(t.TempDir(), "jobs.jsonl")
	traceOf := func(mgr *service.Manager, id int64) (int, []byte) {
		t.Helper()
		srv := httptest.NewServer(service.NewServer(mgr))
		defer srv.Close()
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/trace", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	mgr, err := service.Start(ctx, service.Config{Workers: 1, StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := mgr.Submit(ctx, inlineSpec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, mgr, slow.ID, func(s service.State) bool { return s == service.StateRunning }, "running")
	queued, err := mgr.Submit(ctx, inlineSpec("never-started"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	code, body := traceOf(mgr, queued.ID)
	if code != http.StatusOK {
		t.Fatalf("trace of a job cancelled while queued: %d %s", code, body)
	}
	sum, err := obs.Validate(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("header-only trace does not validate: %v\n%s", err, body)
	}
	if len(sum.Apps) != 1 || sum.Apps[0] != "never-started" || sum.Spans != 0 || sum.Probes != 0 {
		t.Errorf("trace of a job that never ran: %+v", sum)
	}
	if _, err := mgr.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	restarted, err := service.Start(ctx, service.Config{Workers: 1, StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Drain(ctx)
	if code, body := traceOf(restarted, queued.ID); code != http.StatusNotFound {
		t.Errorf("trace of a recovered job: %d %s, want 404", code, body)
	}
}
