package telemetry

import (
	"bufio"
	"context"

	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unmasque/internal/obs"
)

func TestStreamReplayThenLive(t *testing.T) {
	s := NewStream()
	s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: 1, State: "running"})
	s.Publish(obs.ProbeEvent{Type: obs.TypeProbe, Phase: "filters", Kind: obs.KindExec, Cache: obs.CacheMiss})

	replay, live, cancel := s.Subscribe()
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("replay prefix has %d frames, want 2", len(replay))
	}
	s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: 1, State: "done"})
	select {
	case frame := <-live:
		if !strings.Contains(string(frame), `"done"`) {
			t.Errorf("live frame wrong: %s", frame)
		}
	case <-time.After(time.Second):
		t.Fatal("live frame never arrived")
	}
	// The replay snapshot and subscription are atomic: nothing
	// published before Subscribe may appear on the live channel.
	select {
	case frame := <-live:
		t.Fatalf("unexpected extra live frame: %s", frame)
	default:
	}
}

func TestStreamCloseSemantics(t *testing.T) {
	s := NewStream()
	s.Publish(obs.JobEvent{Type: obs.TypeJob, State: "running"})
	_, live, cancel := s.Subscribe()
	defer cancel()
	s.Close()
	if _, ok := <-live; ok {
		t.Error("live channel must close when the stream closes")
	}
	// Terminal subscribe: full replay, already-closed channel.
	replay, live2, cancel2 := s.Subscribe()
	defer cancel2()
	if len(replay) != 1 {
		t.Errorf("terminal replay has %d frames, want 1", len(replay))
	}
	if _, ok := <-live2; ok {
		t.Error("terminal subscription channel must be closed")
	}
	s.Publish(obs.JobEvent{Type: obs.TypeJob, State: "done"}) // no-op
	if replay, _, _ := s.Subscribe(); len(replay) != 1 {
		t.Error("publish after close must not grow the replay buffer")
	}
	s.Close() // idempotent
}

func TestStreamSlowConsumerShed(t *testing.T) {
	s := NewStream()
	_, live, cancel := s.Subscribe()
	defer cancel()
	for i := 0; i < subBuffer+10; i++ {
		s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: int64(i), State: "running"})
	}
	n := 0
	for range live {
		n++
	}
	if n != subBuffer {
		t.Errorf("shed consumer drained %d frames, want the %d buffered", n, subBuffer)
	}
	replay, _, cancel2 := s.Subscribe()
	cancel2()
	if len(replay) != subBuffer+10 {
		t.Errorf("replay buffer must keep everything: %d", len(replay))
	}
}

func TestStreamReplayTruncation(t *testing.T) {
	s := NewStream()
	for i := 1; i <= maxReplay+1; i++ {
		s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: int64(i), State: "running"})
	}
	replay, _, cancel := s.Subscribe()
	defer cancel()
	if len(replay) != maxReplay {
		t.Errorf("cap not applied: %d frames, want %d", len(replay), maxReplay)
	}
	if !strings.Contains(string(replay[0]), `"id":2,`) {
		t.Errorf("the oldest frame must be the one dropped: %s", replay[0])
	}
}

func TestStreamNilSafety(t *testing.T) {
	var s *Stream
	s.Publish(obs.JobEvent{})
	s.Close()
	replay, live, cancel := s.Subscribe()
	cancel()
	if len(replay) != 0 {
		t.Error("nil stream replay not empty")
	}
	if _, ok := <-live; ok {
		t.Error("nil stream channel must be closed")
	}
}

func TestStreamCancelIdempotent(t *testing.T) {
	s := NewStream()
	_, _, cancel := s.Subscribe()
	cancel()
	cancel()
	s.Publish(obs.JobEvent{Type: obs.TypeJob, State: "running"}) // no panic on closed sub
}

// TestServeSSETerminal pins the terminal-job contract: immediate full
// replay, then the response ends.
func TestServeSSETerminal(t *testing.T) {
	s := NewStream()
	s.Publish(obs.RunHeader{Type: obs.TypeRun, App: "tpch/Q3"})
	s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: 3, State: "done"})
	s.Close()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/jobs/3/trace/stream", nil)
	ServeSSE(rec, req, s)

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if strings.Count(body, "data: ") != 2 {
		t.Errorf("expected 2 replay frames:\n%s", body)
	}
	sum, err := obs.ValidateStream(strings.NewReader(body))
	if err != nil {
		t.Fatalf("SSE output fails the stream validator: %v", err)
	}
	if sum.Final != "done" {
		t.Errorf("final state %q", sum.Final)
	}
}

// TestServeSSELive pins the mid-job contract: a subscriber sees the
// replay prefix plus everything published after it joined, and the
// response ends when the stream closes.
func TestServeSSELive(t *testing.T) {
	s := NewStream()
	s.Publish(obs.RunHeader{Type: obs.TypeRun, App: "tpch/Q3"})

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeSSE(w, r, s)
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	frames := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				frames <- line
			}
		}
		close(frames)
	}()

	read := func() string {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			return f
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for frame")
			return ""
		}
	}
	if f := read(); !strings.Contains(f, `"run"`) {
		t.Errorf("replay frame wrong: %s", f)
	}
	s.Publish(obs.ProbeEvent{Type: obs.TypeProbe, Phase: "filters", PhaseSeq: 1,
		Kind: obs.KindExec, Cache: obs.CacheMiss, Digest: "ab", Rows: 1})
	if f := read(); !strings.Contains(f, `"probe"`) {
		t.Errorf("live frame wrong: %s", f)
	}
	s.Publish(obs.JobEvent{Type: obs.TypeJob, ID: 1, State: "done"})
	s.Close()
	if f := read(); !strings.Contains(f, `"done"`) {
		t.Errorf("terminal frame wrong: %s", f)
	}
	if _, ok := <-frames; ok {
		t.Error("stream must end after close")
	}
}

// TestServeSSEClientGone verifies the handler unblocks when the
// client disconnects mid-stream.
func TestServeSSEClientGone(t *testing.T) {
	s := NewStream()
	ctx, cancelReq := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/stream", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		ServeSSE(rec, req, s)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancelReq()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// TestServeSSERequiresFlusher covers the non-flushing writer path.
func TestServeSSERequiresFlusher(t *testing.T) {
	s := NewStream()
	w := &nonFlushingWriter{header: http.Header{}}
	ServeSSE(w, httptest.NewRequest("GET", "/stream", nil), s)
	if w.status != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", w.status)
	}
}

type nonFlushingWriter struct {
	header http.Header
	status int
}

func (w *nonFlushingWriter) Header() http.Header { return w.header }
func (w *nonFlushingWriter) WriteHeader(s int)   { w.status = s }
func (w *nonFlushingWriter) Write(p []byte) (int, error) {
	return len(p), nil
}
