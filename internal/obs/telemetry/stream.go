package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Stream is the live trace broker behind GET /jobs/{id}/trace/stream:
// the frames the daemon publishes for one job (lifecycle transitions,
// the run header, each probe as it lands and the span export at the
// end) are buffered for replay and fanned out to SSE subscribers.
// Semantics:
//
//   - A subscriber receives every frame published before it joined
//     (the replay prefix, up to maxReplay frames) and then every frame
//     published after, in publish order, with no gap or duplication
//     at the boundary.
//   - Close marks the stream terminal and closes every live channel;
//     subscribing to a closed stream returns the full replay and an
//     already-closed channel — the "terminal job: immediate replay +
//     close" contract.
//   - Publishers never block: a subscriber that stops draining has
//     its channel closed and is dropped (it can re-subscribe and
//     recover via the replay prefix, or fetch the finished trace).
//
// All methods are safe for concurrent use; a nil *Stream no-ops.
type Stream struct {
	mu      sync.Mutex
	replay  [][]byte
	subs    map[int]chan []byte
	nextSub int
	closed  bool
}

// subBuffer is the per-subscriber channel depth; a consumer this far
// behind a live extraction is shed rather than backpressured.
const subBuffer = 1024

// maxReplay caps the replay buffer, comfortably above a full TPC-H
// extraction's frame count; past it the oldest frames are dropped.
const maxReplay = 1 << 16

// NewStream builds an empty broker.
func NewStream() *Stream {
	return &Stream{subs: map[int]chan []byte{}}
}

// Publish marshals one frame (any of the obs event structs) and
// delivers it to the replay buffer and every live subscriber.
// Publishing to a closed or nil stream is a no-op, as is a frame that
// fails to marshal.
func (s *Stream) Publish(frame any) {
	if s == nil {
		return
	}
	enc, err := json.Marshal(frame)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.replay) >= maxReplay {
		s.replay = s.replay[1:]
	}
	s.replay = append(s.replay, enc)
	for id, ch := range s.subs {
		select {
		case ch <- enc:
		default: // slow consumer: shed it
			close(ch)
			delete(s.subs, id)
		}
	}
}

// Subscribe returns the replay prefix, a channel of subsequent
// frames, and a cancel function. The replay snapshot and the
// subscription are atomic: every published frame lands in exactly one
// of the two. The channel is closed when the stream closes or the
// subscriber falls too far behind; cancel is idempotent and safe
// after close. Nil streams return an empty replay and a closed
// channel.
func (s *Stream) Subscribe() (replay [][]byte, live <-chan []byte, cancel func()) {
	if s == nil {
		ch := make(chan []byte)
		close(ch)
		return nil, ch, func() {}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	replay = append([][]byte(nil), s.replay...)
	ch := make(chan []byte, subBuffer)
	if s.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	return replay, ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			close(c)
			delete(s.subs, id)
		}
	}
}

// Close marks the stream terminal: live channels close, later
// subscribers get replay-only. Idempotent; nil-safe.
func (s *Stream) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, ch := range s.subs {
		close(ch)
		delete(s.subs, id)
	}
}

// ServeSSE streams the broker over Server-Sent Events: the replay
// prefix first, then live frames as they are published, each as one
// `data: <json>` event, until the stream closes or the client goes
// away. The handler flushes after every frame so a tailing client
// sees probes in real time.
func ServeSSE(w http.ResponseWriter, r *http.Request, s *Stream) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := s.Subscribe()
	defer cancel()
	for _, frame := range replay {
		if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
			return
		}
	}
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case frame, ok := <-live:
			if !ok {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", frame); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}
