package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"unmasque/internal/obs/telemetry"
)

// Server is the HTTP/JSON face of the Manager.
//
//	GET  /healthz          liveness + drain state + jobs-by-state tally
//	GET  /metrics          the metrics registry as Prometheus text
//	                       exposition (0.0.4)
//	GET  /jobs             all jobs, submission order
//	POST /jobs             submit a JobSpec, 202 {"id": n, ...}
//	GET  /jobs/{id}        status snapshot
//	GET  /jobs/{id}/result terminal outcome (409 until terminal)
//	GET  /jobs/{id}/trace  JSONL trace download (run header, spans, ledger)
//	GET  /jobs/{id}/trace/stream  live SSE telemetry (replay + follow)
//	POST /jobs/{id}/cancel request cancellation
//
// Admission errors map onto status codes: ErrQueueFull → 429,
// ErrDraining → 503, ErrUnknownJob → 404, ErrNotFinished → 409,
// ErrTerminal → 409, spec validation → 400.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the Manager's routes into a fresh mux.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /jobs/{id}/trace/stream", s.handleTraceStream)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := s.mgr.Counts()
	byState := map[string]int{}
	for st, n := range counts {
		byState[string(st)] = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"draining":    s.mgr.Draining(),
		"queue_depth": s.mgr.QueueDepth(),
		"jobs":        byState,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Render to a buffer first so an encoding error (conflicting
	// family types) can still answer with a clean 500.
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, s.mgr.metrics); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.mgr.Submit(r.Context(), spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	v, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	res, err := s.mgr.Result(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	// Probe the job first so errors surface before the body starts.
	if _, err := s.mgr.Get(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.mgr.WriteTrace(id, w); err != nil {
		// Headers may already be out for a mid-stream failure; for the
		// not-finished / unknown cases nothing has been written yet.
		writeError(w, statusFor(err), err)
	}
}

func (s *Server) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, err := s.mgr.TraceStream(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	telemetry.ServeSSE(w, r, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	v, err := s.mgr.Cancel(r.Context(), id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// jobID parses the {id} path value; on failure it writes the 400
// itself and reports ok=false.
func jobID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: bad job id"))
		return 0, false
	}
	return id, true
}

// statusFor maps manager errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished), errors.Is(err, ErrTerminal):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
