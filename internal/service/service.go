// Package service turns the UNMASQUE library into a long-running
// extraction server: the serving tier the paper's deployment story
// implies (a platform vendor running hidden-query extraction over
// fleets of opaque client applications) on top of the concurrent
// pipeline in internal/core.
//
// The subsystem has four parts:
//
//   - The job Manager (manager.go): a bounded worker pool over
//     extraction jobs with admission control — a fixed-depth queue
//     that rejects submissions when full (HTTP 429) — per-job states
//     queued → running → done|failed|cancelled, monotonic job IDs,
//     end-to-end cancellation (each job runs under its own context,
//     threaded through core.ExtractContext), and graceful drain.
//   - The durable job Store (store.go): an append-only JSONL record
//     stream (job spec, every state transition, extracted SQL, error,
//     stats) from which a restarted daemon recovers its job history;
//     jobs that were queued or running at crash time are re-queued. A
//     torn tail — a record half-written when the process died — is
//     detected and discarded on open.
//   - The HTTP/JSON API (http.go): submit (a registered workload
//     application or an inline schema+rows+hidden-SQL spec), status,
//     result, per-job trace download (the internal/obs JSONL format),
//     list, cancel, /healthz and /metrics.
//   - Observability (wired throughout): every job records its own
//     span tree and obs.Ledger — downloadable once the job is
//     terminal — and the Manager keeps service-level metrics (queue
//     depth, jobs by state, the job latency histogram) in an
//     internal/obs registry, which /metrics serves as Prometheus
//     text.
//
// cmd/unmasqued is the daemon binary; see DESIGN.md §9 for the state
// machine, API schema and durability format.
package service

import "errors"

// Admission errors. The HTTP layer maps them onto status codes
// (ErrQueueFull → 429, ErrDraining → 503, ErrUnknownJob → 404,
// ErrNotFinished → 409).
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity — the backpressure signal.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission while the manager is shutting
	// down.
	ErrDraining = errors.New("service: manager is draining")
	// ErrUnknownJob reports a job ID that does not exist.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished reports a result/trace request for a job that has
	// not reached a terminal state.
	ErrNotFinished = errors.New("service: job not finished")
	// ErrTerminal reports a cancel request for a job already in a
	// terminal state.
	ErrTerminal = errors.New("service: job already terminal")
)
