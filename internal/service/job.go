package service

import (
	"context"
	"time"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/obs/telemetry"
)

// State is the lifecycle position of a job. Transitions are strictly
// queued → running → done|failed|cancelled (a queued job may also go
// straight to cancelled).
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one extraction job owned by the Manager. All mutable fields
// are guarded by the Manager's lock; workers and HTTP handlers read
// them only through snapshot methods on the Manager.
type Job struct {
	id   int64
	spec JobSpec

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time

	// cancel aborts the job's extraction context. Non-nil only while
	// running; cancelling a queued job just flips its state.
	cancel context.CancelFunc
	// cancelRequested distinguishes "extraction failed because the
	// client cancelled" from organic pipeline failures when the
	// context error surfaces.
	cancelRequested bool

	// Extraction outcome.
	sql     string
	summary string
	errMsg  string
	stats   core.Stats

	// Per-job observability: the probe ledger attached to the
	// extraction and the span tree exported at its end, from which the
	// trace endpoint serves its JSONL download.
	ledger *obs.Ledger
	trace  []obs.SpanEvent

	// stream fans the job's live telemetry (run header, span frames,
	// probe events, lifecycle transitions) out to SSE subscribers. It
	// is created at admission, closed on the terminal transition, and
	// nil only for jobs replayed from a previous daemon instance.
	stream *telemetry.Stream
}

// View is the JSON snapshot of a job served by the status and list
// endpoints.
type View struct {
	ID        int64  `json:"id"`
	Name      string `json:"name"`
	State     State  `json:"state"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Result is the JSON outcome of a terminal job served by the result
// endpoint. The probe accounting fields restate the per-job ledger
// invariant: LedgerEvents == AppInvocations + CacheHits +
// DiskCacheHits. DiskCacheHits counts probes served by the daemon's
// durable cross-job cache (never omitted so clients can assert on it:
// a warm repeat of an identical job reports app_invocations == 0 and
// disk_cache_hits > 0).
type Result struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	State   State  `json:"state"`
	SQL     string `json:"sql,omitempty"`
	Summary string `json:"summary,omitempty"`
	Error   string `json:"error,omitempty"`

	TotalMS        int64 `json:"total_ms"`
	AppInvocations int64 `json:"app_invocations"`
	CacheHits      int64 `json:"cache_hits"`
	DiskCacheHits  int64 `json:"disk_cache_hits"`
	LedgerEvents   int64 `json:"ledger_events"`
	Workers        int   `json:"workers,omitempty"`

	// Execution-engine accounting (core.Stats deltas for this job's
	// extraction): join-reuse and batch counters.
	JoinBuildsReused int64 `json:"join_builds_reused,omitempty"`
	VectorBatches    int64 `json:"vector_batches,omitempty"`
}

// view renders the job snapshot; the caller holds the Manager lock.
func (j *Job) view() View {
	v := View{
		ID:        j.id,
		Name:      j.spec.DisplayName(),
		State:     j.state,
		Submitted: stamp(j.submitted),
		Started:   stamp(j.started),
		Finished:  stamp(j.finished),
		Error:     j.errMsg,
	}
	return v
}

// result renders the terminal outcome; the caller holds the Manager
// lock and has checked the state is terminal.
func (j *Job) result() Result {
	return Result{
		ID:             j.id,
		Name:           j.spec.DisplayName(),
		State:          j.state,
		SQL:            j.sql,
		Summary:        j.summary,
		Error:          j.errMsg,
		TotalMS:        j.stats.Total.Milliseconds(),
		AppInvocations: j.stats.AppInvocations,
		CacheHits:      j.stats.CacheHits,
		DiskCacheHits:  j.stats.DiskCacheHits,
		LedgerEvents:   int64(j.ledger.Len()),
		Workers:        j.stats.Workers,

		JoinBuildsReused: j.stats.JoinBuildsReused,
		VectorBatches:    j.stats.VectorBatches,
	}
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
