// Package obs is the extraction pipeline's observability layer: a
// span tracer, a probe ledger and a metrics registry, built on the
// standard library only (crypto-free, no OpenTelemetry).
//
// The extractor's correctness story is entirely behavioural — it
// mutates database instances, reruns the hidden executable and folds
// the observations — so debugging a wrong or failed extraction means
// knowing exactly *which probe ran, on what data, and what came
// back*. The three sub-systems answer that at different grains:
//
//   - The Tracer (tracer.go) records a span tree: one span per
//     pipeline phase, one span per scheduled probe, with attributes
//     and error outcomes. Child ordering is deterministic for every
//     worker count: spans carry an explicit sequence index (the probe
//     fan-out index) and are sorted by it when the tree is exported.
//   - The Ledger (ledger.go) records one ProbeEvent per executable
//     invocation or memoization-cache hit: probe kind, the
//     sqldb.Fingerprint of the input database, the result digest and
//     row count, cache outcome, duration and worker id. Written as
//     JSONL in a canonical order, the ledger of an extraction is
//     byte-identical across worker counts once the volatile fields
//     (timings, worker and scheduling indices) are stripped.
//   - The Metrics registry (metrics.go) keeps counters, gauges and
//     latency histograms. The pipeline never writes it: its probe and
//     phase metrics are a view of the ledger and the span tree, folded
//     in by the caller (RecordProbe from a ledger sink, RecordPhases
//     on the span export). Its one rendering is the Prometheus text
//     exposition of internal/obs/telemetry.
//
// All record-side entry points are nil-receiver safe, so the pipeline
// instruments unconditionally and pays nothing when observability is
// not requested.
//
// The JSONL trace format (schema in DESIGN.md §8) interleaves three
// event types, discriminated by the "type" field: "run" (one header
// line), "span" and "probe". validate.go checks a trace file against
// the schema.
package obs

import (
	"bytes"
	"encoding/json"
)

// Event types (the "type" field of every JSONL trace line).
const (
	TypeRun   = "run"
	TypeSpan  = "span"
	TypeProbe = "probe"
	// TypeJob appears only in live trace streams (never in trace
	// files): a job lifecycle transition, emitted by the service tier.
	// A terminal job frame is the stream's closing frame.
	TypeJob = "job"
)

// Probe kinds.
const (
	// KindExec is a regular execution of E against a probe database
	// (everything except from-clause table probing).
	KindExec = "exec"
	// KindRename is a from-clause rename probe: E runs against the
	// full instance with a set of tables renamed, under the probe
	// timeout.
	KindRename = "rename"
)

// Cache outcomes of one probe.
const (
	// CacheHit: the probe database's fingerprint matched a completed
	// execution; E was not run.
	CacheHit = "hit"
	// CacheMiss: no prior execution; E ran and the outcome was
	// recorded (timeouts excepted).
	CacheMiss = "miss"
	// CacheBypass: no attached memoization tier admits the probe (the
	// instance is too large, or it is a from-clause rename probe and no
	// durable tier is attached), so E ran without fingerprinting.
	CacheBypass = "bypass"
	// CacheDisk: the fingerprint matched an execution persisted in the
	// durable cross-job probe cache (internal/storage); E was not run.
	CacheDisk = "disk"
)

// RunHeader is the first line of a trace file: which application was
// probed and under what scheduling configuration.
type RunHeader struct {
	Type    string `json:"type"` // "run"
	App     string `json:"app"`
	Workers int    `json:"workers,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

// JobEvent is one job lifecycle frame of a live trace stream: the
// job's id and its new state ("queued", "running", "done", "failed",
// "cancelled"). It never appears in trace files — Validate rejects
// it; ValidateStream requires a terminal one to close the stream.
type JobEvent struct {
	Type  string `json:"type"` // "job"
	ID    int64  `json:"id,omitempty"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// SpanEvent is one flattened span of the trace tree. IDs are assigned
// pre-order over the seq-sorted tree, so they are deterministic for a
// given extraction; the root's parent is 0.
type SpanEvent struct {
	Type   string            `json:"type"` // "span"
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Seq    int               `json:"seq"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Err    string            `json:"err,omitempty"`

	// Volatile fields: wall-clock offsets, stripped by Canonical.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Open marks a span that had not ended when the tree was
	// exported (an aborted extraction); volatile only in the sense
	// that a failed run may produce it.
	Open bool `json:"open,omitempty"`
}

// ProbeEvent is one ledger record: a single executable invocation or
// cache hit.
type ProbeEvent struct {
	Type string `json:"type"` // "probe"
	// Phase is the pipeline phase the probe belongs to; PhaseSeq its
	// position in the pipeline (phases run sequentially, so both are
	// deterministic).
	Phase    string `json:"phase"`
	PhaseSeq int    `json:"phase_seq"`
	// Kind is KindExec or KindRename.
	Kind string `json:"kind"`
	// Table names the tables a KindRename probe renamed, joined by
	// commas in schema order: the from-clause probes sets of tables
	// (group testing), so one event may name one table or all of them.
	Table string `json:"table,omitempty"`
	// FP is the hex sqldb.Fingerprint of the input database; empty
	// when the probe bypassed fingerprinting (CacheBypass).
	FP string `json:"fp,omitempty"`
	// Cache is the memoization outcome (CacheHit, CacheDisk,
	// CacheMiss, CacheBypass).
	Cache string `json:"cache"`
	// Digest is the hex sqldb result digest and Rows the result row
	// count; both absent when the invocation returned an error.
	Digest string `json:"digest,omitempty"`
	Rows   int    `json:"rows"`
	// Err is the error string of a failed invocation. From-clause
	// probes legitimately record missing-table and timeout errors —
	// those outcomes ARE the observation.
	Err string `json:"err,omitempty"`

	// Volatile fields, stripped by Canonical: scheduling artifacts
	// (which pool worker ran the probe, the fan-out index, arrival
	// order) and timings. Everything above is a deterministic
	// function of the workload and configuration; everything below
	// may legally differ between two runs of the same extraction.
	Worker int   `json:"worker"`
	Probe  int   `json:"probe"`
	Seq    int64 `json:"seq"`
	TSUS   int64 `json:"ts_us"`
	DurUS  int64 `json:"dur_us"`
}

// Canonical returns the event with every volatile field zeroed — the
// stability boundary of the ledger's byte-identity guarantee.
func (e ProbeEvent) Canonical() ProbeEvent {
	e.Worker = 0
	e.Probe = 0
	e.Seq = 0
	e.TSUS = 0
	e.DurUS = 0
	return e
}

// Canonical returns the span event with volatile timings zeroed.
func (e SpanEvent) Canonical() SpanEvent {
	e.StartUS = 0
	e.DurUS = 0
	return e
}

// StripVolatile rewrites a JSONL trace so that only stable fields
// remain populated: timings, worker ids and scheduling indices are
// zeroed on every line. Two traces of the same extraction — any
// worker count, any machine — strip to identical bytes. Lines are
// read as Decode reads them (run Validate first for a full schema
// check).
func StripVolatile(data []byte) ([]byte, error) {
	var out bytes.Buffer
	err := Decode(bytes.NewReader(data), func(f Frame) error {
		var canon any
		switch f.Type {
		case TypeRun:
			f.Run.Workers = 0 // scheduling configuration, not workload content
			canon = f.Run
		case TypeSpan:
			canon = f.Span.Canonical()
		case TypeProbe:
			canon = f.Probe.Canonical()
		}
		enc, err := json.Marshal(canon)
		if err != nil {
			return err
		}
		out.Write(enc)
		out.WriteByte('\n')
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
