// Package storage is the durable tier of the extraction pipeline: a
// fingerprint-keyed probe cache shared across extraction jobs and
// daemon restarts.
//
// The in-memory run memoizer (internal/core) loses every recorded
// application execution when a job ends. The probe cache
// (probecache.go) persists completed executions keyed by (namespace,
// sqldb.Fingerprint): result columns, rows and deterministic
// application errors survive restarts and are shared across jobs and
// tenants, so two jobs extracting from the same executable pay for
// its probes once. Rows are encoded bit-exactly (codec.go), so a
// replayed result digests exactly like the original. Records are
// CRC-framed in one append-only log; a crash mid-append is recovered
// by truncating the torn tail (tail.go), the same helper the service
// tier's JSONL job store uses.
//
// Formats and the recovery protocol are documented in DESIGN.md §13.
package storage

import "errors"

// ErrTornRecord marks a partially written record at the tail of an
// append-only file — the expected residue of a crash mid-append.
// RecoverTail converts it into a truncation, not a failure.
var ErrTornRecord = errors.New("storage: torn record")
