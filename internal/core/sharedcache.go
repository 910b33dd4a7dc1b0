package core

import "unmasque/internal/sqldb"

// ProbeCache is the persistent, cross-job tier of the run-memoization
// cache (Config.SharedCache). The concrete implementation lives in
// internal/storage (a durable append-only log shared by every job of
// a daemon, scoped per executable namespace); core depends only on
// this interface so the pipeline packages stay free of file I/O.
//
// Contract:
//
//   - Get returns the recorded outcome of executing E on a database
//     with fingerprint fp, or ok=false. A returned result is private
//     to the caller: the caller may mutate it, and the next Get is
//     unchanged (internal/storage decodes a fresh result per call).
//   - Put records an outcome. It must be idempotent — outcomes are
//     deterministic functions of (E, database content), so concurrent
//     or repeated puts of one fingerprint carry equal payloads; the
//     first put wins. Put may decline an outcome its storage cannot
//     represent; the next Get of that fingerprint then misses, and
//     the probe runs E again. Declining never affects later puts.
//   - The scheduler never passes timeouts or context cancellations to
//     Put; deterministic application-level errors ARE stored, exactly
//     as the in-memory tier caches them.
//   - Implementations must be safe for concurrent use by all workers
//     of all concurrently running jobs.
type ProbeCache interface {
	Get(fp sqldb.Fingerprint) (res *sqldb.Result, err error, ok bool)
	Put(fp sqldb.Fingerprint, res *sqldb.Result, err error)
}
