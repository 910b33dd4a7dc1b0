// Package app models the opaque application executable E of the
// paper. An Executable exposes exactly the black-box contract the
// extractor is allowed to rely on: run it against a database and
// observe the result rows, an error, or a timeout — nothing else.
//
// Two concrete kinds are provided, mirroring the paper's evaluation:
//
//   - SQLExecutable holds an obfuscated (XOR-scrambled) SQL byte
//     string, standing in for the encrypted stored procedures /
//     compiled C++ binaries of Section 6.2. The query text is
//     deliberately unreadable at rest and is only decoded inside Run.
//   - ImperativeExecutable wraps a hand-written imperative function
//     (loops, manual joins, in-process sorting) like the Enki, Wilos
//     and RUBiS code of Section 6.3.
package app

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

// Executable is the black-box application E.
//
// Concurrency contract: the extractor's probe scheduler may call Run
// from multiple goroutines at once, each invocation with its own
// database instance. Implementations must therefore be safe for
// concurrent use as long as every call receives a distinct db; they
// may read the database they are handed but must not retain or share
// mutable state across calls without synchronization. Both
// SQLExecutable and ImperativeExecutable satisfy this: the former
// keeps only immutable state (the obfuscated query blob) plus an
// atomic run counter, the latter requires its ImperativeFunc to be a
// pure function of (ctx, db). An executable that cannot meet the
// contract must be wrapped with Serialized (or report itself unsafe
// via ConcurrencyReporter) before being handed to the extractor.
type Executable interface {
	// Name identifies the application (for reports and tests).
	Name() string
	// Run executes the hidden logic against db and returns its
	// result. Implementations must observe ctx cancellation and be
	// safe for concurrent calls with distinct databases (see the
	// interface comment).
	Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error)
}

// ConcurrencyReporter is optionally implemented by executables to
// declare whether concurrent Run calls are safe. The extractor checks
// it before fanning probes out over its worker pool: an executable
// reporting false is automatically wrapped in Serialized, so its
// probes still succeed — one at a time — with no extraction-visible
// difference. Executables not implementing the interface are assumed
// safe, per the Executable contract.
type ConcurrencyReporter interface {
	// ConcurrentRunSafe reports whether Run may be invoked from
	// multiple goroutines simultaneously.
	ConcurrentRunSafe() bool
}

// Serialized wraps an executable whose Run is not safe for concurrent
// use, forcing mutual exclusion. The extractor applies it
// automatically to executables whose ConcurrencyReporter returns
// false; applications embedding legacy global state can also wrap
// themselves explicitly.
type Serialized struct {
	mu    sync.Mutex
	Inner Executable
}

// Name implements Executable.
func (e *Serialized) Name() string { return e.Inner.Name() }

// Run implements Executable, admitting one caller at a time.
func (e *Serialized) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Inner.Run(ctx, db)
}

// ConcurrentRunSafe implements ConcurrencyReporter: the wrapper makes
// any executable safe.
func (e *Serialized) ConcurrentRunSafe() bool { return true }

// ErrTimeout is returned by RunCtx/RunWithTimeout when the executable
// did not finish within the probe deadline.
var ErrTimeout = errors.New("application execution timed out")

// RunCtx executes e under both the caller's context and a per-run
// deadline. The two expirations are reported differently: the probe
// deadline firing yields ErrTimeout (a legitimate observation — the
// from-clause probe relies on it), while cancellation or deadline
// expiry of the parent ctx yields that context's error, so callers can
// tell an aborted extraction job from a slow probe.
func RunCtx(ctx context.Context, e Executable, db *sqldb.Database, timeout time.Duration) (*sqldb.Result, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := e.Run(rctx, db)
	if err != nil && rctx.Err() != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, ErrTimeout
	}
	return res, err
}

// RunWithTimeout executes e with a deadline. The from-clause probe
// uses a short timeout: a missing table produces an immediate error,
// while an unaffected application keeps running and is cut off.
func RunWithTimeout(e Executable, db *sqldb.Database, timeout time.Duration) (*sqldb.Result, error) {
	return RunCtx(context.Background(), e, db, timeout)
}

// obfuscationKey scrambles embedded SQL at rest. The point is not
// cryptographic strength — it is that the query text cannot be found
// by string-scanning the binary or the process image, which is the
// scenario (SQL Shield-style protection) motivating HQE.
var obfuscationKey = []byte("unmasque-hqe-sigmod21")

// Obfuscate scrambles SQL text into an opaque byte string.
func Obfuscate(sql string) []byte {
	out := make([]byte, len(sql))
	for i := 0; i < len(sql); i++ {
		k := obfuscationKey[i%len(obfuscationKey)]
		out[i] = sql[i] ^ k ^ byte(i*131)
	}
	return out
}

// Deobfuscate reverses Obfuscate.
func Deobfuscate(blob []byte) string {
	out := make([]byte, len(blob))
	for i := 0; i < len(blob); i++ {
		k := obfuscationKey[i%len(obfuscationKey)]
		out[i] = blob[i] ^ k ^ byte(i*131)
	}
	return string(out)
}

// SQLExecutable is an application embedding a single hidden SQL
// query in obfuscated form.
type SQLExecutable struct {
	name  string
	blob  []byte
	runs  atomic.Int64
	delay time.Duration
}

// NewSQLExecutable builds an executable hiding the given query. The
// query is validated eagerly (a malformed hidden query is a
// programming error in the workload definition, not an extraction
// scenario).
func NewSQLExecutable(name, sql string) (*SQLExecutable, error) {
	if _, err := sqlparser.Parse(sql); err != nil {
		return nil, err
	}
	return &SQLExecutable{name: name, blob: Obfuscate(sql)}, nil
}

// MustSQLExecutable builds an executable or panics; for statically
// known workload queries. Library code uses NewSQLExecutable and
// propagates the error (lint rule GL001 exempts only Must*-named
// wrappers).
func MustSQLExecutable(name, sql string) *SQLExecutable {
	e, err := NewSQLExecutable(name, sql)
	if err != nil {
		panic(fmt.Sprintf("app: MustSQLExecutable(%q): %v", name, err))
	}
	return e
}

// Name implements Executable.
func (e *SQLExecutable) Name() string { return e.name }

// Run decodes, parses and executes the hidden query.
func (e *SQLExecutable) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	e.runs.Add(1)
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	stmt, err := sqlparser.Parse(Deobfuscate(e.blob))
	if err != nil {
		return nil, err
	}
	return db.Execute(ctx, stmt)
}

// Invocations reports how many times the application has been run —
// the E-invocation count of Section 6.2's efficiency discussion.
func (e *SQLExecutable) Invocations() int64 { return e.runs.Load() }

// SetStartupDelay adds a fixed per-run delay, simulating application
// startup cost.
func (e *SQLExecutable) SetStartupDelay(d time.Duration) { e.delay = d }

// ImperativeFunc is the signature of a hidden imperative routine.
type ImperativeFunc func(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error)

// ImperativeExecutable wraps imperative application code, optionally
// carrying the equivalent SQL as ground truth for verification.
type ImperativeExecutable struct {
	name      string
	fn        ImperativeFunc
	groundSQL string
	runs      atomic.Int64
}

// NewImperativeExecutable builds an imperative application.
// groundTruthSQL may be empty when no reference query is known.
func NewImperativeExecutable(name string, fn ImperativeFunc, groundTruthSQL string) *ImperativeExecutable {
	return &ImperativeExecutable{name: name, fn: fn, groundSQL: groundTruthSQL}
}

// Name implements Executable.
func (e *ImperativeExecutable) Name() string { return e.name }

// Run implements Executable.
func (e *ImperativeExecutable) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	e.runs.Add(1)
	return e.fn(ctx, db)
}

// Invocations reports the number of runs.
func (e *ImperativeExecutable) Invocations() int64 { return e.runs.Load() }

// GroundTruthSQL returns the reference query (may be empty). Tests
// only.
func (e *ImperativeExecutable) GroundTruthSQL() string { return e.groundSQL }

// CountingExecutable wraps any executable and counts invocations;
// the extractor statistics use it for third-party executables.
type CountingExecutable struct {
	Inner Executable
	runs  atomic.Int64
}

// Name implements Executable.
func (e *CountingExecutable) Name() string { return e.Inner.Name() }

// Run implements Executable.
func (e *CountingExecutable) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	e.runs.Add(1)
	return e.Inner.Run(ctx, db)
}

// Invocations reports the number of runs through this wrapper.
func (e *CountingExecutable) Invocations() int64 { return e.runs.Load() }
