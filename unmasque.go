// Package unmasque is the public API of the UNMASQUE reproduction —
// an active-learning extractor that unmasks the SQL query hidden
// inside a black-box application ("Shedding Light on Opaque
// Application Queries", SIGMOD 2021).
//
// The package re-exports the embedded relational engine (sqldb), the
// opaque-application abstractions (app), the SQL dialect parser, and
// the extraction pipeline (core), so downstream users interact with a
// single import:
//
//	db := unmasque.NewDatabase()
//	// … create tables, load data …
//	exe := unmasque.MustSQLExecutable("legacy-app", hiddenSQL)
//	ext, err := unmasque.Extract(exe, db, unmasque.DefaultConfig())
//	fmt.Println(ext.SQL)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured evaluation record.
package unmasque

import (
	"context"
	"io"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/regal"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

// Engine types.
type (
	// Database is the embedded in-memory relational engine instance.
	Database = sqldb.Database
	// TableSchema defines one table.
	TableSchema = sqldb.TableSchema
	// Column defines one column, including domain metadata used by
	// extraction probing.
	Column = sqldb.Column
	// ForeignKey declares a key linkage (an edge of the schema graph).
	ForeignKey = sqldb.ForeignKey
	// Value is a single SQL value.
	Value = sqldb.Value
	// Row is one tuple.
	Row = sqldb.Row
	// Result is the output of a query or application execution.
	Result = sqldb.Result
	// SelectStmt is a parsed single-block query.
	SelectStmt = sqldb.SelectStmt
)

// Application types.
type (
	// Executable is the black-box application contract: run against a
	// database, observe the result.
	Executable = app.Executable
	// SQLExecutable hides an obfuscated SQL query.
	SQLExecutable = app.SQLExecutable
	// ImperativeExecutable wraps imperative application code.
	ImperativeExecutable = app.ImperativeExecutable
	// ImperativeFunc is the hidden imperative routine signature.
	ImperativeFunc = app.ImperativeFunc
)

// Extraction types.
type (
	// Config tunes the extraction pipeline.
	Config = core.Config
	// Extraction is the pipeline output: the unmasked query plus all
	// intermediate artifacts and per-module statistics.
	Extraction = core.Extraction
	// Stats is the per-module timing profile.
	Stats = core.Stats
	// FilterPredicate is one extracted filter.
	FilterPredicate = core.FilterPredicate
	// HavingPredicate is one extracted having constraint.
	HavingPredicate = core.HavingPredicate
	// Projection describes one extracted output column.
	Projection = core.Projection
)

// Value type tags.
const (
	TInt   = sqldb.TInt
	TFloat = sqldb.TFloat
	TText  = sqldb.TText
	TDate  = sqldb.TDate
	TBool  = sqldb.TBool
)

// NewDatabase creates an empty database.
func NewDatabase() *Database { return sqldb.NewDatabase() }

// Value constructors.
var (
	NewInt   = sqldb.NewInt
	NewFloat = sqldb.NewFloat
	NewText  = sqldb.NewText
	NewBool  = sqldb.NewBool
	NewDate  = sqldb.NewDate
	MustDate = sqldb.MustDate
	NewNull  = sqldb.NewNull
)

// NewSQLExecutable builds an application hiding the given SQL query
// in obfuscated form; the query is validated eagerly.
func NewSQLExecutable(name, sql string) (*SQLExecutable, error) {
	return app.NewSQLExecutable(name, sql)
}

// MustSQLExecutable is NewSQLExecutable for statically known queries.
func MustSQLExecutable(name, sql string) *SQLExecutable {
	return app.MustSQLExecutable(name, sql)
}

// NewImperativeExecutable wraps imperative application code;
// groundTruthSQL may be empty.
func NewImperativeExecutable(name string, fn ImperativeFunc, groundTruthSQL string) *ImperativeExecutable {
	return app.NewImperativeExecutable(name, fn, groundTruthSQL)
}

// DefaultConfig returns the paper-faithful pipeline parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// Extract runs the UNMASQUE pipeline: given a black-box executable
// and a database instance on which it produces a populated result, it
// recovers the hidden query.
func Extract(exe Executable, di *Database, cfg Config) (*Extraction, error) {
	return core.Extract(exe, di, cfg)
}

// ExtractContext is Extract under a caller-supplied context: when ctx
// is cancelled or its deadline expires, the pipeline aborts between
// probes and returns an error satisfying errors.Is against ctx.Err().
func ExtractContext(ctx context.Context, exe Executable, di *Database, cfg Config) (*Extraction, error) {
	return core.ExtractContext(ctx, exe, di, cfg)
}

// Parse parses a SQL statement in the supported dialect.
func Parse(sql string) (*SelectStmt, error) { return sqlparser.Parse(sql) }

// WriteResultCSV dumps a query/application result as CSV. Database
// CSV import/export is available as methods on Database (LoadCSV,
// WriteCSV).
var WriteResultCSV = sqldb.WriteResultCSV

// MustParse parses or panics; for statically known queries.
func MustParse(sql string) *SelectStmt { return sqlparser.MustParse(sql) }

// Observability types. Wire a Tracer and a Ledger into Config.Tracer
// and Config.Ledger to trace an extraction; a Metrics registry is a
// view of them, filled by Metrics.RecordProbe from a ledger sink
// (Ledger.SetSink) and by Metrics.RecordPhases on Extraction.Trace.
type (
	// Tracer records the extraction's span tree; the finished tree is
	// returned on Extraction.Trace.
	Tracer = obs.Tracer
	// Ledger records one event per executable invocation or cache hit.
	Ledger = obs.Ledger
	// Metrics is the counters/gauges/histograms registry, rendered as
	// Prometheus text.
	Metrics = obs.Metrics
	// SpanEvent is one flattened span of an exported trace.
	SpanEvent = obs.SpanEvent
	// ProbeEvent is one probe-ledger record.
	ProbeEvent = obs.ProbeEvent
	// RunHeader is the first line of a serialized trace.
	RunHeader = obs.RunHeader
	// TraceSummary is the tally returned by ValidateTrace.
	TraceSummary = obs.TraceSummary
)

// NewTracer creates a span tracer rooted at a span with the given name.
func NewTracer(name string) *Tracer { return obs.NewTracer(name) }

// NewLedger creates an empty probe ledger.
func NewLedger() *Ledger { return obs.NewLedger() }

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// WriteTrace serializes a recorded extraction — run header, span tree,
// canonically ordered probe ledger — as JSONL.
func WriteTrace(w io.Writer, h RunHeader, spans []SpanEvent, l *Ledger) error {
	return obs.WriteTrace(w, h, spans, l)
}

// ValidateTrace schema-checks a serialized trace and tallies it.
func ValidateTrace(r io.Reader) (*TraceSummary, error) { return obs.Validate(r) }

// QRE baseline (the paper's comparison system).
type (
	// RegalConfig caps the REGAL-style reverse-engineering search.
	RegalConfig = regal.Config
	// RegalOutput is the baseline's outcome.
	RegalOutput = regal.Output
)

// RegalReverseEngineer runs the REGAL-style QRE baseline: find a
// candidate query that is instance-equivalent to the given result on
// the given database.
func RegalReverseEngineer(db *Database, res *Result, cfg RegalConfig) *RegalOutput {
	return regal.ReverseEngineer(db, res, cfg)
}

// DefaultRegalConfig mirrors a generously provisioned REGAL run.
func DefaultRegalConfig() RegalConfig { return regal.DefaultConfig() }
