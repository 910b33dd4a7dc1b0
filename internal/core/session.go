package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"unmasque/internal/analysis/eqcverify"
	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// Session carries the state of one extraction run. It is created by
// Extract and threaded through the pipeline modules. The pipeline
// itself advances sequentially, but individual modules fan
// independent probes out over the scheduler's worker pool
// (scheduler.go); during such a fan-out the Session fields the
// workers read are frozen, every worker operates on its own database
// clone, and the only shared mutable state — the run cache and the
// probe counters — is internally synchronized.
type Session struct {
	cfg Config
	exe *app.CountingExecutable
	rng *rand.Rand

	// ctx is the extraction's lifetime: cancellation or deadline
	// expiry aborts the pipeline between probes (and propagates into
	// in-flight executable runs through app.RunCtx). Never nil;
	// Extract installs context.Background().
	ctx context.Context

	// cache memoizes completed executions of E by database
	// fingerprint.
	cache *runCache
	// shared is the durable cross-job tier (Config.SharedCache); nil
	// when absent.
	shared ProbeCache
	// parallelProbes counts probes dispatched through the worker pool.
	parallelProbes atomic.Int64

	// Observability hooks (Config.Tracer/Ledger; both may be nil — the
	// record sites are nil-safe). phaseName/phaseSeq/phaseSpan identify
	// the pipeline phase currently executing and phaseProbes numbers
	// its fan-out probes; they are written only by the main goroutine
	// between fan-outs, so pool workers read them race-free
	// (happens-before via goroutine creation).
	tracer      *obs.Tracer
	ledger      *obs.Ledger
	phaseName   string
	phaseSeq    int
	phaseSpan   *obs.Span
	phaseProbes int

	// source is the provided D_I; it is only read (from-clause probes
	// rename tables of their own shared-row clones).
	source *sqldb.Database
	// silo is the working database. Until the minimizer's halving ends
	// its rows are D_I's own Row values (sqldb.CloneTables), so only
	// row sets may change; after minimization it is a private D_1.
	silo *sqldb.Database

	stats Stats

	// Pipeline artifacts, in extraction order.
	tables      []string
	schemas     map[string]sqldb.TableSchema
	joinEdges   []sqldb.SchemaEdge
	components  []joinComponent
	compOf      map[sqldb.ColRef]int
	filters     map[sqldb.ColRef]FilterPredicate
	filterOrder []sqldb.ColRef
	// filtersKnown flips once the filter module has run; before that
	// (having-mode group-by) synthetic instances must source values
	// from D_1 rather than the s-value generator.
	filtersKnown bool
	projections  []Projection
	groupBy      []sqldb.ColRef
	groupBySet   map[sqldb.ColRef]bool
	ungroupedAgg bool
	orderBy      []OrderItem
	limit        int64
	having       []HavingPredicate

	// pinned is scratch state for aggregation probes: probe-time
	// values of non-varied function arguments.
	pinned map[sqldb.ColRef]sqldb.Value

	// baseline is E(D_1), used as the reference by the mutation
	// modules.
	baseline *sqldb.Result
}

// joinComponent is one clique of join-equal columns (a connected
// component of the extracted join graph).
type joinComponent struct {
	cols []sqldb.ColRef // sorted
}

// tablesOf lists the tables touched by the component.
func (c joinComponent) tablesOf() map[string]bool {
	out := map[string]bool{}
	for _, col := range c.cols {
		out[col.Table] = true
	}
	return out
}

// Extract runs the full UNMASQUE pipeline against the black-box
// executable exe on database instance di, which must yield a
// populated result. On success the returned Extraction carries the
// assembled query and per-module statistics.
func Extract(exe app.Executable, di *sqldb.Database, cfg Config) (*Extraction, error) {
	return ExtractContext(context.Background(), exe, di, cfg)
}

// ExtractContext is Extract under a caller-supplied context: when ctx
// is cancelled or its deadline expires, the pipeline aborts between
// probes (in-flight executable runs are interrupted too) and the
// error — wrapped in an ExtractionError naming the phase it surfaced
// in — satisfies errors.Is against ctx.Err(). This is the entry point
// of long-running callers (the extraction service, tests with
// deadlines); Extract remains the thin background-context wrapper.
func ExtractContext(ctx context.Context, exe app.Executable, di *sqldb.Database, cfg Config) (*Extraction, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, moduleErr("config", err)
	}
	// Executables that declare concurrent Run unsafe are serialized
	// before the probe scheduler can fan them out; their probes then
	// run one at a time with no extraction-visible difference.
	if rep, ok := exe.(app.ConcurrencyReporter); ok && !rep.ConcurrentRunSafe() {
		exe = &app.Serialized{Inner: exe}
	}
	s := newSession(ctx, exe, di, cfg)
	// The silo and every probe clone share di's engine counters, so
	// their deltas cover the whole extraction.
	engineStart := di.EngineCounters()
	start := s.cfg.Clock()
	s.stats.RowsInitial = di.TotalRows()

	var ext *Extraction
	steps := []step{
		{"from-clause", &s.stats.FromClause, s.extractFromClause},
		{"minimizer", nil, s.minimize}, // times itself (two phases)
		{"join-graph", &s.stats.JoinGraph, s.extractJoinGraph},
	}
	if cfg.ExtractHaving {
		// Section 7 pipeline: group-by immediately after joins, then
		// unified filter/having extraction.
		steps = append(steps,
			step{"group-by", &s.stats.GroupBy, s.extractGroupBy},
			step{"filters+having", &s.stats.Having, s.extractFiltersAndHaving},
			step{"disjunctions", &s.stats.Filters, s.refineDisjunctions},
			step{"projection", &s.stats.Projection, s.extractProjections},
			step{"aggregation", &s.stats.Aggregation, s.extractAggregations},
		)
	} else {
		steps = append(steps,
			step{"filters", &s.stats.Filters, s.extractFilters},
			step{"disjunctions", &s.stats.Filters, s.refineDisjunctions},
			step{"projection", &s.stats.Projection, s.extractProjections},
			step{"group-by", &s.stats.GroupBy, s.extractGroupBy},
			step{"aggregation", &s.stats.Aggregation, s.extractAggregations},
		)
	}
	steps = append(steps,
		step{"order-by", &s.stats.OrderBy, s.extractOrderBy},
		step{"limit", &s.stats.Limit, s.extractLimit},
		step{"assemble", nil, func() (err error) {
			ext, err = s.assemble()
			return err
		}},
	)
	if !cfg.SkipChecker {
		steps = append(steps, step{"checker", &s.stats.Checker, func() error {
			if err := s.check(ext); err != nil {
				return err
			}
			ext.CheckerVerified = true
			return nil
		}})
	}
	if cfg.VerifyEQC {
		// Static class membership is orthogonal to the checker's
		// instance equivalence: the checker compares results, this
		// guard proves Q_E has the *shape* the paper's identifiability
		// argument covers. Disjunctive single-column predicates are
		// in-class exactly when the Section 9 extension extracted them.
		steps = append(steps, step{"eqc-verify", &s.stats.Checker, func() error {
			diags := eqcverify.Verify(ext.Query, s.source.Schemas(),
				eqcverify.Options{AllowDisjunction: cfg.ExtractDisjunction})
			return eqcverify.Error(diags)
		}})
	}

	for _, st := range steps {
		// Cancellation is honoured at phase granularity here and at
		// probe granularity inside each phase (probeStep/run).
		if err := ctx.Err(); err != nil {
			return nil, moduleErr(st.name, err)
		}
		span := s.beginPhase(st.name)
		var err error
		if st.slot != nil {
			err = s.timed(st.slot, st.fn)
		} else {
			err = st.fn()
		}
		if err == nil && s.tracer != nil {
			if clause, ok := s.phaseClause(st.name); ok {
				span.SetAttr("clause", clause)
			}
		}
		span.EndErr(err)
		if err != nil {
			return nil, moduleErr(st.name, err)
		}
	}
	s.stats.Total = s.cfg.Clock().Sub(start)
	s.stats.AppInvocations = s.exe.Invocations()
	s.stats.Workers = s.cfg.Workers
	s.stats.ParallelProbes = s.parallelProbes.Load()
	s.stats.CacheHits = s.cache.hits.Load()
	s.stats.CacheMisses = s.cache.misses.Load()
	s.stats.DiskCacheHits = s.cache.diskHits.Load()
	// Engine counters are deltas over this extraction: di (and its
	// shared counters) may serve many sequential extractions.
	engineEnd := di.EngineCounters()
	s.stats.JoinBuildsReused = engineEnd.JoinReuses - engineStart.JoinReuses
	s.stats.VectorBatches = engineEnd.VectorBatches - engineStart.VectorBatches
	ext.Stats = s.stats
	s.tracer.Root().End()
	ext.Trace = s.tracer.Events()
	return ext, nil
}

// step is one pipeline phase: its name labels both its trace span and
// the module of any error it returns, slot is the Stats timer its wall
// time adds to (nil when the phase times itself or is not timed), and
// fn runs it.
type step struct {
	name string
	slot *time.Duration
	fn   func() error
}

// newSession builds the state of one extraction of exe on di before
// any phase runs.
func newSession(ctx context.Context, exe app.Executable, di *sqldb.Database, cfg Config) *Session {
	return &Session{
		cfg:        cfg,
		ctx:        ctx,
		exe:        &app.CountingExecutable{Inner: exe},
		rng:        newRNG(cfg.Seed),
		source:     di,
		schemas:    map[string]sqldb.TableSchema{},
		compOf:     map[sqldb.ColRef]int{},
		filters:    map[sqldb.ColRef]FilterPredicate{},
		groupBySet: map[sqldb.ColRef]bool{},
		cache:      newRunCache(),
		shared:     cfg.SharedCache,
		tracer:     cfg.Tracer,
		ledger:     cfg.Ledger,
	}
}

// beginPhase opens the trace span of the next pipeline phase, points
// probe-event attribution at it and restarts its probe numbering.
// Phases run strictly sequentially on the main goroutine, so phase
// state needs no synchronization with the fan-outs it brackets.
func (s *Session) beginPhase(name string) *obs.Span {
	s.phaseSeq++
	s.phaseName = name
	s.phaseProbes = 0
	s.phaseSpan = s.tracer.Root().Child(name, obs.SeqAuto)
	return s.phaseSpan
}

// populated runs E and reports whether the result is populated.
// Application-level execution failures are reported as unpopulated —
// within EQC a probe database can only produce rows, no rows, or (for
// out-of-scope hidden logic) an error we conservatively treat as "no
// rows". Missing-table, timeout and context-cancellation errors are
// real faults and are returned.
func (s *Session) populated(pc *probeCtx, db *sqldb.Database) (bool, error) {
	res, err := s.run(pc, db)
	if err != nil {
		if errors.Is(err, sqldb.ErrNoSuchTable) || errors.Is(err, app.ErrTimeout) || isCtxErr(err) {
			return false, err
		}
		return false, nil
	}
	return res.Populated(), nil
}

// d1Value reads the single-row value of a column in D_1.
func (s *Session) d1Value(col sqldb.ColRef) (sqldb.Value, error) {
	t, err := s.silo.Table(col.Table)
	if err != nil {
		return sqldb.Value{}, err
	}
	if t.RowCount() == 0 {
		return sqldb.Value{}, fmt.Errorf("table %s is empty in D1", col.Table)
	}
	return t.Get(0, col.Column)
}

// cloneD1 copies the minimized database for one mutation probe. Only
// the extracted tables carry rows, so the copy is a handful of rows.
func (s *Session) cloneD1() *sqldb.Database { return s.silo.Clone() }

// isKeyColumn reports whether the column participates in the schema
// graph's key linkages (such columns carry no filter predicates under
// EQC).
func (s *Session) isKeyColumn(col sqldb.ColRef) bool {
	sch, ok := s.schemas[col.Table]
	if !ok {
		return false
	}
	return sch.IsKey(col.Column)
}

// inJoinGraph reports whether the column is part of the extracted
// join graph J_E.
func (s *Session) inJoinGraph(col sqldb.ColRef) bool {
	_, ok := s.compOf[col]
	return ok
}

// componentOf returns the join component of a column, or nil.
func (s *Session) componentOf(col sqldb.ColRef) *joinComponent {
	if i, ok := s.compOf[col]; ok {
		return &s.components[i]
	}
	return nil
}

// allColumns lists every column of the extracted tables in
// deterministic order.
func (s *Session) allColumns() []sqldb.ColRef {
	var out []sqldb.ColRef
	for _, t := range s.tables {
		for _, c := range s.schemas[t].Columns {
			out = append(out, sqldb.ColRef{Table: t, Column: c.Name})
		}
	}
	return out
}

// column returns the schema definition of a column.
func (s *Session) column(col sqldb.ColRef) (sqldb.Column, error) {
	sch, ok := s.schemas[col.Table]
	if !ok {
		return sqldb.Column{}, fmt.Errorf("table %s not in T_E", col.Table)
	}
	return sch.Column(col.Column)
}

// eqFiltered reports whether the column is pinned by an equality
// filter (such columns have a single s-value and are skipped by
// group-by and order-by generation).
func (s *Session) eqFiltered(col sqldb.ColRef) bool {
	f, ok := s.filters[col]
	return ok && f.IsEquality()
}
