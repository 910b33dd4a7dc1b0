// Package core implements UNMASQUE, the paper's hidden-query
// extraction pipeline. Given a black-box application executable and a
// database instance on which it produces a populated result, the
// pipeline recovers the hidden query by active learning: it mutates
// and synthesizes database instances, reruns the application, and
// observes only the results.
//
// The pipeline follows Figure 3 of the paper: from-clause detection,
// database minimization, equi-join and filter extraction over mutated
// single-row databases, then projection, group-by, aggregation,
// order-by and limit extraction over generated databases, concluding
// with assembly and a correctness checker. The having clause uses the
// reworked Section 7 pipeline.
package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"unmasque/internal/obs"
)

// Config tunes the extraction pipeline. The zero value is NOT valid;
// use DefaultConfig.
type Config struct {
	// ProbeTimeout bounds each from-clause probe execution (the paper
	// uses 100 ms in the schema-scaling experiment). Only renames are
	// probed under this deadline; all other pipeline executions use
	// execTimeout.
	ProbeTimeout time.Duration

	// DisableSampling turns the minimizer's sampling preprocessing
	// off (ablation experiment E10).
	DisableSampling bool

	// HalvingPolicy picks the next table to halve: "largest"
	// (default, the paper's empirically best policy), "smallest",
	// "roundrobin" or "random".
	HalvingPolicy string

	// SkipChecker disables the final verification module.
	SkipChecker bool

	// VerifyEQC runs the static extractable-class verifier
	// (internal/analysis/eqcverify) over the assembled query after the
	// checker: extraction fails if Q_E falls outside the class the
	// paper's guarantees cover, even when its results happen to match
	// the application on every checker instance. The extraction test
	// suites enable it unconditionally.
	VerifyEQC bool

	// ExtractDisjunction enables the Section 9 future-work extension:
	// after conjunctive filter extraction, every candidate column is
	// re-probed for disjunctive predicates — unions of numeric/date
	// intervals (via a grid scan plus boundary binary searches) and
	// string IN-sets (via enumeration of the source column's distinct
	// values). Segments narrower than domain/disjunctionScanPoints
	// and strings absent from D_I remain invisible; the checker's
	// initial-instance comparison flags such residuals.
	ExtractDisjunction bool

	// ExtractHaving switches to the Section 7 pipeline that also
	// extracts having predicates (with the paper's restriction that
	// filter and having attribute sets are disjoint).
	ExtractHaving bool

	// Seed drives all randomized choices, making extraction
	// deterministic for a given input.
	Seed int64

	// Workers bounds the probe scheduler's worker pool: independent
	// probes (per-table from-clause renames, per-column filter
	// extraction, per-unit projection probes) fan out over up to this
	// many goroutines, each operating on its own database clone. Zero
	// selects runtime.GOMAXPROCS(0); 1 forces the fully sequential
	// pipeline. The extracted SQL text is identical for every worker
	// count — parallelism only changes wall-clock time.
	Workers int

	// SharedCache, when set, attaches a durable cross-job probe cache
	// (typically storage.ProbeCache.Namespace) as a second memoization
	// tier: completed executions are persisted and consulted before any
	// application invocation, including the from-clause rename probes,
	// so a repeat extraction of the same (executable, instance) pair
	// can finish with zero invocations. Instances above
	// maxDiskCacheRows rows bypass it. The namespace must uniquely
	// identify the executable — fingerprints cover only database
	// content, and two applications probed on identical instances
	// produce different results.
	SharedCache ProbeCache

	// Tracer, when set, receives the extraction's span tree: one span
	// per pipeline phase and one per scheduled probe. The finished
	// tree is also flattened onto Extraction.Trace. Nil disables
	// tracing at zero cost. A caller keeping a metrics registry derives
	// its phase_ms histograms from the export (obs.Metrics.RecordPhases).
	Tracer *obs.Tracer

	// Ledger, when set, records one obs.ProbeEvent per executable
	// invocation or memoization-cache hit. Its canonical JSONL
	// serialization is byte-identical across worker counts once
	// volatile fields are stripped (obs.StripVolatile). A caller keeping
	// a metrics registry folds every event into it from a ledger sink
	// (obs.Metrics.RecordProbe); core writes no other probe record.
	Ledger *obs.Ledger

	// Clock supplies the pipeline's wall-clock readings (phase timing,
	// probe latencies). Nil selects time.Now. Injectable so the
	// deterministic pipeline packages never call time.Now directly
	// (golint GL007) and so tests can freeze time.
	Clock func() time.Time
}

// Fixed pipeline parameters, with the paper's values where it states
// one. No caller needs another value, so they are not Config fields.
const (
	// execTimeout bounds every non-from-clause application execution
	// (minimizer probes on still-large databases can legitimately
	// take a while).
	execTimeout = 5 * time.Minute

	// sampleFraction is the per-pass Bernoulli sampling rate of the
	// minimizer's preprocessing phase; sampleThreshold is the row
	// count below which a table is no longer sampled (halving takes
	// over).
	sampleFraction  = 0.1
	sampleThreshold = 64

	// limitStart and limitRatio parameterize the geometric result-
	// cardinality progression of limit extraction (paper: a = max(4,
	// |R_I|), r = 10). limitMax caps the largest generated
	// cardinality; beyond it the query is concluded to have no limit.
	limitStart = 4
	limitRatio = 10
	limitMax   = 4000

	// checkerRounds is the number of randomized databases the
	// extraction checker compares E and Q_E on; checkerRows is the
	// per-table row count of each.
	checkerRounds = 3
	checkerRows   = 40

	// disjunctionScanPoints is the grid resolution of the numeric
	// disjunction scan (Config.ExtractDisjunction).
	disjunctionScanPoints = 48
)

// DefaultConfig returns the paper-faithful parameterization.
func DefaultConfig() Config {
	return Config{
		ProbeTimeout:  250 * time.Millisecond,
		HalvingPolicy: "largest",
		Seed:          1,
	}
}

// validate normalizes and sanity-checks the configuration.
func (c *Config) validate() error {
	if c.ProbeTimeout <= 0 {
		return fmt.Errorf("ProbeTimeout must be positive")
	}
	switch strings.ToLower(c.HalvingPolicy) {
	case "", "largest":
		c.HalvingPolicy = "largest"
	case "smallest", "random", "roundrobin":
		c.HalvingPolicy = strings.ToLower(c.HalvingPolicy)
	default:
		return fmt.Errorf("unknown halving policy %q", c.HalvingPolicy)
	}
	if c.Workers < 0 {
		return fmt.Errorf("Workers must be non-negative")
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// Stats records per-module wall-clock time and application invocation
// counts — the breakdown reported in Figures 9-11 of the paper.
type Stats struct {
	Total        time.Duration
	FromClause   time.Duration
	Sampling     time.Duration
	Partitioning time.Duration
	JoinGraph    time.Duration
	Filters      time.Duration
	Projection   time.Duration
	GroupBy      time.Duration
	Aggregation  time.Duration
	OrderBy      time.Duration
	Limit        time.Duration
	Having       time.Duration
	Checker      time.Duration

	// AppInvocations counts completed executions of E during
	// extraction (Section 6.2 reports "typically a few hundred").
	// Cache hits do not run E and therefore do not count.
	AppInvocations int64

	// Workers records the resolved worker-pool size the extraction ran
	// with (Config.Workers after defaulting).
	Workers int

	// ParallelProbes counts probes that were dispatched through the
	// worker pool (from-clause renames, per-column filter extractions,
	// projection unit and corner probes). Sequential probes — the
	// minimizer's dependent halvings, binary-search steps — are not
	// included.
	ParallelProbes int64

	// CacheHits / CacheMisses count run-memoization outcomes: a hit is
	// a probe whose database fingerprint matched an earlier completed
	// execution, skipping E entirely.
	CacheHits   int64
	CacheMisses int64

	// DiskCacheHits counts probes served from the durable cross-job
	// tier (Config.SharedCache): the fingerprint matched an execution
	// persisted by an earlier job (or an earlier probe of this one),
	// and E was not run. Reported distinctly from CacheHits so a warm
	// daemon's zero-invocation extractions are visible as such.
	DiskCacheHits int64

	// RowsInitial and RowsFinal trace the database size before and
	// after minimization.
	RowsInitial int
	RowsFinal   int

	// Engine counters for this extraction (deltas of the silo's shared
	// sqldb.EngineStats between start and end — the provided database
	// may be reused across extractions, so absolutes would conflate
	// runs): hash-join build sides reused from cache, and column
	// batches gathered by the vectorized engine.
	JoinBuildsReused int64
	VectorBatches    int64

	// IndexBuilds, IndexHits, RangeBuilds and RangeHits are always
	// zero: the engine has no hash or range index. They stay only
	// because perfbench/layers.go still reads them for its
	// sqldb.index_* and sqldb.range_* metrics. Job records need none
	// of them: the job store decodes with json.Unmarshal, which skips
	// fields the struct no longer has.
	IndexBuilds int64
	IndexHits   int64
	RangeBuilds int64
	RangeHits   int64
}

// CacheHitRate is the fraction of cache-eligible probes served from
// either memoization tier (in-session or persistent): with both tiers
// active, hits from each count towards the numerator and the
// denominator is every cache-eligible probe.
func (s *Stats) CacheHitRate() float64 {
	served := s.CacheHits + s.DiskCacheHits
	total := served + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Minimizer is the total database-minimization time (sampling plus
// iterative partitioning) — the dominant cost in the paper's profile.
func (s *Stats) Minimizer() time.Duration { return s.Sampling + s.Partitioning }

// Remaining is the collective time of all non-minimizer extraction
// modules (the paper's "green" bar).
func (s *Stats) Remaining() time.Duration {
	return s.Total - s.Minimizer() - s.Checker
}

// String renders a compact one-line profile.
func (s *Stats) String() string {
	line := fmt.Sprintf("total=%v minimizer=%v (sampling=%v partitioning=%v) rest=%v checker=%v invocations=%d rows %d->%d workers=%d parallel=%d cache %d/%d",
		s.Total.Round(time.Millisecond), s.Minimizer().Round(time.Millisecond),
		s.Sampling.Round(time.Millisecond), s.Partitioning.Round(time.Millisecond),
		s.Remaining().Round(time.Millisecond), s.Checker.Round(time.Millisecond),
		s.AppInvocations, s.RowsInitial, s.RowsFinal,
		s.Workers, s.ParallelProbes, s.CacheHits, s.CacheHits+s.CacheMisses)
	if s.DiskCacheHits > 0 {
		line += fmt.Sprintf(" disk=%d", s.DiskCacheHits)
	}
	line += fmt.Sprintf(" engine (join-reuse=%d batches=%d)",
		s.JoinBuildsReused, s.VectorBatches)
	return line
}

// timed runs fn and adds its duration to *slot, reading the session
// clock (GL007: core never calls time.Now directly).
func (s *Session) timed(slot *time.Duration, fn func() error) error {
	start := s.cfg.Clock()
	err := fn()
	*slot += s.cfg.Clock().Sub(start)
	return err
}

// newRNG builds the session RNG.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
