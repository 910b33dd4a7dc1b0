package bench

// E16: full-pipeline overhead of the telemetry stack. Three TPC-H
// extractions run twice — once with every observability hook off,
// once with tracer, ledger AND the live ledger sink attached and a
// metrics registry folded from them as the daemon folds it (the ledger
// sink records each probe as it lands, the phases and engine counters
// land at the end) — and the row records
// the relative cost in process CPU time (wall clock off unix). The
// acceptance bar for the production deployment is <5% overhead with
// byte-identical extracted SQL.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/workloads/tpch"
)

// ObsRow is one telemetry-overhead measurement.
type ObsRow struct {
	Query        string  `json:"query"`
	OffMS        float64 `json:"off_ms"`       // CPU ms, telemetry fully off
	OnMS         float64 `json:"on_ms"`        // CPU ms, tracer+ledger+sinks+metrics
	OverheadPct  float64 `json:"overhead_pct"` // (on-off)/off * 100
	Probes       int64   `json:"probes"`       // ledger events in the instrumented run
	SQLIdentical bool    `json:"sql_identical"`
}

// Obs measures the end-to-end cost of the telemetry pipeline on
// three TPC-H extractions. Extraction here is tens of milliseconds
// and shared-machine wall-clock noise is both large (±20% per run)
// and bursty, so the timed quantity is process CPU time, which
// run-queue delay and CPU steal cannot inflate — telemetry costs
// cycles, and cycles are what the acceptance bar guards. Residual
// variance is handled by aggregation: both variants run in every
// iteration with the order alternating (so drift cannot
// systematically favor one), the allocator is equalized before each
// timed region, the first round is an untimed warmup, and each
// variant is summarized by the interquartile mean of its samples.
func Obs(w io.Writer, opt Options) ([]ObsRow, error) {
	queries := tpch.HiddenQueries()
	names := []string{"Q3", "Q6", "Q10"}
	scale := tpch.ScaleTiny * 8
	iters := 16
	if opt.Quick {
		scale = tpch.ScaleTiny
		iters = 4
	}

	once := func(name, sql string, instrument bool) (time.Duration, string, int64, error) {
		db := tpch.NewDatabase(scale, opt.Seed)
		if err := tpch.PlantWitnesses(db, map[string]string{name: sql}); err != nil {
			return 0, "", 0, err
		}
		exe, err := app.NewSQLExecutable("tpch/"+name, sql)
		if err != nil {
			return 0, "", 0, err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		var ledger *obs.Ledger
		var metrics *obs.Metrics
		if instrument {
			cfg.Tracer = obs.NewTracer("extract")
			ledger = obs.NewLedger()
			cfg.Ledger = ledger
			metrics = obs.NewMetrics()
			// The ledger sink too: the production daemon streams each probe.
			ledger.SetSink(metrics.RecordProbe)
		}
		// Equalize allocator state before the timed region: without
		// this, whichever variant runs second inherits the other's heap
		// garbage and pays its collection cost.
		runtime.GC()
		cpu0, haveCPU := procCPU()
		start := time.Now()
		ext, err := core.Extract(exe, db, cfg)
		if err == nil && instrument {
			metrics.RecordPhases(ext.Trace)
			metrics.Counter("engine_join_builds_reused").Add(ext.Stats.JoinBuildsReused)
			metrics.Counter("engine_vector_batches").Add(ext.Stats.VectorBatches)
		}
		took := time.Since(start)
		if haveCPU {
			if cpu1, ok := procCPU(); ok {
				took = cpu1 - cpu0
			}
		}
		if err != nil {
			return 0, "", 0, fmt.Errorf("%s: %w", name, err)
		}
		var probes int64
		if ledger != nil {
			probes = int64(ledger.Len())
		}
		return took, ext.SQL, probes, nil
	}

	var rows []ObsRow
	tbl := &TextTable{
		Title:  "Telemetry overhead (tracer+ledger+sink+metrics vs. all off)",
		Header: []string{"query", "off_ms", "on_ms", "overhead_%", "probes", "sql_identical"},
	}
	for _, name := range names {
		sql, ok := queries[name]
		if !ok {
			continue
		}
		var offs, ons []time.Duration
		var offSQL, onSQL string
		var probes int64
		for i := 0; i <= iters; i++ { // round 0 is warmup, untimed
			// Alternate which variant runs first so any order-dependent
			// drift (frequency scaling, cache residency) cannot
			// systematically favor one side.
			var off, on time.Duration
			var sqlOff, sqlOn string
			var p int64
			var err error
			if i%2 == 0 {
				off, sqlOff, _, err = once(name, sql, false)
				if err == nil {
					on, sqlOn, p, err = once(name, sql, true)
				}
			} else {
				on, sqlOn, p, err = once(name, sql, true)
				if err == nil {
					off, sqlOff, _, err = once(name, sql, false)
				}
			}
			if err != nil {
				return nil, err
			}
			offSQL, onSQL, probes = sqlOff, sqlOn, p
			if i == 0 {
				continue
			}
			offs = append(offs, off)
			ons = append(ons, on)
		}
		offIQM := iqMean(offs)
		onIQM := iqMean(ons)
		row := ObsRow{
			Query:        name,
			OffMS:        offIQM / float64(time.Millisecond),
			OnMS:         onIQM / float64(time.Millisecond),
			OverheadPct:  (onIQM/offIQM - 1) * 100,
			Probes:       probes,
			SQLIdentical: offSQL == onSQL,
		}
		rows = append(rows, row)
		tbl.Add(row.Query, fmt.Sprintf("%.1f", row.OffMS), fmt.Sprintf("%.1f", row.OnMS),
			fmt.Sprintf("%.2f", row.OverheadPct), row.Probes, row.SQLIdentical)
	}
	tbl.Note("process-CPU ms; scale %v, interquartile mean over %d order-alternating iterations per variant (plus warmup); acceptance: overhead < 5%%, identical SQL", scale, iters)
	tbl.Render(w)
	return rows, nil
}

// iqMean returns the interquartile mean of a non-empty duration
// slice in float64 nanoseconds: samples are sorted and the mean is
// taken over the middle half, discarding the fastest and slowest
// quarter symmetrically.
func iqMean(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, d := range s[lo:hi] {
		sum += float64(d)
	}
	return sum / float64(hi-lo)
}
