package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/regal"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/enki"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/rubis"
	"unmasque/internal/workloads/tpcds"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/workloads/wilos"
)

// Options tunes the experiment drivers.
type Options struct {
	// Quick shrinks database scales and search budgets so the whole
	// suite finishes in roughly a minute (used by tests).
	Quick bool
	// Seed drives data generation and extraction randomness.
	Seed int64
}

// DefaultOptions mirrors the paper-shaped run.
func DefaultOptions() Options { return Options{Seed: 1} }

// QueryTiming is one extraction measurement.
type QueryTiming struct {
	Name         string
	Total        time.Duration
	Sampling     time.Duration
	Partitioning time.Duration
	Rest         time.Duration
	Checker      time.Duration
	Invocations  int64
	NativeExec   time.Duration
	Verified     bool
	Summary      string
	Err          error
}

// extractOne runs the pipeline on one executable and measures the
// native execution of the hidden logic for comparison.
func extractOne(exe app.Executable, db *sqldb.Database, cfg core.Config) QueryTiming {
	qt := QueryTiming{Name: exe.Name()}
	nativeStart := time.Now()
	if _, err := exe.Run(context.Background(), db); err != nil {
		qt.Err = fmt.Errorf("native execution: %w", err)
		return qt
	}
	qt.NativeExec = time.Since(nativeStart)

	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		qt.Err = err
		return qt
	}
	st := ext.Stats
	qt.Total = st.Total
	qt.Sampling = st.Sampling
	qt.Partitioning = st.Partitioning
	qt.Rest = st.Remaining()
	qt.Checker = st.Checker
	qt.Invocations = st.AppInvocations
	qt.Verified = ext.CheckerVerified
	qt.Summary = ext.Summary()
	return qt
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// ---------------------------------------------------------------- E1

// Fig8Row is one UNMASQUE-vs-REGAL comparison.
type Fig8Row struct {
	Name       string
	Unmasque   time.Duration
	UnmasqueOK bool
	Regal      time.Duration
	RegalDNC   bool
	RegalOK    bool
}

// Fig8 regenerates Figure 8: extraction time of UNMASQUE vs REGAL on
// the 11 RQ queries over the 5 GB-analogue TPC-H instance.
func Fig8(w io.Writer, opt Options) ([]Fig8Row, error) {
	scale := tpch.Scale5GB
	if opt.Quick {
		scale = tpch.ScaleTiny * 4
	}
	db := tpch.NewDatabase(scale, opt.Seed)
	if err := tpch.PlantWitnesses(db, tpch.RegalQueries()); err != nil {
		return nil, err
	}
	rcfg := regal.DefaultConfig()
	rcfg.Timeout = 30 * time.Second
	if opt.Quick {
		rcfg.Timeout = 10 * time.Second
	}
	ucfg := core.DefaultConfig()
	ucfg.Seed = opt.Seed

	var rows []Fig8Row
	tbl := &TextTable{
		Title:  "Figure 8 — Comparison with QRE (TPC-H, 5 GB analogue)",
		Header: []string{"query", "unmasque_ms", "regal_ms", "regal_status"},
	}
	for _, name := range tpch.RegalOrder() {
		sql := tpch.RegalQueries()[name]
		exe := app.MustSQLExecutable(name, sql)
		row := Fig8Row{Name: name}

		uStart := time.Now()
		_, uErr := core.Extract(exe, db, ucfg)
		row.Unmasque = time.Since(uStart)
		row.UnmasqueOK = uErr == nil

		target, err := exe.Run(context.Background(), db)
		if err != nil {
			return nil, err
		}
		rout := regal.ReverseEngineer(db, target, rcfg)
		row.Regal = rout.Elapsed
		row.RegalDNC = rout.DNC
		row.RegalOK = rout.Query != nil

		status := "ok"
		switch {
		case row.RegalDNC:
			status = "DNC"
		case !row.RegalOK:
			status = "no candidate"
		}
		tbl.Add(name, ms(row.Unmasque), ms(row.Regal), status)
		rows = append(rows, row)
	}
	tbl.Note("paper shape: UNMASQUE roughly an order of magnitude faster; some REGAL runs DNC")
	tbl.Render(w)
	return rows, nil
}

// ---------------------------------------------------------------- E2

// Fig9 regenerates Figure 9: per-query extraction time with the
// module breakdown on the 100 GB-analogue TPC-H instance.
func Fig9(w io.Writer, opt Options) ([]QueryTiming, error) {
	scale := tpch.Scale100GB
	if opt.Quick {
		scale = tpch.ScaleTiny * 4
	}
	db := tpch.NewDatabase(scale, opt.Seed)
	if err := tpch.PlantWitnesses(db, tpch.HiddenQueries()); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed

	var out []QueryTiming
	tbl := &TextTable{
		Title:  "Figure 9 — Hidden Query Extraction Time (TPC-H, 100 GB analogue)",
		Header: []string{"query", "total_ms", "sampling_ms", "partitioning_ms", "rest_ms", "checker_ms", "invocations", "native_ms", "ratio"},
	}
	for _, name := range tpch.QueryOrder() {
		exe := app.MustSQLExecutable(name, tpch.HiddenQueries()[name])
		qt := extractOne(exe, db, cfg)
		out = append(out, qt)
		if qt.Err != nil {
			tbl.Add(name, "ERROR", qt.Err, "", "", "", "", "", "")
			continue
		}
		ratio := float64(qt.Total) / float64(qt.NativeExec)
		tbl.Add(name, ms(qt.Total), ms(qt.Sampling), ms(qt.Partitioning), ms(qt.Rest),
			ms(qt.Checker), qt.Invocations, ms(qt.NativeExec), fmt.Sprintf("%.2f", ratio))
	}
	tbl.Note("paper shape: minimizer (sampling+partitioning) dominates; queries without lineitem are far cheaper")
	tbl.Render(w)
	return out, nil
}

// ---------------------------------------------------------------- E3

// Fig10 regenerates Figure 10: extraction times on the JOB suite.
func Fig10(w io.Writer, opt Options) ([]QueryTiming, error) {
	scale := job.ScaleFull
	if opt.Quick {
		scale = job.ScaleTiny
	}
	db := job.NewDatabase(scale, opt.Seed)
	if err := job.PlantWitnesses(db, job.HiddenQueries()); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed

	var out []QueryTiming
	tbl := &TextTable{
		Title:  "Figure 10 — Hidden Query Extraction Time (JOB / IMDB analogue)",
		Header: []string{"query", "joins", "total_ms", "minimizer_ms", "rest_ms", "checker_ms", "invocations"},
	}
	for _, name := range job.QueryOrder() {
		sql := job.HiddenQueries()[name]
		exe := app.MustSQLExecutable(name, sql)
		qt := extractOne(exe, db, cfg)
		out = append(out, qt)
		if qt.Err != nil {
			tbl.Add(name, "", "ERROR", qt.Err, "", "", "")
			continue
		}
		joins := countJoins(sql)
		tbl.Add(name, joins, ms(qt.Total), ms(qt.Sampling+qt.Partitioning), ms(qt.Rest), ms(qt.Checker), qt.Invocations)
	}
	tbl.Note("paper shape: all rich-join queries extracted; database-size reduction dominates")
	tbl.Render(w)
	return out, nil
}

func countJoins(sql string) int {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0
	}
	n := 0
	for _, c := range sqldb.Conjuncts(stmt.Where) {
		if b, ok := c.(*sqldb.BinaryExpr); ok && b.Op == sqldb.OpEq {
			if _, lok := b.L.(*sqldb.ColumnExpr); lok {
				if _, rok := b.R.(*sqldb.ColumnExpr); rok {
					n++
				}
			}
		}
	}
	return n
}

// ---------------------------------------------------------------- E4

// Fig11Point is one scaling measurement.
type Fig11Point struct {
	Label      string
	Rows       int
	Extraction time.Duration
	Native     time.Duration
}

// Fig11 regenerates Figure 11: the Q5 extraction scaling profile
// against native execution across instance sizes.
func Fig11(w io.Writer, opt Options) ([]Fig11Point, error) {
	type step struct {
		label string
		scale tpch.Scale
	}
	steps := []step{
		{"200GB", tpch.Scale200GB}, {"400GB", tpch.Scale400GB}, {"600GB", tpch.Scale600GB},
		{"800GB", tpch.Scale800GB}, {"1TB", tpch.Scale1TB},
	}
	if opt.Quick {
		steps = []step{{"200GB", 0.4}, {"400GB", 0.8}, {"600GB", 1.2}, {"800GB", 1.6}, {"1TB", 2.0}}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.SkipChecker = true // the paper's scaling curve is extraction only

	q5 := tpch.HiddenQueries()["Q5"]
	var out []Fig11Point
	tbl := &TextTable{
		Title:  "Figure 11 — Extraction Scaling Profile, Q5 (TPC-H)",
		Header: []string{"size", "rows", "extraction_ms", "native_ms", "native/extraction"},
	}
	for _, st := range steps {
		db := tpch.NewDatabase(st.scale, opt.Seed)
		if err := tpch.PlantWitnesses(db, map[string]string{"Q5": q5}); err != nil {
			return nil, err
		}
		exe := app.MustSQLExecutable("Q5", q5)
		qt := extractOne(exe, db, cfg)
		if qt.Err != nil {
			return nil, fmt.Errorf("%s: %w", st.label, qt.Err)
		}
		p := Fig11Point{Label: st.label, Rows: db.TotalRows(), Extraction: qt.Total, Native: qt.NativeExec}
		out = append(out, p)
		tbl.Add(st.label, p.Rows, ms(p.Extraction), ms(p.Native),
			fmt.Sprintf("%.2f", float64(p.Native)/float64(p.Extraction)))
	}
	tbl.Note("paper shape: extraction quasi-linear with a gentler slope than native execution")
	tbl.Render(w)
	return out, nil
}

// ---------------------------------------------------------------- E5

// SchemaScaleResult reports the from-clause identification cost with
// a wide schema.
type SchemaScaleResult struct {
	Tables       int
	QueryTables  int
	Identified   int
	Elapsed      time.Duration
	ProbeTimeout time.Duration
}

// SchemaScale regenerates the Section 6.2 schema-scaling experiment:
// 1000 dummy tables are added and T_E identification is timed for the
// 12-table query (J11) under a 100 ms probe timeout.
func SchemaScale(w io.Writer, opt Options) (*SchemaScaleResult, error) {
	extra := 1000
	if opt.Quick {
		extra = 100
	}
	db := job.NewDatabase(job.ScaleTiny, opt.Seed)
	queries := map[string]string{"J11": job.HiddenQueries()["J11"]}
	if err := job.PlantWitnesses(db, queries); err != nil {
		return nil, err
	}
	for i := 0; i < extra; i++ {
		if err := db.CreateTable(sqldb.TableSchema{
			Name: fmt.Sprintf("dummy_%04d", i),
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TInt},
				{Name: "payload", Type: sqldb.TText},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return nil, err
		}
	}
	exe := app.MustSQLExecutable("J11", queries["J11"])
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.SkipChecker = true

	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		return nil, err
	}
	res := &SchemaScaleResult{
		Tables:       len(db.TableNames()),
		QueryTables:  12,
		Identified:   len(ext.Tables),
		Elapsed:      ext.Stats.FromClause,
		ProbeTimeout: cfg.ProbeTimeout,
	}
	tbl := &TextTable{
		Title:  "Schema Scaling — T_E identification with a wide catalog (Section 6.2)",
		Header: []string{"catalog_tables", "query_tables", "identified", "from_clause_ms", "probe_timeout_ms"},
	}
	tbl.Add(res.Tables, res.QueryTables, res.Identified, ms(res.Elapsed), res.ProbeTimeout.Milliseconds())
	tbl.Note("paper shape: ~10 s for 1000+ tables at a 100 ms probe timeout (one probe per table; group testing here needs O(k·log(N/k)))")
	tbl.Render(w)
	return res, nil
}

// ---------------------------------------------------------- E6/E7/E8

// imperativeSuite drives one imperative workload.
func imperativeSuite(w io.Writer, title string, execs []*app.ImperativeExecutable, db *sqldb.Database, opt Options) ([]QueryTiming, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	tbl := &TextTable{
		Title:  title,
		Header: []string{"function", "extracted_clauses", "time_ms", "verified"},
	}
	var out []QueryTiming
	for _, exe := range execs {
		qt := extractOne(exe, db, cfg)
		out = append(out, qt)
		if qt.Err != nil {
			tbl.Add(exe.Name(), "ERROR: "+qt.Err.Error(), "", "")
			continue
		}
		tbl.Add(exe.Name(), qt.Summary, ms(qt.Total), qt.Verified)
	}
	tbl.Render(w)
	return out, nil
}

// Enki regenerates the Figure 12 experiment: imperative-to-SQL
// conversion of the 14 in-scope Enki commands.
func Enki(w io.Writer, opt Options) ([]QueryTiming, error) {
	db := enki.NewDatabase(opt.Seed)
	var execs []*app.ImperativeExecutable
	for _, c := range enki.Commands() {
		execs = append(execs, c.Exe)
	}
	return imperativeSuite(w, "Enki — Imperative to SQL Conversion (Figure 12; 14 of 17 commands in scope)", execs, db, opt)
}

// Wilos regenerates Table 3: the Wilos function conversions. Only the
// nine detailed functions are shown unless full is requested via
// !opt.Quick (all 22 run either way; the table mirrors the paper).
func Wilos(w io.Writer, opt Options) ([]QueryTiming, error) {
	db := wilos.NewDatabase(opt.Seed)
	var execs []*app.ImperativeExecutable
	for _, f := range wilos.Functions() {
		execs = append(execs, f.Exe)
	}
	return imperativeSuite(w, "Table 3 — Imperative to SQL Conversion, Wilos (22 in-scope functions; 9 detailed)", execs, db, opt)
}

// Rubis regenerates the RUBiS conversion experiment (tech-report
// detail in the paper).
func Rubis(w io.Writer, opt Options) ([]QueryTiming, error) {
	db := rubis.NewDatabase(opt.Seed)
	var execs []*app.ImperativeExecutable
	for _, s := range rubis.Servlets() {
		execs = append(execs, s.Exe)
	}
	return imperativeSuite(w, "RUBiS — Imperative to SQL Conversion (Section 6.3)", execs, db, opt)
}

// ---------------------------------------------------------------- E9

// TPCDS regenerates the TPC-DS extraction experiment.
func TPCDS(w io.Writer, opt Options) ([]QueryTiming, error) {
	scale := tpcds.ScaleUnit
	if opt.Quick {
		scale = tpcds.ScaleTiny
	}
	db := tpcds.NewDatabase(scale, opt.Seed)
	if err := tpcds.PlantWitnesses(db, tpcds.HiddenQueries()); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	tbl := &TextTable{
		Title:  "TPC-DS — Hidden Query Extraction (7 queries; Section 6.2)",
		Header: []string{"query", "total_ms", "minimizer_ms", "rest_ms", "invocations", "verified"},
	}
	var out []QueryTiming
	for _, name := range tpcds.QueryOrder() {
		exe := app.MustSQLExecutable(name, tpcds.HiddenQueries()[name])
		qt := extractOne(exe, db, cfg)
		out = append(out, qt)
		if qt.Err != nil {
			tbl.Add(name, "ERROR", qt.Err, "", "", "")
			continue
		}
		tbl.Add(name, ms(qt.Total), ms(qt.Sampling+qt.Partitioning), ms(qt.Rest), qt.Invocations, qt.Verified)
	}
	tbl.Render(w)
	return out, nil
}

// --------------------------------------------------------------- E10

// AblationRow is one minimizer-configuration measurement.
type AblationRow struct {
	Query       string
	Policy      string
	Sampling    bool
	Minimizer   time.Duration
	Invocations int64
}

// Ablation regenerates the Section 4.2 design-choice study: halving
// policy (largest/smallest/random/roundrobin) and sampling on/off.
func Ablation(w io.Writer, opt Options) ([]AblationRow, error) {
	scale := tpch.Scale100GB
	if opt.Quick {
		scale = tpch.ScaleTiny * 4
	}
	queries := map[string]string{"Q3": tpch.HiddenQueries()["Q3"], "Q5": tpch.HiddenQueries()["Q5"]}
	db := tpch.NewDatabase(scale, opt.Seed)
	if err := tpch.PlantWitnesses(db, queries); err != nil {
		return nil, err
	}
	tbl := &TextTable{
		Title:  "Ablation — Minimizer halving policy and sampling (Section 4.2)",
		Header: []string{"query", "policy", "sampling", "minimizer_ms", "invocations"},
	}
	var out []AblationRow
	for _, q := range []string{"Q3", "Q5"} {
		for _, policy := range []string{"largest", "smallest", "random", "roundrobin"} {
			for _, sampling := range []bool{true, false} {
				cfg := core.DefaultConfig()
				cfg.Seed = opt.Seed
				cfg.HalvingPolicy = policy
				cfg.DisableSampling = !sampling
				cfg.SkipChecker = true
				exe := app.MustSQLExecutable(q, queries[q])
				ext, err := core.Extract(exe, db, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", q, policy, err)
				}
				row := AblationRow{
					Query: q, Policy: policy, Sampling: sampling,
					Minimizer:   ext.Stats.Minimizer(),
					Invocations: ext.Stats.AppInvocations,
				}
				out = append(out, row)
				tbl.Add(q, policy, sampling, ms(row.Minimizer), row.Invocations)
			}
		}
	}
	tbl.Note("paper finding: halving the currently largest table is usually fastest")
	tbl.Render(w)
	return out, nil
}

// --------------------------------------------------------------- E11

// Having regenerates the Section 7 exercise: extraction of having
// predicates via the reworked pipeline.
func Having(w io.Writer, opt Options) ([]QueryTiming, error) {
	db := tpch.NewDatabase(tpch.ScaleTiny*4, opt.Seed)
	if err := tpch.PlantWitnesses(db, tpch.HavingQueries()); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.ExtractHaving = true
	tbl := &TextTable{
		Title:  "Section 7 — Having-Clause Extraction",
		Header: []string{"query", "total_ms", "having_predicates", "verified"},
	}
	var out []QueryTiming
	for _, name := range []string{"H1", "H2", "H3"} {
		exe := app.MustSQLExecutable(name, tpch.HavingQueries()[name])
		qt := QueryTiming{Name: name}
		ext, err := core.Extract(exe, db, cfg)
		if err != nil {
			qt.Err = err
			out = append(out, qt)
			tbl.Add(name, "ERROR", err, "")
			continue
		}
		qt.Total = ext.Stats.Total
		qt.Verified = ext.CheckerVerified
		qt.Summary = ext.Summary()
		out = append(out, qt)
		preds := ""
		for i, h := range ext.Having {
			if i > 0 {
				preds += " and "
			}
			preds += h.String()
		}
		tbl.Add(name, ms(qt.Total), preds, qt.Verified)
	}
	tbl.Render(w)
	return out, nil
}
