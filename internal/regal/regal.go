// Package regal re-implements the REGAL-style query reverse
// engineering baseline the paper compares against (Tan et al., PVLDB
// 2017/2018): given only a database instance D_I and a result R_I, it
// speculatively enumerates candidate SPJA queries and prunes them by
// executing against D_I.
//
// The pipeline follows the published structure (and Section 8's
// description):
//
//  1. value-based candidate discovery — every result column is
//     matched against every database column by value containment
//     (a full scan of D_I);
//  2. join enumeration — candidate table sets are connected along
//     the schema graph;
//  3. materialization + lattice search — each candidate view is
//     joined on the full D_I, then grouping subsets and aggregate
//     candidates are evaluated until one reproduces R_I;
//  4. backward filter inference — ranges over non-projected columns
//     are derived from the contributing view partition.
//
// The instance-based nature of the search is what Figure 8 measures:
// cost grows with |D_I| and the candidate space, hitting the time or
// memory caps (DNC) on unlucky inputs, whereas UNMASQUE's cost is
// concentrated in minimization. It is also what Figure 2 illustrates
// semantically: the output is only instance-equivalent, so filters
// and grouping may diverge from the hidden query.
package regal

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"unmasque/internal/sqldb"
)

// Config caps the search.
type Config struct {
	// Timeout bounds the whole reverse-engineering run; exceeding it
	// yields DNC (paper: "REGAL either took several hours or ... ran
	// out of memory").
	Timeout time.Duration
	// MaxViewRows bounds materialized join sizes; exceeding it yields
	// DNC (the memory analogue).
	MaxViewRows int
	// MaxTables bounds candidate join sizes.
	MaxTables int
}

// DefaultConfig mirrors a generously provisioned run.
func DefaultConfig() Config {
	return Config{Timeout: 5 * time.Minute, MaxViewRows: 2_000_000, MaxTables: 4}
}

// Output is the outcome of one reverse-engineering run.
type Output struct {
	// Query is the instance-equivalent candidate, nil when none was
	// found or the run did not complete.
	Query *sqldb.SelectStmt
	// DNC marks a run that hit the time or memory cap.
	DNC bool
	// Reason explains a nil Query.
	Reason  string
	Elapsed time.Duration
	// CandidatesTried counts evaluated candidate queries.
	CandidatesTried int
}

// ReverseEngineer searches for a candidate query Q with Q(D_I) = R_I.
func ReverseEngineer(db *sqldb.Database, res *sqldb.Result, cfg Config) *Output {
	start := time.Now()
	out := &Output{}
	deadline := start.Add(cfg.Timeout)
	e := &engine{db: db, target: res, cfg: cfg, deadline: deadline, out: out}
	q, err := e.search()
	out.Elapsed = time.Since(start)
	if err != nil {
		if err == errTimeout || err == errMemory {
			out.DNC = true
		}
		out.Reason = err.Error()
		return out
	}
	out.Query = q
	return out
}

var (
	errTimeout = fmt.Errorf("time cap exceeded")
	errMemory  = fmt.Errorf("materialized view exceeds the memory cap")
	errNoMatch = fmt.Errorf("no instance-equivalent candidate found")
)

type engine struct {
	db       *sqldb.Database
	target   *sqldb.Result
	cfg      Config
	deadline time.Time
	out      *Output
}

func (e *engine) checkDeadline() error {
	if time.Now().After(e.deadline) {
		return errTimeout
	}
	return nil
}

// colCandidate is a database column whose values cover a result
// column.
type colCandidate struct {
	col sqldb.ColRef
	def sqldb.Column
}

// search runs the full pipeline.
func (e *engine) search() (*sqldb.SelectStmt, error) {
	if e.target.RowCount() == 0 {
		return nil, fmt.Errorf("empty target result")
	}
	// Step 1: per-result-column candidates by value containment —
	// the full-instance scan that dominates on large D_I.
	direct := make([][]colCandidate, len(e.target.Columns))
	var aggCols []colCandidate // numeric columns usable under aggregates
	for _, tname := range e.db.TableNames() {
		tbl, err := e.db.Table(tname)
		if err != nil {
			return nil, err
		}
		for ci, cdef := range tbl.Schema.Columns {
			if err := e.checkDeadline(); err != nil {
				return nil, err
			}
			cand := colCandidate{col: sqldb.ColRef{Table: tname, Column: cdef.Name}, def: cdef}
			if cdef.Type.IsNumeric() {
				aggCols = append(aggCols, cand)
			}
			for oi := range e.target.Columns {
				if e.valuesContained(oi, tbl, ci) {
					direct[oi] = append(direct[oi], cand)
				}
			}
		}
	}

	// Step 2+3: enumerate candidate assignments, smallest table sets
	// first, evaluate each on D_I.
	assignments := e.enumerateAssignments(direct, aggCols)
	for _, asg := range assignments {
		if err := e.checkDeadline(); err != nil {
			return nil, err
		}
		q, ok, err := e.evaluateAssignment(asg)
		if err != nil {
			return nil, err
		}
		if ok {
			return q, nil
		}
	}
	return nil, errNoMatch
}

// valuesContained reports whether every value of target column oi
// appears in table column ci.
func (e *engine) valuesContained(oi int, tbl *sqldb.Table, ci int) bool {
	seen := map[string]bool{}
	for _, r := range tbl.SnapshotRows() {
		seen[r[ci].GroupKey()] = true
	}
	for _, row := range e.target.Rows {
		v := row[oi]
		if v.Null {
			continue
		}
		if v.Typ == sqldb.TFloat {
			// Aggregated floats rarely appear verbatim; treat float
			// outputs as aggregate-only candidates.
			return false
		}
		if !seen[v.GroupKey()] {
			return false
		}
	}
	return true
}

// assignment maps each result column to either a direct column or an
// aggregate over a column (or count(*)).
type assignment struct {
	items  []assignItem
	tables []string
}

type assignItem struct {
	direct *colCandidate
	agg    sqldb.AggFn // with aggCol, or count(*) when star
	aggCol *colCandidate
	star   bool
}

// enumerateAssignments builds candidate assignments ordered by table
// count. To keep the space bounded it considers, per result column,
// the direct candidates plus aggregate options for numeric columns.
func (e *engine) enumerateAssignments(direct [][]colCandidate, aggCols []colCandidate) []assignment {
	options := make([][]assignItem, len(direct))
	for oi := range direct {
		var opts []assignItem
		for i := range direct[oi] {
			opts = append(opts, assignItem{direct: &direct[oi][i]})
		}
		// Aggregate options for numeric result columns.
		if e.columnLooksNumeric(oi) {
			opts = append(opts, assignItem{agg: sqldb.AggCount, star: true})
			for i := range aggCols {
				for _, fn := range []sqldb.AggFn{sqldb.AggSum, sqldb.AggAvg, sqldb.AggMin, sqldb.AggMax, sqldb.AggCount} {
					opts = append(opts, assignItem{agg: fn, aggCol: &aggCols[i]})
				}
			}
		}
		options[oi] = opts
	}
	var out []assignment
	var rec func(oi int, cur []assignItem)
	rec = func(oi int, cur []assignItem) {
		if len(out) > 20000 {
			return
		}
		if oi == len(options) {
			asg := assignment{items: append([]assignItem(nil), cur...)}
			tset := map[string]bool{}
			for _, it := range asg.items {
				if it.direct != nil {
					tset[it.direct.col.Table] = true
				}
				if it.aggCol != nil {
					tset[it.aggCol.col.Table] = true
				}
			}
			if len(tset) == 0 || len(tset) > e.cfg.MaxTables {
				return
			}
			for t := range tset {
				asg.tables = append(asg.tables, t)
			}
			sort.Strings(asg.tables)
			out = append(out, asg)
			return
		}
		for i := range options[oi] {
			rec(oi+1, append(cur, options[oi][i]))
		}
	}
	rec(0, nil)
	// Fewer tables first; ties prefer fewer aggregates (simpler
	// queries), then deterministic order.
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].tables) != len(out[j].tables) {
			return len(out[i].tables) < len(out[j].tables)
		}
		return aggCount(out[i]) < aggCount(out[j])
	})
	return out
}

func aggCount(a assignment) int {
	n := 0
	for _, it := range a.items {
		if it.agg != sqldb.AggNone || it.star {
			n++
		}
	}
	return n
}

func (e *engine) columnLooksNumeric(oi int) bool {
	for _, row := range e.target.Rows {
		v := row[oi]
		if v.Null {
			continue
		}
		return v.Typ.IsNumeric()
	}
	return false
}

// evaluateAssignment builds candidate queries for one assignment:
// join predicates from the schema graph connecting the tables, a
// grouping lattice over the direct columns, and optional inferred
// range filters; each candidate executes against D_I.
func (e *engine) evaluateAssignment(asg assignment) (*sqldb.SelectStmt, bool, error) {
	joins, connected := e.connectTables(asg.tables)
	if !connected {
		return nil, false, nil
	}
	// Memory cap: estimate the join size by the table product of
	// row counts divided by join selectivity is unknowable; REGAL
	// materializes, so cap on the sum-product bound.
	est := 1
	for _, t := range asg.tables {
		tbl, err := e.db.Table(t)
		if err != nil {
			return nil, false, err
		}
		if tbl.RowCount() == 0 {
			return nil, false, nil
		}
		if est > 0 && tbl.RowCount() > 0 && est > e.cfg.MaxViewRows/tbl.RowCount() {
			// Unfiltered cross-product bound blows the cap; rely on
			// join predicates to keep it linear — materialize and
			// check the actual size below.
			est = e.cfg.MaxViewRows
		} else {
			est *= tbl.RowCount()
		}
	}

	// Grouping candidates: all direct items grouped (the common
	// case), then the lattice of subsets when aggregates are present.
	hasAgg := aggCount(asg) > 0
	items := make([]sqldb.SelectItem, len(asg.items))
	var directCols []sqldb.Expr
	for i, it := range asg.items {
		switch {
		case it.direct != nil:
			col := sqldb.Col(it.direct.col.Table, it.direct.col.Column)
			items[i] = sqldb.SelectItem{Expr: col, Alias: strings.ToLower(e.target.Columns[i])}
			directCols = append(directCols, col)
		case it.star:
			items[i] = sqldb.SelectItem{Expr: &sqldb.AggExpr{Fn: sqldb.AggCount, Star: true}, Alias: strings.ToLower(e.target.Columns[i])}
		default:
			items[i] = sqldb.SelectItem{
				Expr:  &sqldb.AggExpr{Fn: it.agg, Arg: sqldb.Col(it.aggCol.col.Table, it.aggCol.col.Column)},
				Alias: strings.ToLower(e.target.Columns[i]),
			}
		}
	}

	stmt := &sqldb.SelectStmt{Items: items, From: asg.tables, Where: sqldb.AndAll(joins)}
	if hasAgg {
		stmt.GroupBy = directCols
	}
	ok, err := e.matches(stmt)
	if err != nil || ok {
		return stmt, ok, err
	}
	// Backward filter inference: derive candidate range filters from
	// the instance and retry (REGAL's matrix step, simplified to
	// single-dimension ranges).
	withFilters, err := e.inferFilters(stmt)
	if err != nil {
		return nil, false, err
	}
	if withFilters != nil {
		ok, err := e.matches(withFilters)
		if err != nil || ok {
			return withFilters, ok, err
		}
	}
	return nil, false, nil
}

// connectTables builds equi-join predicates linking the tables along
// the schema graph; false when they cannot be connected.
func (e *engine) connectTables(tables []string) ([]sqldb.Expr, bool) {
	if len(tables) == 1 {
		return nil, true
	}
	inSet := map[string]bool{}
	for _, t := range tables {
		inSet[t] = true
	}
	edges := e.db.SchemaGraph().EdgesWithin(inSet)
	// Spanning connection over tables.
	connected := map[string]bool{tables[0]: true}
	var preds []sqldb.Expr
	for changed := true; changed; {
		changed = false
		for _, edge := range edges {
			a, b := edge.A.Table, edge.B.Table
			if connected[a] == connected[b] {
				continue
			}
			preds = append(preds, sqldb.Bin(sqldb.OpEq,
				sqldb.Col(edge.A.Table, edge.A.Column), sqldb.Col(edge.B.Table, edge.B.Column)))
			connected[a], connected[b] = true, true
			changed = true
		}
	}
	for _, t := range tables {
		if !connected[t] {
			return nil, false
		}
	}
	return preds, true
}

// matches executes the candidate on D_I and compares with R_I as a
// multiset.
func (e *engine) matches(stmt *sqldb.SelectStmt) (bool, error) {
	e.out.CandidatesTried++
	remaining := time.Until(e.deadline)
	if remaining <= 0 {
		return false, errTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), remaining)
	defer cancel()
	got, err := e.db.Execute(ctx, stmt)
	if err != nil {
		if ctx.Err() != nil {
			return false, errTimeout
		}
		return false, nil // ill-typed candidate; skip
	}
	if got.RowCount() > e.cfg.MaxViewRows {
		return false, errMemory
	}
	return got.EqualUnordered(e.target), nil
}

// inferFilters derives single-column range filters that exclude the
// non-contributing part of the instance: for every numeric or date
// column of the candidate tables that is not projected, the range of
// the rows contributing to R_I is computed and added when it actually
// excludes rows.
func (e *engine) inferFilters(stmt *sqldb.SelectStmt) (*sqldb.SelectStmt, error) {
	// Contributing rows per table: execute the SPJ core with the row
	// projected, track per-column min/max of rows whose projection
	// appears in the target. A probe row's visible part is the
	// non-aggregate items, which is all a grouped target compares on;
	// a candidate has one item per target column, in target order.
	var visible []int
	for oi, it := range stmt.Items {
		if !sqldb.HasAggregate(it.Expr) {
			visible = append(visible, oi)
		}
	}
	targetKeys := map[string]bool{}
	key := make(sqldb.Row, len(visible))
	for _, row := range e.target.Rows {
		for i, oi := range visible {
			key[i] = row[oi]
		}
		targetKeys[sqldb.RowKey(key)] = true
	}
	var filters []sqldb.Expr
	// Projected dimensions: the target column's own value range bounds
	// the filter directly (REGAL derives partition limits from the
	// result matrix).
	for oi, it := range stmt.Items {
		c, ok := it.Expr.(*sqldb.ColumnExpr)
		if !ok || oi >= len(e.target.Columns) {
			continue
		}
		tbl, err := e.db.Table(c.Table)
		if err != nil {
			continue
		}
		def, err := tbl.Schema.Column(c.Column)
		if err != nil || (def.Type != sqldb.TInt && def.Type != sqldb.TFloat && def.Type != sqldb.TDate) {
			continue
		}
		lo, hi, any := resultColumnRange(e.target, oi)
		if !any {
			continue
		}
		full := columnRange(tbl, c.Column)
		if full == nil || (sqldb.Equal(*full[0], lo) && sqldb.Equal(*full[1], hi)) {
			continue
		}
		filters = append(filters, &sqldb.BetweenExpr{
			X:  sqldb.Col(c.Table, c.Column),
			Lo: sqldb.Lit(lo), Hi: sqldb.Lit(hi),
		})
	}
	for _, tname := range stmt.From {
		tbl, err := e.db.Table(tname)
		if err != nil {
			return nil, err
		}
		for _, cdef := range tbl.Schema.Columns {
			if cdef.Type != sqldb.TInt && cdef.Type != sqldb.TFloat && cdef.Type != sqldb.TDate {
				continue
			}
			if isProjected(stmt, tname, cdef.Name) {
				continue
			}
			lo, hi, any, err := e.contributingRange(stmt, tname, cdef.Name, targetKeys)
			if err != nil {
				return nil, err
			}
			if !any {
				continue
			}
			full := columnRange(tbl, cdef.Name)
			if full == nil {
				continue
			}
			if sqldb.Equal(*full[0], lo) && sqldb.Equal(*full[1], hi) {
				continue // range excludes nothing
			}
			filters = append(filters, &sqldb.BetweenExpr{
				X:  sqldb.Col(tname, cdef.Name),
				Lo: sqldb.Lit(lo), Hi: sqldb.Lit(hi),
			})
		}
	}
	if len(filters) == 0 {
		return nil, nil
	}
	out := *stmt
	out.Where = sqldb.AndAll(append(sqldb.Conjuncts(stmt.Where), filters...))
	return &out, nil
}

func isProjected(stmt *sqldb.SelectStmt, table, column string) bool {
	for _, it := range stmt.Items {
		if c, ok := it.Expr.(*sqldb.ColumnExpr); ok &&
			strings.EqualFold(c.Table, table) && strings.EqualFold(c.Column, column) {
			return true
		}
	}
	return false
}

// contributingRange runs the candidate extended with the probe
// column, keeping the min/max of probe values on rows whose visible
// part is the visible part of a target row (targetKeys holds those
// parts' sqldb.RowKey).
func (e *engine) contributingRange(stmt *sqldb.SelectStmt, table, column string, targetKeys map[string]bool) (lo, hi sqldb.Value, any bool, err error) {
	probe := *stmt
	probe.GroupBy = nil // examine the SPJ core
	items := make([]sqldb.SelectItem, 0, len(stmt.Items)+1)
	for _, it := range stmt.Items {
		if sqldb.HasAggregate(it.Expr) {
			continue
		}
		items = append(items, it)
	}
	visible := len(items)
	items = append(items, sqldb.SelectItem{Expr: sqldb.Col(table, column), Alias: "probe_col"})
	probe.Items = items
	remaining := time.Until(e.deadline)
	if remaining <= 0 {
		return lo, hi, false, errTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), remaining)
	defer cancel()
	res, err := e.db.Execute(ctx, &probe)
	if err != nil {
		if ctx.Err() != nil {
			return lo, hi, false, errTimeout
		}
		return lo, hi, false, nil
	}
	if res.RowCount() > e.cfg.MaxViewRows {
		return lo, hi, false, errMemory
	}
	for _, row := range res.Rows {
		if !targetKeys[sqldb.RowKey(row[:visible])] {
			continue
		}
		v := row[len(row)-1]
		if v.Null {
			continue
		}
		if !any {
			lo, hi, any = v, v, true
			continue
		}
		if c, err := sqldb.Compare(v, lo); err == nil && c < 0 {
			lo = v
		}
		if c, err := sqldb.Compare(v, hi); err == nil && c > 0 {
			hi = v
		}
	}
	return lo, hi, any, nil
}

// resultColumnRange computes the min/max of one target column.
func resultColumnRange(res *sqldb.Result, oi int) (lo, hi sqldb.Value, any bool) {
	for _, row := range res.Rows {
		v := row[oi]
		if v.Null {
			continue
		}
		if !any {
			lo, hi, any = v, v, true
			continue
		}
		if c, err := sqldb.Compare(v, lo); err == nil && c < 0 {
			lo = v
		}
		if c, err := sqldb.Compare(v, hi); err == nil && c > 0 {
			hi = v
		}
	}
	return lo, hi, any
}

// columnRange returns pointers to the min and max values of a column.
func columnRange(tbl *sqldb.Table, column string) []*sqldb.Value {
	ci := tbl.Schema.ColumnIndex(column)
	rows := tbl.SnapshotRows()
	if ci < 0 || len(rows) == 0 {
		return nil
	}
	lo, hi := rows[0][ci], rows[0][ci]
	for _, r := range rows {
		v := r[ci]
		if v.Null {
			continue
		}
		if c, err := sqldb.Compare(v, lo); err == nil && c < 0 {
			lo = v
		}
		if c, err := sqldb.Compare(v, hi); err == nil && c > 0 {
			hi = v
		}
	}
	return []*sqldb.Value{&lo, &hi}
}
