package core

import (
	"fmt"
	"math"

	"unmasque/internal/sqldb"
)

// extractAggregations refines the projection list into native
// projections P_E and aggregations A_E (Section 5.2). For each output
// a k+1-row single-group instance is generated in which every
// candidate aggregate of the known scalar function produces a unique
// value, so a single observation identifies the aggregation. Unmapped
// outputs resolve to count(*) or constants.
func (s *Session) extractAggregations() error {
	if len(s.groupBy) == 0 && !s.ungroupedAgg {
		// Plain SPJ query: projections stay native.
		return nil
	}
	for oi := range s.projections {
		p := &s.projections[oi]
		var err error
		switch {
		case p.Constant:
			err = s.resolveUnmapped(oi, p)
		case s.depsAllGrouped(p):
			err = s.resolveGroupConstant(oi, p)
		default:
			err = s.resolveGeneral(oi, p)
		}
		if err != nil {
			return fmt.Errorf("output %q: %w", p.OutputName, err)
		}
	}
	return nil
}

// depsAllGrouped reports whether every dependency of the projection
// is (join-equal to) a group-by column.
func (s *Session) depsAllGrouped(p *Projection) bool {
	for _, d := range p.Deps {
		if !s.groupByContains(d) {
			return false
		}
	}
	return len(p.Deps) > 0
}

// singleGroupInstance builds a k+1-row instance forming exactly one
// output group: the multiplied table's rows share all group-by and
// free columns; overrides pin specific columns.
type aggProbe struct {
	table string
	k     int
	over  map[sqldb.ColRef][]sqldb.Value
}

func (s *Session) runAggProbe(pr aggProbe, oi int) (sqldb.Value, error) {
	d := s.newDgen()
	n := pr.k + 1
	d.setRows(pr.table, n)
	// If the multiplied table participates in join components, the
	// connected tables must provide matching keys. Components touched
	// by explicit overrides are assumed handled by the caller; all
	// other components keep the constant key 1 (dgen default), which
	// joins all n rows against single-row tables.
	for col, vals := range pr.over {
		if len(vals) == 1 {
			d.setConst(col, vals[0], rowsFor(d, col.Table))
		} else {
			d.set(col, vals...)
		}
	}
	db, err := s.materialize(d)
	if err != nil {
		return sqldb.Value{}, err
	}
	res, err := s.run(nil, db)
	if err != nil {
		return sqldb.Value{}, err
	}
	if res.RowCount() != 1 {
		return sqldb.Value{}, fmt.Errorf("aggregation probe produced %d rows, want 1", res.RowCount())
	}
	return res.Rows[0][oi], nil
}

func rowsFor(d *dgen, table string) int {
	if n, ok := d.rows[table]; ok && n > 0 {
		return n
	}
	return 1
}

// resolveUnmapped settles outputs with no column dependencies:
// count(*), a sum over an equality-pinned column, or a constant.
func (s *Session) resolveUnmapped(oi int, p *Projection) error {
	v := p.ConstVal
	// Pick k so that k+1 differs from the constant. (A column pinned
	// to 1 makes sum(col) coincide with count(*) for every k — they
	// are semantically identical under the filter, and count(*) is
	// the canonical choice, so only the constant needs separating.)
	k := 3
	if !v.Null && v.Typ.IsNumeric() {
		for nearly(float64(k+1), v.AsFloat()) {
			k++
		}
	}
	table := s.tables[0]
	got, err := s.runAggProbe(aggProbe{table: table, k: k, over: map[sqldb.ColRef][]sqldb.Value{}}, oi)
	if err != nil {
		return err
	}
	switch {
	case !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), float64(k+1)):
		p.Constant = false
		p.CountStar = true
		p.Agg = sqldb.AggCount
	case sqldb.ApproxEqual(got, v):
		// Looks constant — but count(distinct A) is also constant (1)
		// on every probe where A never varies. Re-probe with varied
		// per-row values before settling on a literal (an extension
		// beyond the paper's base scope, which defers distinct).
		if found, err := s.resolveDistinctCount(oi, p, k); err != nil || found {
			return err
		}
		// Genuine constant output; keep as literal.
	case !got.Null && got.Typ.IsNumeric() && !v.Null && v.Typ.IsNumeric() &&
		nearly(got.AsFloat(), v.AsFloat()*float64(k+1)):
		// Sum over a column pinned by an equality filter.
		col, ok := s.findPinnedNumeric(v, table)
		if !ok {
			return fmt.Errorf("output scales with cardinality but no pinned column matches value %v", v)
		}
		p.Constant = false
		p.Deps = []sqldb.ColRef{col}
		p.Coeffs = []float64{0, 1}
		p.Agg = sqldb.AggSum
	default:
		return fmt.Errorf("unmapped output value %v unexplained by count(*), constant, or pinned sum (probe saw %v)", v, got)
	}
	return nil
}

// resolveDistinctCount hunts for a count(distinct A) hiding behind a
// constant-looking unmapped output: for each extracted table, a
// k+1-row probe varies every free column per row — a distinct-count
// over any of them then reads k+1 instead of 1. A second, per-column
// pass pins down the argument.
func (s *Session) resolveDistinctCount(oi int, p *Projection, k int) (bool, error) {
	for _, table := range s.tables {
		free := s.freeColumnsForDistinct(table, k)
		if len(free) == 0 {
			continue
		}
		over := map[sqldb.ColRef][]sqldb.Value{}
		for col, vals := range free {
			over[col] = vals
		}
		got, err := s.runAggProbe(aggProbe{table: table, k: k, over: over}, oi)
		if err != nil {
			// Group splitting or probe degeneration: not this table.
			continue
		}
		if got.Null || !got.Typ.IsNumeric() || !nearly(got.AsFloat(), float64(k+1)) {
			continue
		}
		// Some column in this table drives a distinct count; isolate it.
		for col, vals := range free {
			single := map[sqldb.ColRef][]sqldb.Value{col: vals}
			got, err := s.runAggProbe(aggProbe{table: table, k: k, over: single}, oi)
			if err != nil {
				continue
			}
			if !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), float64(k+1)) {
				p.Constant = false
				p.Deps = []sqldb.ColRef{col}
				p.Coeffs = []float64{0, 1}
				p.Agg = sqldb.AggCount
				p.Distinct = true
				return true, nil
			}
		}
	}
	return false, nil
}

// freeColumnsForDistinct lists the columns of a table that can take
// k+1 pairwise-distinct s-values without disturbing grouping or
// joins, with those value sequences.
func (s *Session) freeColumnsForDistinct(table string, k int) map[sqldb.ColRef][]sqldb.Value {
	out := map[sqldb.ColRef][]sqldb.Value{}
	for _, cdef := range s.schemas[table].Columns {
		col := sqldb.ColRef{Table: table, Column: cdef.Name}
		if s.inJoinGraph(col) || s.groupByContains(col) || s.eqFiltered(col) {
			continue
		}
		vals := make([]sqldb.Value, 0, k+1)
		seen := map[string]bool{}
		ok := true
		for i := 0; i <= k; i++ {
			v, err := s.sValue(col, i)
			if err != nil || seen[v.GroupKey()] {
				ok = false
				break
			}
			seen[v.GroupKey()] = true
			vals = append(vals, v)
		}
		if ok {
			out[col] = vals
		}
	}
	return out
}

// findPinnedNumeric locates an equality-pinned numeric column whose
// value matches v, preferring the multiplied table.
func (s *Session) findPinnedNumeric(v sqldb.Value, preferred string) (sqldb.ColRef, bool) {
	var fallback sqldb.ColRef
	found := false
	for _, col := range s.filterOrder {
		f := s.filters[col]
		if !f.IsEquality() || f.Kind != FilterRange {
			continue
		}
		if !sqldb.ApproxEqual(f.Lo, v) {
			continue
		}
		if col.Table == preferred {
			return col, true
		}
		if !found {
			fallback, found = col, true
		}
	}
	return fallback, found
}

// resolveGroupConstant handles functions of group-by columns only:
// within one group the function is a constant c, so only sum and
// count are distinguishable from a native projection (min, max and
// avg are all equal to c; the assembler keeps the native form).
func (s *Session) resolveGroupConstant(oi int, p *Projection) error {
	if s.hasNonNumericDep(p) {
		return s.resolveGroupConstantOrdinal(oi, p)
	}
	c, err := s.evalFunction(p, 0)
	if err != nil {
		return err
	}
	// Need c not in {0, 1} so that c, (k+1)c and k+1 can separate.
	variant := 0
	for (nearly(c, 0) || nearly(c, 1)) && variant < 8 {
		variant++
		c, err = s.evalFunction(p, variant)
		if err != nil {
			return err
		}
	}
	if nearly(c, 0) || nearly(c, 1) {
		// Degenerate domain (e.g. a 0/1 flag column): a single probe
		// cannot separate native/sum/count, but two probes at two
		// different constants can.
		return s.resolveGroupConstantTwoProbe(oi, p)
	}
	k := 3
	for nearly(float64(k+1), c) {
		k++
	}
	over := map[sqldb.ColRef][]sqldb.Value{}
	if err := s.pinDeps(p, variant, over); err != nil {
		return err
	}
	got, err := s.runAggProbe(aggProbe{table: p.Deps[0].Table, k: k, over: over}, oi)
	if err != nil {
		return err
	}
	switch {
	case !got.Null && sqldb.ApproxEqual(got, valueLike(got, c)):
		p.Agg = sqldb.AggNone // native projection (≡ min/max/avg)
	case !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), c*float64(k+1)):
		p.Agg = sqldb.AggSum
	case !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), float64(k+1)):
		p.Agg = sqldb.AggCount
	default:
		return fmt.Errorf("group-constant probe value %v matches no aggregate of c=%v", got, c)
	}
	return nil
}

// resolveGroupConstantTwoProbe separates native/sum/count for
// group-constant functions confined to tiny domains (c can only be 0
// or 1): with two probes at constants c_a != c_b the observation
// pairs are distinct — native (c_a, c_b), sum ((k+1)c_a, (k+1)c_b),
// count (k+1, k+1).
func (s *Session) resolveGroupConstantTwoProbe(oi int, p *Projection) error {
	k := 3
	type obs struct{ c, got float64 }
	var seen []obs
	for variant := 0; variant < 10 && len(seen) < 2; variant++ {
		c, err := s.evalFunction(p, variant)
		if err != nil {
			return err
		}
		dup := false
		for _, o := range seen {
			if nearly(o.c, c) {
				dup = true
			}
		}
		if dup {
			continue
		}
		over := map[sqldb.ColRef][]sqldb.Value{}
		if err := s.pinDeps(p, variant, over); err != nil {
			return err
		}
		got, err := s.runAggProbe(aggProbe{table: p.Deps[0].Table, k: k, over: over}, oi)
		if err != nil {
			return err
		}
		if got.Null || !got.Typ.IsNumeric() {
			return fmt.Errorf("two-probe output %v is not numeric", got)
		}
		seen = append(seen, obs{c: c, got: got.AsFloat()})
	}
	if len(seen) < 2 {
		return fmt.Errorf("could not obtain two distinct group-constant values")
	}
	a, b := seen[0], seen[1]
	switch {
	case nearly(a.got, float64(k+1)) && nearly(b.got, float64(k+1)):
		p.Agg = sqldb.AggCount
	case nearly(a.got, a.c) && nearly(b.got, b.c):
		p.Agg = sqldb.AggNone
	case nearly(a.got, a.c*float64(k+1)) && nearly(b.got, b.c*float64(k+1)):
		p.Agg = sqldb.AggSum
	default:
		return fmt.Errorf("two-probe observations (%v,%v),(%v,%v) match no aggregate", a.c, a.got, b.c, b.got)
	}
	return nil
}

// hasNonNumericDep reports whether any dependency column is date,
// text or bool.
func (s *Session) hasNonNumericDep(p *Projection) bool {
	for _, d := range p.Deps {
		def, err := s.column(d)
		if err != nil {
			return true
		}
		if def.Type != sqldb.TInt && def.Type != sqldb.TFloat {
			return true
		}
	}
	return false
}

// resolveGroupConstantOrdinal settles fully grouped date/text/bool
// outputs: within one group the value is constant, so only count
// separates from a native projection (min/max equal the value; sum
// and avg are not defined on these types).
func (s *Session) resolveGroupConstantOrdinal(oi int, p *Projection) error {
	k := 3
	over := map[sqldb.ColRef][]sqldb.Value{}
	if err := s.pinDeps(p, 0, over); err != nil {
		return err
	}
	got, err := s.runAggProbe(aggProbe{table: p.Deps[0].Table, k: k, over: over}, oi)
	if err != nil {
		return err
	}
	if !got.Null && got.Typ == sqldb.TInt && got.I == int64(k+1) {
		p.Agg = sqldb.AggCount
		return nil
	}
	// Expected constant: the dependency value through the (identity
	// or date-offset) function.
	want, err := s.depValue(p.Deps[0], 0)
	if err != nil {
		return err
	}
	if want.Typ == sqldb.TDate && len(p.Coeffs) == 2 {
		want = sqldb.NewDate(want.I + int64(p.Coeffs[0]))
	}
	if sqldb.ApproxEqual(got, want) {
		p.Agg = sqldb.AggNone
		return nil
	}
	return fmt.Errorf("group-constant ordinal probe %v matches neither the value %v nor count %d", got, want, k+1)
}

// pinDeps pins every dependency of p to its variant s-value in the
// probe instance (group-by columns must stay common across rows).
func (s *Session) pinDeps(p *Projection, variant int, over map[sqldb.ColRef][]sqldb.Value) error {
	for _, dcol := range p.Deps {
		v, err := s.depValue(dcol, variant)
		if err != nil {
			return err
		}
		if comp := s.componentOf(dcol); comp != nil {
			for _, c := range comp.cols {
				over[c] = []sqldb.Value{v}
			}
		} else {
			over[dcol] = []sqldb.Value{v}
		}
	}
	return nil
}

// depValue picks the variant s-value of a dependency column (keys use
// positive integers).
func (s *Session) depValue(col sqldb.ColRef, variant int) (sqldb.Value, error) {
	if s.inJoinGraph(col) {
		return sqldb.NewInt(int64(2 + variant)), nil
	}
	return s.sValue(col, variant)
}

// evalFunction evaluates the multi-linear function at its deps'
// variant s-values.
func (s *Session) evalFunction(p *Projection, variant int) (float64, error) {
	xs := make([]float64, len(p.Deps))
	for i, d := range p.Deps {
		v, err := s.depValue(d, variant)
		if err != nil {
			return 0, err
		}
		if v.Null || !v.Typ.IsNumeric() {
			return 0, fmt.Errorf("dependency %s is not numeric", d)
		}
		xs[i] = v.AsFloat()
	}
	return evalMultilinear(p.Coeffs, xs), nil
}

func evalMultilinear(coeffs []float64, xs []float64) float64 {
	total := 0.0
	for mask, c := range coeffs {
		if c == 0 {
			continue
		}
		term := c
		for bit := range xs {
			if mask&(1<<bit) != 0 {
				term *= xs[bit]
			}
		}
		total += term
	}
	return total
}

// valueLike wraps a float as a value of the same family as got, for
// ApproxEqual comparisons.
func valueLike(got sqldb.Value, f float64) sqldb.Value {
	if got.Typ == sqldb.TInt && f == math.Trunc(f) {
		return sqldb.NewInt(int64(f))
	}
	return sqldb.NewFloat(f)
}

// resolveGeneral handles functions with at least one ungrouped
// dependency: the classic k-vs-1 value split over that argument.
func (s *Session) resolveGeneral(oi int, p *Projection) error {
	// Choose the vary-argument: the first dependency not in G_E.
	vi := -1
	for i, d := range p.Deps {
		if !s.groupByContains(d) {
			vi = i
			break
		}
	}
	if vi < 0 {
		return fmt.Errorf("internal: resolveGeneral with fully grouped deps")
	}
	vcol := p.Deps[vi]
	def, err := s.column(vcol)
	if err != nil {
		return err
	}
	switch def.Type {
	case sqldb.TDate, sqldb.TText, sqldb.TBool:
		return s.resolveOrdinal(oi, p, vcol, def)
	}

	// Numeric path: find s-value pair with o1 != o2, o1 != 0.
	var si, si2 sqldb.Value
	var o1, o2 float64
	okPair := false
	for variant := 0; variant < 12 && !okPair; variant++ {
		a, err := s.depValue(vcol, variant)
		if err != nil {
			continue
		}
		b, err := s.depValue(vcol, variant+1)
		if err != nil {
			continue
		}
		if sqldb.Equal(a, b) {
			continue
		}
		oa, err := s.evalFunctionAt(p, vi, a, variant)
		if err != nil {
			return err
		}
		ob, err := s.evalFunctionAt(p, vi, b, variant)
		if err != nil {
			return err
		}
		if nearly(oa, ob) {
			continue
		}
		if nearly(oa, 0) {
			oa, ob = ob, oa
			a, b = b, a
		}
		if nearly(oa, 0) {
			continue
		}
		si, si2, o1, o2, okPair = a, b, oa, ob, true
		// Pin the other deps at this variant for probe construction.
		if err := s.pinOtherDeps(p, vi, variant); err != nil {
			return err
		}
	}
	if !okPair {
		return fmt.Errorf("could not find argument values separating aggregates for %s", vcol)
	}

	k := pickK(o1, o2)
	over := map[sqldb.ColRef][]sqldb.Value{}
	for col, v := range s.pinned {
		over[col] = []sqldb.Value{v}
	}
	// The varied column: k rows at si, one at si'.
	vals := make([]sqldb.Value, k+1)
	for i := 0; i < k; i++ {
		vals[i] = si
	}
	vals[k] = si2
	if comp := s.componentOf(vcol); comp != nil {
		// Key argument: connected tables need both key values.
		for _, c := range comp.cols {
			if c.Table == vcol.Table {
				over[c] = vals
			} else {
				over[c] = []sqldb.Value{si, si2}
			}
		}
		got, err := s.runAggProbeJoin(vcol, comp, k, over, oi)
		if err != nil {
			return err
		}
		return s.matchAggregate(p, got, o1, o2, k)
	}
	over[vcol] = vals
	got, err := s.runAggProbe(aggProbe{table: vcol.Table, k: k, over: over}, oi)
	if err != nil {
		return err
	}
	return s.matchAggregate(p, got, o1, o2, k)
}

// runAggProbeJoin is the Case-2 variant: connected tables carry two
// rows keyed by the two argument values.
func (s *Session) runAggProbeJoin(vcol sqldb.ColRef, comp *joinComponent, k int, over map[sqldb.ColRef][]sqldb.Value, oi int) (sqldb.Value, error) {
	d := s.newDgen()
	d.setRows(vcol.Table, k+1)
	for t := range comp.tablesOf() {
		if t != vcol.Table {
			d.setRows(t, 2)
		}
	}
	for col, vals := range over {
		if len(vals) == 1 {
			d.setConst(col, vals[0], rowsFor(d, col.Table))
		} else {
			d.set(col, vals...)
		}
	}
	db, err := s.materialize(d)
	if err != nil {
		return sqldb.Value{}, err
	}
	res, err := s.run(nil, db)
	if err != nil {
		return sqldb.Value{}, err
	}
	if res.RowCount() != 1 {
		return sqldb.Value{}, fmt.Errorf("join aggregation probe produced %d rows, want 1", res.RowCount())
	}
	return res.Rows[0][oi], nil
}

// matchAggregate compares the observed output against the five unique
// candidate values.
func (s *Session) matchAggregate(p *Projection, got sqldb.Value, o1, o2 float64, k int) error {
	if got.Null || !got.Typ.IsNumeric() {
		return fmt.Errorf("aggregation probe output %v is not numeric", got)
	}
	g := got.AsFloat()
	switch {
	case nearly(g, math.Min(o1, o2)):
		p.Agg = sqldb.AggMin
	case nearly(g, math.Max(o1, o2)):
		p.Agg = sqldb.AggMax
	case nearly(g, float64(k+1)):
		p.Agg = sqldb.AggCount
	case nearly(g, float64(k)*o1+o2):
		p.Agg = sqldb.AggSum
	case nearly(g, (float64(k)*o1+o2)/float64(k+1)):
		p.Agg = sqldb.AggAvg
	case nearly(g, 2) && !nearly(float64(k+1), 2):
		// Extension beyond the paper's base scope: the probe carried
		// exactly two distinct argument values, so an output of 2 that
		// matches none of the five plain aggregates identifies
		// count(distinct A). The checker's D_I and instance stages
		// guard against a coincidental collision.
		p.Agg = sqldb.AggCount
		p.Distinct = true
	default:
		return fmt.Errorf("probe output %v matches no aggregate (o1=%v o2=%v k=%d)", g, o1, o2, k)
	}
	return nil
}

// resolveOrdinal identifies min/max/count over date, text and bool
// functions (identity class) by observing which of two ordered values
// the single-group output reports.
func (s *Session) resolveOrdinal(oi int, p *Projection, vcol sqldb.ColRef, def sqldb.Column) error {
	v1, v2, ok, err := s.sValuePair(vcol)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("argument %s is pinned; cannot separate aggregates", vcol)
	}
	if c, err := sqldb.Compare(v1, v2); err == nil && c > 0 {
		v1, v2 = v2, v1
	}
	k := 2
	over := map[sqldb.ColRef][]sqldb.Value{}
	vals := []sqldb.Value{v1, v1, v2}
	over[vcol] = vals
	got, err := s.runAggProbe(aggProbe{table: vcol.Table, k: k, over: over}, oi)
	if err != nil {
		return err
	}
	// Account for a date offset function: O = A + d.
	adjust := func(v sqldb.Value) sqldb.Value {
		if def.Type == sqldb.TDate && len(p.Coeffs) == 2 {
			return sqldb.NewDate(v.I + int64(p.Coeffs[0]))
		}
		return v
	}
	switch {
	case sqldb.ApproxEqual(got, adjust(v1)):
		p.Agg = sqldb.AggMin
	case sqldb.ApproxEqual(got, adjust(v2)):
		p.Agg = sqldb.AggMax
	case !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), float64(k+1)):
		p.Agg = sqldb.AggCount
	case !got.Null && got.Typ.IsNumeric() && nearly(got.AsFloat(), 2):
		// Two distinct argument values in the probe: count(distinct).
		p.Agg = sqldb.AggCount
		p.Distinct = true
	default:
		return fmt.Errorf("ordinal probe output %v matches no aggregate of (%v, %v)", got, v1, v2)
	}
	return nil
}

// evalFunctionAt evaluates the function with dependency vi at value v
// and the others at the variant s-value.
func (s *Session) evalFunctionAt(p *Projection, vi int, v sqldb.Value, variant int) (float64, error) {
	xs := make([]float64, len(p.Deps))
	for i, d := range p.Deps {
		if i == vi {
			if v.Null || !v.Typ.IsNumeric() {
				return 0, fmt.Errorf("argument %s is not numeric", d)
			}
			xs[i] = v.AsFloat()
			continue
		}
		dv, err := s.depValue(d, variant)
		if err != nil {
			return 0, err
		}
		if dv.Null || !dv.Typ.IsNumeric() {
			return 0, fmt.Errorf("dependency %s is not numeric", d)
		}
		xs[i] = dv.AsFloat()
	}
	return evalMultilinear(p.Coeffs, xs), nil
}

// pinOtherDeps records the probe-time values of the non-varied
// dependencies in the session scratch map.
func (s *Session) pinOtherDeps(p *Projection, vi int, variant int) error {
	if s.pinned == nil {
		s.pinned = map[sqldb.ColRef]sqldb.Value{}
	}
	for k := range s.pinned {
		delete(s.pinned, k)
	}
	for i, d := range p.Deps {
		if i == vi {
			continue
		}
		v, err := s.depValue(d, variant)
		if err != nil {
			return err
		}
		if comp := s.componentOf(d); comp != nil {
			for _, c := range comp.cols {
				s.pinned[c] = v
			}
		} else {
			s.pinned[d] = v
		}
	}
	return nil
}

// pickK returns the smallest positive k making the five aggregate
// candidates pairwise distinct — the direct-search equivalent of the
// paper's closed-form forbidden set (Equation 2); the two are
// property-tested against each other.
func pickK(o1, o2 float64) int {
	for k := 1; ; k++ {
		if aggCandidatesDistinct(o1, o2, k) {
			return k
		}
	}
}

func aggCandidatesDistinct(o1, o2 float64, k int) bool {
	c := []float64{
		math.Min(o1, o2),
		math.Max(o1, o2),
		float64(k + 1),
		float64(k)*o1 + o2,
		(float64(k)*o1 + o2) / float64(k+1),
	}
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if nearly(c[i], c[j]) {
				return false
			}
		}
	}
	return true
}

// forbiddenKValues is the closed-form Equation 2 set: every real k at
// which two aggregate candidates coincide (assuming o1 != o2, o1 != 0).
func forbiddenKValues(o1, o2 float64) []float64 {
	out := []float64{
		0,         // sum==min/max at o2; avg==o2
		o1 - 1,    // count==o1
		o2 - 1,    // count==o2
		1 - o2/o1, // sum==o1
		-o2 / o1,  // sum==0 (sum==avg)
	}
	if o1 != 1 {
		out = append(out, (1-o2)/(o1-1)) // sum==count
	}
	// avg==count: k^2 + (2-o1)k + (1-o2) = 0.
	disc := (o1-2)*(o1-2) + 4*(o2-1)
	if disc >= 0 {
		r := math.Sqrt(disc)
		out = append(out, ((o1-2)+r)/2, ((o1-2)-r)/2)
	}
	return out
}
