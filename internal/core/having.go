package core

import (
	"fmt"

	"unmasque/internal/sqldb"
)

// Having extraction (Section 7). The pipeline is reworked: G_E is
// identified right after J_E, then every non-key numeric column goes
// through a *unified* value-constraint extraction that first finds
// the threshold constants (the familiar binary searches on D_1 — a
// lower bound of sum/avg/min over a single-row group coincides with
// the constant itself) and then classifies each bound as a plain
// filter or a having predicate on sum, avg, min or max via
// discriminating multi-row probes:
//
//   - lower bound: a two-row group at half the threshold survives
//     only under sum (values compensate); a group pairing one passing
//     row with one far-below row survives only under a row-level
//     filter (having drops whole groups).
//   - upper bound: duplicating the threshold row kills only sum; a
//     far-above companion row kills max/avg but not a filter; an
//     asymmetric pair separates avg from max.
//
// Count-based having predicates require multi-row minimal databases
// and are outside this implementation's scope (the minimizer reports
// them as unextractable), matching the paper's deferral of the
// general case to its technical report.
//
// The module requires (paper restriction) that filter and having
// attribute sets are disjoint, and extends the minimizer with a
// merge-and-boost refinement (minimizer.go) so that a single-row D_1
// satisfying the aggregate constraints exists before this module
// runs.
func (s *Session) extractFiltersAndHaving() error {
	var cols []sqldb.ColRef
	for _, col := range s.allColumns() {
		if s.isKeyColumn(col) || s.inJoinGraph(col) {
			continue
		}
		cols = append(cols, col)
	}
	for _, col := range cols {
		def, err := s.column(col)
		if err != nil {
			return err
		}
		switch def.Type {
		case sqldb.TText:
			f, err := s.extractTextFilter(nil, col, def)
			if err != nil {
				return fmt.Errorf("column %s: %w", col, err)
			}
			if f != nil {
				s.filters[col] = *f
				s.filterOrder = append(s.filterOrder, col)
			}
		case sqldb.TBool:
			f, err := s.extractBoolFilter(nil, col)
			if err != nil {
				return fmt.Errorf("column %s: %w", col, err)
			}
			if f != nil {
				s.filters[col] = *f
				s.filterOrder = append(s.filterOrder, col)
			}
		case sqldb.TInt, sqldb.TDate, sqldb.TFloat:
			if err := s.extractUnifiedNumeric(col, def); err != nil {
				return fmt.Errorf("column %s: %w", col, err)
			}
		}
	}
	s.filtersKnown = true
	return nil
}

// boundKind classifies one side of a value constraint.
type boundKind uint8

const (
	boundFilter boundKind = iota
	boundSum
	boundAvg
	boundMin // having min(A) >= a (lower side only)
	boundMax // having max(A) <= b (upper side only)
)

// extractUnifiedNumeric finds and classifies the lower/upper value
// constraints of one numeric column.
func (s *Session) extractUnifiedNumeric(col sqldb.ColRef, def sqldb.Column) error {
	raw, err := s.extractNumericFilter(nil, col, def)
	if err != nil {
		return err
	}
	if raw == nil {
		return nil // no constraint on this column
	}
	// Grouping columns cannot carry having aggregates; dates cannot
	// be summed/averaged meaningfully — treat both as filters.
	if s.groupByContains(col) || def.Type == sqldb.TDate {
		s.filters[col] = *raw
		s.filterOrder = append(s.filterOrder, col)
		return nil
	}

	filter := FilterPredicate{Col: col, Kind: FilterRange}
	var hLower, hUpper *HavingPredicate

	if raw.HasLo {
		kind, err := s.classifyLowerBound(col, def, raw.Lo)
		if err != nil {
			return err
		}
		switch kind {
		case boundFilter:
			filter.Lo, filter.HasLo = raw.Lo, true
		case boundSum:
			hLower = &HavingPredicate{Col: col, Fn: sqldb.AggSum, Lo: raw.Lo, HasLo: true}
		case boundAvg:
			hLower = &HavingPredicate{Col: col, Fn: sqldb.AggAvg, Lo: raw.Lo, HasLo: true}
		case boundMin:
			hLower = &HavingPredicate{Col: col, Fn: sqldb.AggMin, Lo: raw.Lo, HasLo: true}
		}
	}
	if raw.HasHi {
		kind, err := s.classifyUpperBound(col, def, raw.Hi)
		if err != nil {
			return err
		}
		switch kind {
		case boundFilter:
			filter.Hi, filter.HasHi = raw.Hi, true
		case boundSum:
			hUpper = &HavingPredicate{Col: col, Fn: sqldb.AggSum, Hi: raw.Hi, HasHi: true}
		case boundAvg:
			hUpper = &HavingPredicate{Col: col, Fn: sqldb.AggAvg, Hi: raw.Hi, HasHi: true}
		case boundMax:
			hUpper = &HavingPredicate{Col: col, Fn: sqldb.AggMax, Hi: raw.Hi, HasHi: true}
		}
	}

	// A sum (or count) upper bound larger than any single row's
	// contribution is invisible to single-row probing; hunt for it
	// with multi-row probes.
	if !raw.HasHi && hUpper == nil {
		h, err := s.detectHighUpperBound(col, def)
		if err != nil {
			return err
		}
		hUpper = h
	}

	if filter.HasLo || filter.HasHi {
		s.filters[col] = filter
		s.filterOrder = append(s.filterOrder, col)
	}
	// Merge same-aggregate bounds into one between-style predicate.
	if hLower != nil && hUpper != nil && hLower.Fn == hUpper.Fn {
		hLower.Hi, hLower.HasHi = hUpper.Hi, true
		hUpper = nil
	}
	if hLower != nil {
		s.having = append(s.having, *hLower)
	}
	if hUpper != nil {
		s.having = append(s.having, *hUpper)
	}
	return nil
}

// multiRowProbe duplicates the column's single D_1 row n times with
// the given per-row values for col. Columns already known to carry a
// sum-type having predicate are scaled by 1/n so their group sums
// survive the duplication; all row-level and avg constraints are
// preserved by plain copying.
func (s *Session) multiRowProbe(col sqldb.ColRef, vals []sqldb.Value) (bool, error) {
	db := s.cloneD1()
	tbl, err := db.Table(col.Table)
	if err != nil {
		return false, err
	}
	if tbl.RowCount() != 1 {
		return false, fmt.Errorf("having probe requires single-row D_1; table %s has %d rows", col.Table, tbl.RowCount())
	}
	n := len(vals)
	for i := 1; i < n; i++ {
		if _, err := tbl.AppendRowCopy(0); err != nil {
			return false, err
		}
	}
	for i, v := range vals {
		if err := tbl.Set(i, col.Column, v); err != nil {
			return false, err
		}
	}
	// Sum-preserving scaling for known sum-having columns of this
	// table (other than the probed one).
	for _, h := range s.having {
		if h.Fn != sqldb.AggSum || h.Col == col || h.Col.Table != col.Table {
			continue
		}
		cur, err := tbl.Get(0, h.Col.Column)
		if err != nil || cur.Null {
			continue
		}
		scaled, err := sqldb.Div(cur, sqldb.NewInt(int64(n)))
		if err != nil {
			continue
		}
		if err := tbl.SetAll(h.Col.Column, scaled); err != nil {
			return false, err
		}
	}
	return s.populated(nil, db)
}

// detectHighUpperBound probes for sum/count upper bounds exceeding a
// single row's reach: group sizes grow geometrically with every row
// at the domain maximum; the first failing size reveals a bound,
// value-sensitivity separates sum from count, and a binary search
// over achievable totals pins the constant.
func (s *Session) detectHighUpperBound(col sqldb.ColRef, def sqldb.Column) (*HavingPredicate, error) {
	scale := numericScale(def)
	gMax := def.DomainMax() * scale
	if gMax <= 0 {
		return nil, nil // non-positive domains: sums cannot exceed a single row
	}
	atMax := func(n int) []sqldb.Value {
		vals := make([]sqldb.Value, n)
		for i := range vals {
			vals[i] = gridValue(def, gMax, scale)
		}
		return vals
	}
	const maxGroup = 64
	failN := 0
	for n := 2; n <= maxGroup; n *= 2 {
		pop, err := s.multiRowProbe(col, atMax(n))
		if err != nil {
			return nil, err
		}
		if !pop {
			failN = n
			break
		}
	}
	if failN == 0 {
		return nil, nil
	}
	// Value sensitivity: the same group size with small values stays
	// populated under a sum bound but still fails under a count
	// bound.
	small := make([]sqldb.Value, failN)
	base, err := s.d1Value(col)
	if err != nil {
		return nil, err
	}
	for i := range small {
		small[i] = base
	}
	pop, err := s.multiRowProbe(col, small)
	if err != nil {
		return nil, err
	}
	if !pop && !sqldb.Equal(base, gridValue(def, gMax, scale)) {
		// Count upper bound: find the largest populated group size.
		lo, hi := failN/2, failN-1
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			pop, err := s.multiRowProbe(col, smallVals(base, mid))
			if err != nil {
				return nil, err
			}
			if pop {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return &HavingPredicate{Col: col, Fn: sqldb.AggCount, Hi: sqldb.NewInt(int64(lo)), HasHi: true}, nil
	}
	// Sum upper bound: binary search the largest populated total over
	// [failN/2 * gMax, failN * gMax], realizing a total T as failN
	// rows with near-equal grid values.
	loT := int64(failN/2) * gMax
	hiT := int64(failN)*gMax - 1
	for loT < hiT {
		mid := loT + (hiT-loT+1)/2
		pop, err := s.multiRowProbe(col, distributeTotal(def, scale, mid, failN))
		if err != nil {
			return nil, err
		}
		if pop {
			loT = mid
		} else {
			hiT = mid - 1
		}
	}
	return &HavingPredicate{Col: col, Fn: sqldb.AggSum, Hi: gridValue(def, loT, scale), HasHi: true}, nil
}

func smallVals(v sqldb.Value, n int) []sqldb.Value {
	out := make([]sqldb.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// distributeTotal renders total T (grid units) as n row values q or
// q+1 summing exactly to T.
func distributeTotal(def sqldb.Column, scale, total int64, n int) []sqldb.Value {
	q := total / int64(n)
	r := total - q*int64(n)
	out := make([]sqldb.Value, n)
	for i := range out {
		g := q
		if int64(i) < r {
			g = q + 1
		}
		out[i] = gridValue(def, g, scale)
	}
	return out
}

// twoRowProbe builds a clone of D_1 with the column's table
// duplicated into two rows carrying values (v1, v2); every other
// column of the duplicate copies row 0 (so joins and group keys
// match), and reports whether the result stays populated.
func (s *Session) twoRowProbe(col sqldb.ColRef, v1, v2 sqldb.Value) (bool, error) {
	db := s.cloneD1()
	tbl, err := db.Table(col.Table)
	if err != nil {
		return false, err
	}
	if tbl.RowCount() != 1 {
		return false, fmt.Errorf("having probe requires single-row D_1; table %s has %d rows", col.Table, tbl.RowCount())
	}
	if _, err := tbl.AppendRowCopy(0); err != nil {
		return false, err
	}
	if err := tbl.Set(0, col.Column, v1); err != nil {
		return false, err
	}
	if err := tbl.Set(1, col.Column, v2); err != nil {
		return false, err
	}
	return s.populated(nil, db)
}

// classifyLowerBound distinguishes filter/min vs sum vs avg for a
// lower threshold a (grid point gA). Probe order matters: each probe
// is conclusive only because earlier probes eliminated alternatives.
func (s *Session) classifyLowerBound(col sqldb.ColRef, def sqldb.Column, a sqldb.Value) (boundKind, error) {
	scale := numericScale(def)
	gA := scaleFloat(a.AsFloat(), scale)
	gMin := def.DomainMin() * scale
	gMax := def.DomainMax() * scale
	probe := func(x, y int64) (bool, error) {
		return s.twoRowProbe(col, gridValue(def, x, scale), gridValue(def, y, scale))
	}

	// Probe S: a two-row group whose values are each strictly below a
	// but sum to a. Only sum(A) >= a survives (filter/min drop rows
	// or the group; avg = a/2 < a). Available when a >= 2 on the
	// grid; for smaller thresholds over signed domains, use a
	// (a+1, -1) pair instead (sum = a; avg, min below).
	switch {
	case gA >= 2:
		hi := (gA + 1) / 2
		lo := gA - hi
		pop, err := probe(hi, lo)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundSum, nil
		}
	case gMin <= -1 && gA+1 <= gMax && gA > 0:
		pop, err := probe(gA+1, -1)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundSum, nil
		}
	}

	// Probe F: one passing row plus one far-below row. A row-level
	// filter keeps the group through the passing row; min and avg
	// (dragged down) kill the whole group, and sum was excluded
	// above (for the far-below value the pair sum falls below a
	// whenever gMin < 0; over non-negative domains sum at small
	// thresholds is unextractable and defaults to filter).
	if gMin < gA {
		pop, err := probe(gA, gMin)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundFilter, nil
		}
	} else {
		return boundFilter, nil // threshold at domain edge
	}

	// Probe V: asymmetric pair (a+3, a-1): mean a+1 >= a survives
	// only under avg; min fails.
	if gA+3 <= gMax && gA-1 >= gMin {
		pop, err := probe(gA+3, gA-1)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundAvg, nil
		}
	}
	// Not a per-row filter (probe F failed), not avg: a min() having
	// predicate. NOTE — deviation from the paper: Section 7 folds
	// min(A) >= a into the filter A >= a, but the two differ on
	// groups with mixed rows (the filter keeps a group through its
	// passing rows; the having drops it whole). The checker's
	// initial-instance comparison rejects the folded form, so the
	// faithful predicate is kept.
	return boundMin, nil
}

// classifyUpperBound distinguishes filter/max vs sum vs avg for an
// upper threshold b (grid point gB).
func (s *Session) classifyUpperBound(col sqldb.ColRef, def sqldb.Column, b sqldb.Value) (boundKind, error) {
	scale := numericScale(def)
	gB := scaleFloat(b.AsFloat(), scale)
	gMin := def.DomainMin() * scale
	gMax := def.DomainMax() * scale
	probe := func(x, y int64) (bool, error) {
		return s.twoRowProbe(col, gridValue(def, x, scale), gridValue(def, y, scale))
	}

	// Probe S: duplicate the threshold value. For positive b the sum
	// doubles past b and only sum(A) <= b empties the result.
	if gB > 0 {
		pop, err := probe(gB, gB)
		if err != nil {
			return 0, err
		}
		if !pop {
			return boundSum, nil
		}
	}

	// Probe F: one passing row plus one far-above row: a filter
	// survives through the passing row; max and avg fail.
	if gMax > gB {
		pop, err := probe(gB, gMax)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundFilter, nil
		}
	} else {
		return boundFilter, nil
	}

	// Probe V: asymmetric pair (b-3, b+1): mean b-1 <= b survives
	// only under avg; max fails.
	if gB-3 >= gMin && gB+1 <= gMax {
		pop, err := probe(gB-3, gB+1)
		if err != nil {
			return 0, err
		}
		if pop {
			return boundAvg, nil
		}
	}
	// Symmetric to the lower side: a genuine max() having predicate.
	return boundMax, nil
}

// havingRowBounds derives per-row value bounds from the extracted
// having predicates on a column: in the single-row-per-group
// instances the generation pipeline builds, sum(A) and avg(A) both
// reduce to A, so their thresholds constrain the row value directly.
func (s *Session) havingRowBounds(col sqldb.ColRef) (lo, hi sqldb.Value, hasLo, hasHi bool) {
	for _, h := range s.having {
		if h.Col != col {
			continue
		}
		if h.HasLo {
			lo, hasLo = h.Lo, true
		}
		if h.HasHi {
			hi, hasHi = h.Hi, true
		}
	}
	return
}

// havingFor returns the having predicate on a column, if any.
func (s *Session) havingFor(col sqldb.ColRef) *HavingPredicate {
	for i := range s.having {
		if s.having[i].Col == col {
			return &s.having[i]
		}
	}
	return nil
}
