package core

import (
	"fmt"
	"math"

	"unmasque/internal/sqldb"
)

// extractFilters recovers F_E (Section 4.4): every non-key column of
// the extracted tables is probed with domain-extreme values on a
// clone of D_1; the population pattern of the two probes selects one
// of the four cases of Table 2, and binary searches pin the bounds.
//
// Each column's search is a chain of dependent probes, but distinct
// columns never interact (every probe clones D_1 and rewrites only
// its own column), so the per-column extractions fan out over the
// scheduler's worker pool. Results land positionally and are folded
// into the filter map in the sequential column order, keeping the
// assembled predicate list — and hence the extracted SQL text —
// independent of the worker count.
func (s *Session) extractFilters() error {
	var cols []sqldb.ColRef
	for _, col := range s.allColumns() {
		if s.isKeyColumn(col) || s.inJoinGraph(col) {
			continue // EQC: filters feature only non-key columns
		}
		cols = append(cols, col)
	}
	found := make([]*FilterPredicate, len(cols))
	err := s.parallelFor(len(cols), func(pc *probeCtx, i int) error {
		f, err := s.extractColumnFilter(pc, cols[i])
		if err != nil {
			return fmt.Errorf("column %s: %w", cols[i], err)
		}
		found[i] = f
		return nil
	})
	if err != nil {
		return err
	}
	for i, col := range cols {
		if f := found[i]; f != nil {
			s.filters[col] = *f
			s.filterOrder = append(s.filterOrder, col)
		}
	}
	s.filtersKnown = true
	return nil
}

// extractColumnFilter dispatches one column to the type-specific
// Table 2 search; nil means the column carries no filter.
func (s *Session) extractColumnFilter(pc *probeCtx, col sqldb.ColRef) (*FilterPredicate, error) {
	def, err := s.column(col)
	if err != nil {
		return nil, err
	}
	switch def.Type {
	case sqldb.TInt, sqldb.TDate, sqldb.TFloat:
		return s.extractNumericFilter(pc, col, def)
	case sqldb.TText:
		return s.extractTextFilter(pc, col, def)
	case sqldb.TBool:
		return s.extractBoolFilter(pc, col)
	default:
		return nil, nil
	}
}

// valueProbe sets every row of col in a clone of the minimized
// database to v and reports whether the result stays populated.
func (s *Session) valueProbe(pc *probeCtx, col sqldb.ColRef, v sqldb.Value) (bool, error) {
	db := s.cloneD1()
	tbl, err := db.Table(col.Table)
	if err != nil {
		return false, err
	}
	if err := tbl.SetAll(col.Column, v); err != nil {
		return false, err
	}
	return s.populated(pc, db)
}

// numericScale maps a column onto an integer probe grid: dates and
// ints are 1:1; fixed-precision floats are scaled by 10^precision so
// one binary search covers both integral and fractional bounds
// (equivalent to the paper's two-phase search, same probe count up to
// a constant).
func numericScale(def sqldb.Column) int64 {
	if def.Type == sqldb.TFloat {
		return int64(math.Pow10(def.FloatPrecision()))
	}
	return 1
}

// gridValue converts a scaled grid point back into a column value.
func gridValue(def sqldb.Column, g int64, scale int64) sqldb.Value {
	switch def.Type {
	case sqldb.TFloat:
		return sqldb.NewFloat(float64(g) / float64(scale))
	case sqldb.TDate:
		return sqldb.NewDate(g)
	default:
		return sqldb.NewInt(g)
	}
}

// extractNumericFilter implements Table 2 for int, date and
// fixed-precision float columns.
func (s *Session) extractNumericFilter(pc *probeCtx, col sqldb.ColRef, def sqldb.Column) (*FilterPredicate, error) {
	scale := numericScale(def)
	gMin := def.DomainMin() * scale
	gMax := def.DomainMax() * scale

	a, err := s.d1Value(col)
	if err != nil {
		return nil, err
	}
	if a.Null {
		// A NULL survives in D_1 only if the column carries no
		// value predicate (a filtered NULL row would be empty);
		// NULL-specific predicates are out of scope here.
		return nil, nil
	}
	var gA int64
	if def.Type == sqldb.TFloat {
		gA = int64(math.Round(a.F * float64(scale)))
	} else {
		gA = a.I
	}

	loPop, err := s.valueProbe(pc, col, gridValue(def, gMin, scale))
	if err != nil {
		return nil, err
	}
	hiPop, err := s.valueProbe(pc, col, gridValue(def, gMax, scale))
	if err != nil {
		return nil, err
	}
	if loPop && hiPop {
		return nil, nil // Case 1: no predicate
	}

	f := &FilterPredicate{Col: col, Kind: FilterRange}
	if !loPop { // Cases 2 and 4: find l
		g, err := s.searchLowerBound(pc, col, def, scale, gMin, gA)
		if err != nil {
			return nil, err
		}
		f.Lo, f.HasLo = gridValue(def, g, scale), true
	}
	if !hiPop { // Cases 3 and 4: find r
		g, err := s.searchUpperBound(pc, col, def, scale, gA, gMax)
		if err != nil {
			return nil, err
		}
		f.Hi, f.HasHi = gridValue(def, g, scale), true
	}
	return f, nil
}

// searchLowerBound finds the smallest grid point in [lo, a] whose
// probe keeps the result populated (the filter's l).
func (s *Session) searchLowerBound(pc *probeCtx, col sqldb.ColRef, def sqldb.Column, scale, lo, a int64) (int64, error) {
	for lo < a {
		mid := lo + (a-lo)/2
		ok, err := s.valueProbe(pc, col, gridValue(def, mid, scale))
		if err != nil {
			return 0, err
		}
		if ok {
			a = mid
		} else {
			lo = mid + 1
		}
	}
	return a, nil
}

// searchUpperBound finds the largest grid point in [a, hi] whose
// probe keeps the result populated (the filter's r).
func (s *Session) searchUpperBound(pc *probeCtx, col sqldb.ColRef, def sqldb.Column, scale, a, hi int64) (int64, error) {
	for a < hi {
		mid := a + (hi-a+1)/2
		ok, err := s.valueProbe(pc, col, gridValue(def, mid, scale))
		if err != nil {
			return 0, err
		}
		if ok {
			a = mid
		} else {
			hi = mid - 1
		}
	}
	return a, nil
}

// extractTextFilter implements Section 4.4.2: existence check via the
// empty string and a single-character probe, MQS discovery via
// per-character substitution (with a deletion probe separating '_'
// from '%'-absorbed characters), then '%' placement via insertion
// probes at every gap including the string boundaries.
func (s *Session) extractTextFilter(pc *probeCtx, col sqldb.ColRef, def sqldb.Column) (*FilterPredicate, error) {
	rep, err := s.d1Value(col)
	if err != nil {
		return nil, err
	}
	if rep.Null {
		return nil, nil
	}

	emptyPop, err := s.valueProbe(pc, col, sqldb.NewText(""))
	if err != nil {
		return nil, err
	}
	singlePop, err := s.valueProbe(pc, col, sqldb.NewText(pickOtherChar(0, 0)))
	if err != nil {
		return nil, err
	}
	if emptyPop && singlePop {
		return nil, nil // only 'like %' behaves this way == no filter
	}

	// MQS discovery over the representative string.
	repS := rep.S
	type posKind uint8
	const (
		literal posKind = iota
		underscore
		absorbed
	)
	kinds := make([]posKind, len(repS))
	for i := 0; i < len(repS); i++ {
		mutated := replaceAt(repS, i, pickOtherChar(repS[i], 0))
		pop, err := s.valueProbe(pc, col, sqldb.NewText(mutated))
		if err != nil {
			return nil, err
		}
		if !pop {
			kinds[i] = literal
			continue
		}
		// Wildcard position: deletion distinguishes '_' (fixed
		// length) from a '%'-absorbed character.
		deleted := repS[:i] + repS[i+1:]
		pop, err = s.valueProbe(pc, col, sqldb.NewText(deleted))
		if err != nil {
			return nil, err
		}
		if pop {
			kinds[i] = absorbed
		} else {
			kinds[i] = underscore
		}
	}
	var mqs []byte      // pattern characters ('_' for wildcards)
	var mqsValue []byte // a concrete string matching the MQS
	for i := 0; i < len(repS); i++ {
		switch kinds[i] {
		case literal:
			mqs = append(mqs, repS[i])
			mqsValue = append(mqsValue, repS[i])
		case underscore:
			mqs = append(mqs, '_')
			mqsValue = append(mqsValue, repS[i])
		}
	}

	// '%' placement: for every gap (including the boundaries),
	// insert a fresh character into the MQS value; a populated
	// result proves a '%' at that gap.
	hasPercent := make([]bool, len(mqs)+1)
	if len(mqsValue)+1 <= def.TextMaxLen() {
		for g := 0; g <= len(mqsValue); g++ {
			var left, right byte
			if g > 0 {
				left = mqsValue[g-1]
			}
			if g < len(mqsValue) {
				right = mqsValue[g]
			}
			ins := pickOtherChar(left, right)
			candidate := string(mqsValue[:g]) + ins + string(mqsValue[g:])
			pop, err := s.valueProbe(pc, col, sqldb.NewText(candidate))
			if err != nil {
				return nil, err
			}
			hasPercent[g] = pop
		}
	}

	var pattern []byte
	anyWild := false
	for g := 0; g <= len(mqs); g++ {
		if hasPercent[g] {
			pattern = append(pattern, '%')
			anyWild = true
		}
		if g < len(mqs) {
			pattern = append(pattern, mqs[g])
			if mqs[g] == '_' {
				anyWild = true
			}
		}
	}
	f := &FilterPredicate{Col: col}
	if anyWild {
		f.Kind = FilterLike
		f.Pattern = string(pattern)
	} else {
		f.Kind = FilterTextEq
		f.Pattern = string(pattern)
	}
	return f, nil
}

// replaceAt substitutes the byte at index i.
func replaceAt(s string, i int, c string) string {
	return s[:i] + c + s[i+1:]
}

// pickOtherChar returns a lower-case letter different from both
// arguments (and from the wildcard bytes).
func pickOtherChar(a, b byte) string {
	for _, c := range []byte{'x', 'y', 'z', 'w'} {
		if c != a && c != b {
			return string(c)
		}
	}
	return "q"
}

// extractBoolFilter probes both truth values; exactly one populated
// probe means an equality predicate.
func (s *Session) extractBoolFilter(pc *probeCtx, col sqldb.ColRef) (*FilterPredicate, error) {
	cur, err := s.d1Value(col)
	if err != nil {
		return nil, err
	}
	if cur.Null {
		return nil, nil
	}
	tPop, err := s.valueProbe(pc, col, sqldb.NewBool(true))
	if err != nil {
		return nil, err
	}
	fPop, err := s.valueProbe(pc, col, sqldb.NewBool(false))
	if err != nil {
		return nil, err
	}
	if tPop == fPop {
		return nil, nil // both or neither: no usable value predicate
	}
	v := sqldb.NewBool(tPop)
	return &FilterPredicate{Col: col, Kind: FilterRange, Lo: v, Hi: v, HasLo: true, HasHi: true}, nil
}
