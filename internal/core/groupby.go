package core

import "unmasque/internal/sqldb"

// extractGroupBy recovers G_E (Section 5.1). For every candidate
// attribute a tiny synthetic instance is generated whose invisible
// SPJ result contains exactly three rows that agree on every column
// except the attribute under test (two distinct values, split 2/1);
// a two-row final result proves the attribute grouped. Columns pinned
// by equality filters are skipped (their grouping is superfluous),
// and join components are tested once through a representative.
//
// In having mode (Section 7) this module runs before filter
// extraction, so generated instances source their default values from
// D_1 (which satisfies all the still-unknown predicates) instead of
// synthesized s-values, and a sum-preserving retry compensates for
// row multiplication breaking aggregate constraints.
func (s *Session) extractGroupBy() error {
	testedComp := map[int]bool{}
	for _, col := range s.allColumns() {
		if s.eqFiltered(col) {
			continue
		}
		if ci, ok := s.compOf[col]; ok {
			if testedComp[ci] {
				continue
			}
			testedComp[ci] = true
			member, err := s.groupByProbeJoin(&s.components[ci])
			if err != nil {
				return err
			}
			if member {
				rep := s.components[ci].cols[0]
				s.groupBy = append(s.groupBy, rep)
				s.groupBySet[rep] = true
				for _, c := range s.components[ci].cols {
					s.groupBySet[c] = true
				}
			}
			continue
		}
		if s.isKeyColumn(col) {
			// Un-joined key column: groupable like any plain column.
			member, err := s.groupByProbePlain(col)
			if err != nil {
				return err
			}
			if member {
				s.groupBy = append(s.groupBy, col)
				s.groupBySet[col] = true
			}
			continue
		}
		member, err := s.groupByProbePlain(col)
		if err != nil {
			return err
		}
		if member {
			s.groupBy = append(s.groupBy, col)
			s.groupBySet[col] = true
		}
	}
	if len(s.groupBy) > 0 {
		return nil
	}
	// No grouping column found: check for an ungrouped aggregation
	// with a two-row instance in which every free column varies.
	return s.detectUngroupedAgg()
}

// groupByProbePlain implements Case 1 (t.A outside the join graph):
// three rows in A's table with A = (p, p, q), one row elsewhere.
func (s *Session) groupByProbePlain(col sqldb.ColRef) (bool, error) {
	pairs, err := s.candidatePairs(col)
	if err != nil {
		return false, err
	}
	for _, pq := range pairs {
		d := s.newDgen()
		d.setRows(col.Table, 3)
		d.set(col, pq[0], pq[0], pq[1])
		card, err := s.dgenCardinality(d, col.Table, 3)
		if err != nil {
			return false, err
		}
		switch card {
		case 2:
			return true, nil
		case 1, 3:
			return false, nil
		default:
			// Probe inconclusive (likely a violated hidden predicate
			// in having mode); try the next candidate pair.
		}
	}
	return false, nil
}

// groupByProbeJoin implements Case 2 (the attribute belongs to a join
// component): the component's table under test gets three rows with
// keys (1, 1, 2); every other table touched by the component gets two
// rows with keys (1, 2); the rest one row.
func (s *Session) groupByProbeJoin(comp *joinComponent) (bool, error) {
	testTable := comp.cols[0].Table
	d := s.newDgen()
	d.setRows(testTable, 3)
	for t := range comp.tablesOf() {
		if t != testTable {
			d.setRows(t, 2)
		}
	}
	for _, c := range comp.cols {
		if c.Table == testTable {
			d.set(c, sqldb.NewInt(1), sqldb.NewInt(1), sqldb.NewInt(2))
		} else {
			d.set(c, sqldb.NewInt(1), sqldb.NewInt(2))
		}
	}
	card, err := s.dgenCardinality(d, testTable, 3)
	if err != nil {
		return false, err
	}
	return card == 2, nil
}

// detectUngroupedAgg builds a two-row instance where every join
// component carries keys (1,2) and every unpinned column takes two
// distinct values; a single-row result reveals an ungrouped
// aggregation.
func (s *Session) detectUngroupedAgg() error {
	d := s.newDgen()
	for _, t := range s.tables {
		d.setRows(t, 2)
	}
	for i := range s.components {
		d.setComponentKeys(&s.components[i], []int64{1, 2}, d.rowsOfFn())
	}
	for _, col := range s.allColumns() {
		if s.inJoinGraph(col) {
			continue
		}
		pairs, err := s.candidatePairs(col)
		if err != nil {
			return err
		}
		if len(pairs) == 0 {
			continue // pinned: keep the constant default
		}
		d.set(col, pairs[0][0], pairs[0][1])
	}
	card, err := s.dgenCardinality(d, "", 2)
	if err != nil {
		return err
	}
	if card == 1 {
		s.ungroupedAgg = true
	}
	return nil
}

// dgenCardinality materializes the instance and returns the result
// cardinality; -1 signals an unpopulated probe. In having mode an
// empty result triggers one sum-preserving retry: the values of every
// numeric non-key untested column in the multiplied table are divided
// by the row multiplicity so per-table column sums survive the
// duplication.
func (s *Session) dgenCardinality(d *dgen, multipliedTable string, mult int) (int, error) {
	db, err := s.materialize(d)
	if err != nil {
		return -1, err
	}
	res, err := s.run(nil, db)
	if err == nil && res.Populated() {
		return res.RowCount(), nil
	}
	if !s.cfg.ExtractHaving || multipliedTable == "" {
		return -1, nil
	}
	// Sum-preserving retry.
	for _, cdef := range s.schemas[multipliedTable].Columns {
		col := sqldb.ColRef{Table: multipliedTable, Column: cdef.Name}
		if s.inJoinGraph(col) || s.isKeyColumn(col) {
			continue
		}
		if _, explicit := d.vals[col]; explicit {
			continue
		}
		if cdef.Type != sqldb.TInt && cdef.Type != sqldb.TFloat {
			continue
		}
		base, err := s.defaultValue(col)
		if err != nil || base.Null {
			continue
		}
		var scaled sqldb.Value
		if cdef.Type == sqldb.TInt {
			scaled = sqldb.NewInt(base.I / int64(mult))
		} else {
			v, err := sqldb.Div(base, sqldb.NewInt(int64(mult)))
			if err != nil {
				continue
			}
			scaled = v
		}
		d.setConst(col, scaled, mult)
	}
	db, err = s.materialize(d)
	if err != nil {
		return -1, err
	}
	res, err = s.run(nil, db)
	if err != nil || !res.Populated() {
		return -1, nil
	}
	return res.RowCount(), nil
}

// candidatePairs yields distinct satisfying value pairs for a column.
// Before filters are known (having mode) the pairs come from the D_1
// value plus alternatives drawn from the source column; afterwards
// from the s-value generator.
func (s *Session) candidatePairs(col sqldb.ColRef) ([][2]sqldb.Value, error) {
	if s.filtersKnown || !s.cfg.ExtractHaving {
		v1, v2, ok, err := s.sValuePair(col)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return [][2]sqldb.Value{{v1, v2}}, nil
	}
	base, err := s.d1Value(col)
	if err != nil {
		return nil, err
	}
	if base.Null {
		return nil, nil
	}
	var out [][2]sqldb.Value
	for _, alt := range s.sourceAlternatives(col, base, 3) {
		out = append(out, [2]sqldb.Value{base, alt})
	}
	return out, nil
}

// sourceAlternatives samples up to max distinct values different from
// base out of the original D_I column (those values co-existed with a
// populated result, making them plausible s-values).
func (s *Session) sourceAlternatives(col sqldb.ColRef, base sqldb.Value, max int) []sqldb.Value {
	tbl, err := s.source.Table(col.Table)
	if err != nil {
		return nil
	}
	ci := tbl.Schema.ColumnIndex(col.Column)
	if ci < 0 {
		return nil
	}
	seen := map[string]bool{base.GroupKey(): true}
	var out []sqldb.Value
	for _, r := range tbl.SnapshotRows() {
		v := r[ci]
		if v.Null || seen[v.GroupKey()] {
			continue
		}
		seen[v.GroupKey()] = true
		out = append(out, v)
		if len(out) >= max {
			break
		}
	}
	return out
}

// defaultValue is the value materialize would assign to an
// unspecified column.
func (s *Session) defaultValue(col sqldb.ColRef) (sqldb.Value, error) {
	if s.cfg.ExtractHaving && !s.filtersKnown {
		return s.d1Value(col)
	}
	return s.sValue(col, 0)
}

// groupByContains reports whether a column (or its join component) is
// grouped.
func (s *Session) groupByContains(col sqldb.ColRef) bool {
	if s.groupBySet[col] {
		return true
	}
	if comp := s.componentOf(col); comp != nil {
		for _, c := range comp.cols {
			if s.groupBySet[c] {
				return true
			}
		}
	}
	return false
}
