package core

import (
	"fmt"

	"unmasque/internal/sqldb"
)

// minimize shrinks the silo to a minimal result-preserving database
// (Section 4.2). Phase one samples large tables (cheap, coarse);
// phase two repeatedly halves tables, keeping whichever half
// preserves a populated result. For EQC without having, Lemma 1
// guarantees a single-row D_1 exists and that when the first half
// fails the second must succeed, so each halving costs one
// application run. With having extraction enabled the lemma no longer
// holds and the minimizer falls back to verified halving plus row-
// wise removal, stopping at a row-minimal (not necessarily
// single-row) database.
func (s *Session) minimize() error {
	if !s.cfg.DisableSampling {
		if err := s.timed(&s.stats.Sampling, s.samplePhase); err != nil {
			return moduleErr("minimizer/sampling", err)
		}
	}
	if err := s.timed(&s.stats.Partitioning, s.partitionPhase); err != nil {
		return moduleErr("minimizer/partitioning", err)
	}
	// Until here the silo's rows were D_I's own (CloneTables shares
	// them, and both phases only reshuffle row sets). Every later
	// phase may write values, so D_1 — a few rows — becomes private.
	s.silo = s.silo.Clone()
	s.stats.RowsFinal = s.silo.TotalRows()

	res, err := s.run(nil, s.silo)
	if err != nil {
		return moduleErr("minimizer", err)
	}
	if !res.Populated() {
		return moduleErrf("minimizer", "minimized database lost the populated result; the hidden query may be outside the extractable class")
	}
	s.baseline = res
	return nil
}

// samplePhase iteratively samples the extracted tables, always
// attacking the currently largest one, and keeps re-sampling the same
// table while the result stays populated: once the biggest table has
// shrunk, every subsequent probe executes against a database that is
// already an order of magnitude smaller, so the whole phase costs
// little more than its first probe (Section 4.2's preprocessing).
// A failed sample is reverted and freezes that table for the phase.
func (s *Session) samplePhase() error {
	frozen := map[string]bool{}
	for {
		name := ""
		best := sampleThreshold
		for _, t := range s.tablesBySizeDesc() {
			if frozen[t] {
				continue
			}
			tbl, err := s.silo.Table(t)
			if err != nil {
				return err
			}
			if tbl.RowCount() > best {
				name, best = t, tbl.RowCount()
				break // tablesBySizeDesc is largest-first
			}
		}
		if name == "" {
			return nil
		}
		tbl, err := s.silo.Table(name)
		if err != nil {
			return err
		}
		backup := tbl.SnapshotRows()
		tbl.SetRows(sqldb.CopyRows(backup))
		tbl.Sample(sampleFraction, s.rng)
		ok, err := s.populated(nil, s.silo)
		if err != nil {
			return err
		}
		if !ok {
			tbl.SetRows(backup)
			frozen[name] = true
		}
	}
}

// tablesBySizeDesc lists the extracted tables by decreasing row
// count.
func (s *Session) tablesBySizeDesc() []string {
	all := s.silo.TableNamesBySize()
	inTE := map[string]bool{}
	for _, t := range s.tables {
		inTE[t] = true
	}
	var out []string
	for _, t := range all {
		if inTE[t] {
			out = append(out, t)
		}
	}
	return out
}

// partitionPhase halves tables down to D_1 (or a row-minimal
// database in having mode).
func (s *Session) partitionPhase() error {
	verify := s.cfg.ExtractHaving
	frozen := map[string]bool{}
	rr := 0 // round-robin cursor
	for {
		name := s.pickHalvingTable(frozen, &rr)
		if name == "" {
			break
		}
		tbl, err := s.silo.Table(name)
		if err != nil {
			return err
		}
		n := tbl.RowCount()
		half := n / 2
		backup := tbl.SnapshotRows()

		tbl.SetRows(sqldb.CopyRows(backup[:half]))
		ok, err := s.populated(nil, s.silo)
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		// First half failed; Lemma 1 says the second must succeed
		// for EQC minus having, so no verification run is needed.
		tbl.SetRows(sqldb.CopyRows(backup[half:]))
		if !verify {
			continue
		}
		ok, err = s.populated(nil, s.silo)
		if err != nil {
			return err
		}
		if !ok {
			// Neither half alone preserves the result (aggregate
			// constraint spans the split): restore and freeze.
			tbl.SetRows(backup)
			frozen[name] = true
		}
	}
	if verify {
		if err := s.rowRemovalRefinement(frozen); err != nil {
			return err
		}
		return s.mergeAndBoost()
	}
	return nil
}

// mergeAndBoost is the having-mode extension that restores Lemma 1:
// a table left multi-row by halving and row removal (an aggregate
// constraint spans its rows) is collapsed to a single row whose
// numeric non-key columns carry a column aggregate (sum, max, min or
// avg) of the surviving rows — each choice preserves feasibility of
// the matching having type, so one of them keeps the result
// populated whenever the hidden aggregate is among the supported
// four. If no collapse works the hidden query needs genuinely
// multi-row groups (e.g. count-based having), which is outside this
// implementation's scope.
func (s *Session) mergeAndBoost() error {
	strategies := []string{"sum", "max", "min", "avg", "first"}
	for _, name := range s.tables {
		tbl, err := s.silo.Table(name)
		if err != nil {
			return err
		}
		if tbl.RowCount() <= 1 {
			continue
		}
		backup := tbl.SnapshotRows()
		collapsed := false
		for base := 0; base < len(backup) && base < 4 && !collapsed; base++ {
			for _, strat := range strategies {
				row, err := s.collapseRow(tbl.Schema, backup, base, strat)
				if err != nil {
					return err
				}
				tbl.SetRows([]sqldb.Row{row})
				ok, err := s.populated(nil, s.silo)
				if err != nil {
					return err
				}
				if ok {
					collapsed = true
					break
				}
				tbl.SetRows(backup)
			}
		}
		if !collapsed {
			return fmt.Errorf("table %s cannot be collapsed to a single row; the hidden query needs multi-row groups (count-style having), which is outside the supported having class", name)
		}
	}
	return nil
}

// collapseRow builds a single row from the given rows: non-numeric
// and key columns copy the base row; numeric non-key columns take the
// strategy's column aggregate.
func (s *Session) collapseRow(schema sqldb.TableSchema, rows []sqldb.Row, base int, strat string) (sqldb.Row, error) {
	out := rows[base].Clone()
	if strat == "first" {
		return out, nil
	}
	for ci, col := range schema.Columns {
		if col.Type != sqldb.TInt && col.Type != sqldb.TFloat {
			continue
		}
		ref := sqldb.ColRef{Table: schema.Name, Column: col.Name}
		if s.isKeyColumn(ref) {
			continue
		}
		var sum float64
		cnt := 0
		minV, maxV := rows[base][ci], rows[base][ci]
		for _, r := range rows {
			v := r[ci]
			if v.Null {
				continue
			}
			sum += v.AsFloat()
			cnt++
			if c, err := sqldb.Compare(v, minV); err == nil && c < 0 {
				minV = v
			}
			if c, err := sqldb.Compare(v, maxV); err == nil && c > 0 {
				maxV = v
			}
		}
		if cnt == 0 {
			continue
		}
		switch strat {
		case "sum":
			out[ci] = numericAs(col, sum)
		case "avg":
			out[ci] = numericAs(col, sum/float64(cnt))
		case "min":
			out[ci] = minV
		case "max":
			out[ci] = maxV
		}
	}
	return out, nil
}

// numericAs renders a float into the column's value family.
func numericAs(col sqldb.Column, f float64) sqldb.Value {
	if col.Type == sqldb.TInt {
		return sqldb.NewInt(int64(f))
	}
	return sqldb.RoundTo(sqldb.NewFloat(f), col.FloatPrecision())
}

// pickHalvingTable selects the next table with more than one row
// according to the configured policy; "" when none remain.
func (s *Session) pickHalvingTable(frozen map[string]bool, rr *int) string {
	var candidates []string
	for _, t := range s.tablesBySizeDesc() { // largest first
		tbl, err := s.silo.Table(t)
		if err != nil {
			continue
		}
		if tbl.RowCount() > 1 && !frozen[t] {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	switch s.cfg.HalvingPolicy {
	case "smallest":
		return candidates[len(candidates)-1]
	case "random":
		return candidates[s.rng.Intn(len(candidates))]
	case "roundrobin":
		*rr++
		return candidates[*rr%len(candidates)]
	default: // largest
		return candidates[0]
	}
}

// rowRemovalRefinement tries removing individual rows from frozen
// tables until no single-row removal preserves the result, yielding
// the row-minimal database of the problem definition.
func (s *Session) rowRemovalRefinement(frozen map[string]bool) error {
	const maxRefineRows = 256
	for name := range frozen {
		tbl, err := s.silo.Table(name)
		if err != nil {
			return err
		}
		if tbl.RowCount() > maxRefineRows {
			return fmt.Errorf("table %s still has %d rows after halving; refinement cap is %d", name, tbl.RowCount(), maxRefineRows)
		}
		for i := 0; i < tbl.RowCount(); {
			if tbl.RowCount() == 1 {
				break
			}
			backup := tbl.SnapshotRows()
			trimmed := append(sqldb.CopyRows(backup[:i]), backup[i+1:]...)
			tbl.SetRows(trimmed)
			ok, err := s.populated(nil, s.silo)
			if err != nil {
				return err
			}
			if ok {
				continue // row i removed; same index now holds the next row
			}
			tbl.SetRows(backup)
			i++
		}
	}
	return nil
}
