package core

import (
	"context"
	"fmt"
	"time"

	"unmasque/internal/sqldb"
	"unmasque/internal/xdata"
)

// probeContext builds a cancellable context for one probe execution.
func probeContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), timeout)
}

// check is the final extraction-checker module (Section 5.5): the
// application and the assembled Q_E are executed side by side on (a)
// several randomized databases and (b) an XData-style suite of
// mutant-killing instances, comparing results exactly — including
// physical order via position-dependent checksums when the query
// orders its output.
func (s *Session) check(ext *Extraction) error {
	schemas := make([]sqldb.TableSchema, 0, len(s.tables))
	for _, t := range s.tables {
		schemas = append(schemas, s.schemas[t])
	}
	analysis, err := xdata.Analyze(ext.Query, schemas)
	if err != nil {
		return fmt.Errorf("analysis of assembled query: %w", err)
	}

	// Stage 0: the original instance. Random and targeted instances
	// are generated from the *extracted* predicate structure, so
	// hidden logic invisible to the pipeline (e.g. negated patterns)
	// could satisfy them by construction; D_I is the one instance the
	// pipeline did not shape.
	if err := s.compareOn(ext, s.source, "initial-instance"); err != nil {
		return err
	}

	// Stage 1: randomized databases.
	for round := 0; round < checkerRounds; round++ {
		rng := newRNG(s.cfg.Seed + int64(round) + 1000)
		db, err := analysis.RandomInstance(checkerRows, rng)
		if err != nil {
			return err
		}
		if err := s.compareOn(ext, db, fmt.Sprintf("random#%d", round)); err != nil {
			return err
		}
	}

	// Stage 2: mutant killing on the XData instance suite.
	instances, err := xdata.Generate(ext.Query, schemas, s.cfg.Seed)
	if err != nil {
		return err
	}
	for _, inst := range instances {
		if err := s.compareOn(ext, inst.DB, inst.Label); err != nil {
			return err
		}
	}
	return nil
}

// compareOn runs both the application and Q_E on db and compares the
// results.
func (s *Session) compareOn(ext *Extraction, db *sqldb.Database, label string) error {
	appRes, appErr := s.run(nil, db)
	qRes, qErr := s.executeStmt(ext.Query, db)
	if appErr != nil {
		return fmt.Errorf("checker instance %q: application failed: %w", label, appErr)
	}
	if qErr != nil {
		return fmt.Errorf("checker instance %q: extracted query failed: %w", label, qErr)
	}
	// Normalize the "null result" convention: an ungrouped aggregate
	// over empty input is one all-default row in SQL but an empty
	// result to the paper's framework (and to imperative
	// applications); both sides compare as empty.
	appRes = normalizeNull(appRes)
	qRes = normalizeNull(qRes)
	if !appRes.EqualUnordered(qRes) {
		return fmt.Errorf("checker instance %q: results differ (%d vs %d rows)",
			label, appRes.RowCount(), qRes.RowCount())
	}
	if len(ext.OrderBy) > 0 && !OrderedEquivalent(appRes, qRes, ext.OrderBy) {
		return fmt.Errorf("checker instance %q: order-key sequences differ (app checksum %x, query checksum %x)",
			label, appRes.Checksum(), qRes.Checksum())
	}
	return nil
}

// normalizeNull maps unpopulated results (empty, or the null row of
// an ungrouped aggregate over empty input) to an empty result.
func normalizeNull(r *sqldb.Result) *sqldb.Result {
	if r.Populated() {
		return r
	}
	return &sqldb.Result{Columns: r.Columns}
}

// OrderedEquivalent reports whether two results agree as multisets
// AND position-by-position on the ordered output columns. Rows tied
// on every order key may legally appear in any relative order (the
// tie-break is plan-dependent even on real engines), so only the key
// columns are compared positionally.
func OrderedEquivalent(a, b *sqldb.Result, keys []OrderItem) bool {
	if a.RowCount() != b.RowCount() {
		return false
	}
	if !a.EqualUnordered(b) {
		return false
	}
	for i := range a.Rows {
		for _, k := range keys {
			if k.OutputIndex >= len(a.Rows[i]) || k.OutputIndex >= len(b.Rows[i]) {
				return false
			}
			if !sqldb.ApproxEqual(a.Rows[i][k.OutputIndex], b.Rows[i][k.OutputIndex]) {
				return false
			}
		}
	}
	return true
}
