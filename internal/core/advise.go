package core

import (
	"unmasque/internal/sqldb"
)

// advise.go — minimizer-driven index advice. The engine side (hint
// storage, pre-built clone-shared index payloads, non-leading and
// range pushdown for advised columns) lives in sqldb; this file is
// where the extraction phases declare which columns their upcoming
// probe storms will touch.
//
// Two call patterns cover the pipeline's hot loops. The filter module
// re-executes the hidden query E against a fresh clone of D_1 for
// every probe, so advising the candidate filter columns on the silo
// lets each clone inherit ready-made indexes instead of rebuilding
// them per probe. The bounded checker replays the whole mutant
// catalogue on each witness and planted instance, all filtering on
// (a mutation of) the extracted WHERE columns, so advising those
// columns unlocks index pushdown (including range predicates and
// non-leading conjuncts) across every replay. Phases that execute a
// query only once or twice per instance (compareOn) deliberately do
// NOT advise: an advised range index costs a sort to build, which
// only repeated probes pay back. Advice changes only the access paths
// the engine picks, never a result: sqldb's differential tests hold
// advised executions to its test-only tree-walking oracle, which
// ignores advice entirely.

// adviseProbeColumns declares cols as repeatedly probed on the working
// database; clones taken during the advising phase inherit pre-built
// indexes on them. The returned release func withdraws the advice —
// phases advise only for the duration of their own fan-out.
func (s *Session) adviseProbeColumns(cols []sqldb.ColRef) (func(), error) {
	hints := make([]sqldb.IndexHint, 0, len(cols))
	for _, c := range cols {
		hints = append(hints, sqldb.IndexHint{Table: c.Table, Column: c.Column})
	}
	if err := s.silo.AdviseIndexes(hints...); err != nil {
		return nil, err
	}
	return s.silo.ClearIndexAdvice, nil
}

// adviseQueryColumns declares the WHERE columns of an assembled
// statement on db. Checker instances each serve many executions — the
// application, Q_E, and every mutant replay — and all of them filter
// on (a mutation of) the same predicate columns.
func adviseQueryColumns(db *sqldb.Database, stmt *sqldb.SelectStmt) (func(), error) {
	seen := map[sqldb.ColRef]bool{}
	var hints []sqldb.IndexHint
	for _, conj := range sqldb.Conjuncts(stmt.Where) {
		for _, c := range sqldb.ColumnsOf(conj) {
			ref := c.Ref()
			if ref.Table == "" || seen[ref] {
				continue
			}
			seen[ref] = true
			hints = append(hints, sqldb.IndexHint{Table: ref.Table, Column: ref.Column})
		}
	}
	if err := db.AdviseIndexes(hints...); err != nil {
		return nil, err
	}
	return db.ClearIndexAdvice, nil
}
