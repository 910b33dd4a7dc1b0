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
// The filter module re-executes the hidden query E against a fresh
// clone of D_1 for every probe, so advising the candidate filter
// columns on the silo lets each clone inherit ready-made indexes
// instead of rebuilding them per probe. Phases that execute a query
// only once or twice per instance (the checker's compareOn)
// deliberately do NOT advise: an advised range index costs a sort to
// build, which only repeated probes pay back. Advice changes only the
// access paths the engine picks, never a result: sqldb's differential
// tests hold advised executions to its test-only tree-walking oracle,
// which ignores advice entirely.

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
