package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// extractFromClause identifies T_E, the set of tables referenced by
// the hidden query (Section 4.1). A rename probe hides a set of tables
// and re-runs the application: a missing-table fault means the query
// reads at least one of them. The paper probes one table at a time, so
// every table outside the query costs a complete run of E on D_I; here
// the probes are adaptive group tests over the TableNames order, which
// find the k query tables of N with O(k·log(N/k)) complete runs
// instead of N−k.
//
//   - One probe hides every table. Without a fault there is no query
//     table and the job fails.
//   - Level by level, every range known to hold a query table is split
//     at its midpoint, and all left halves are probed in one fan-out.
//   - A left half that completes holds no query table, and then the
//     right half must hold one: it is not probed.
//   - A left half that faults or times out sends its right half to a
//     second fan-out, whose faulting halves are kept.
//   - A single-table range known to hold a query table is in T_E.
//
// Soundness: a deterministic E run on D_I with a set S hidden behaves
// exactly as on D_I until it first reads a table of S, so the probe
// faults exactly when E reads some table of S on D_I — the same
// question the singleton probes ask, with the same T_E as the answer.
// A timeout counts as "no fault" (an unaffected application may just
// be slow), but it proves nothing about the sibling half, so the
// sibling is probed rather than inferred.
//
// Each probe runs against a shared-row clone of the provided instance
// (sqldb.CloneShared) carrying only its own renames, so a probe costs
// O(tables) setup regardless of instance size and the untouched source
// serves every clone concurrently, read-only. The working silo is
// built afterwards carrying only the rows of T_E.
func (s *Session) extractFromClause() error {
	names := s.source.TableNames()
	inQuery := make([]bool, len(names))
	var pending []tableRange
	if len(names) > 0 {
		all := []tableRange{{0, len(names)}}
		outcomes, err := s.renameProbes(names, all)
		if err != nil {
			return err
		}
		if outcomes[0] == renameFaulted {
			pending = all
		}
	}
	for len(pending) > 0 {
		var lefts, rights, next []tableRange
		for _, r := range pending {
			if r.hi-r.lo == 1 {
				inQuery[r.lo] = true
				continue
			}
			mid := (r.lo + r.hi) / 2
			lefts = append(lefts, tableRange{r.lo, mid})
			rights = append(rights, tableRange{mid, r.hi})
		}
		outcomes, err := s.renameProbes(names, lefts)
		if err != nil {
			return err
		}
		var second []tableRange
		for i, o := range outcomes {
			switch o {
			case renameCompleted:
				next = append(next, rights[i])
			case renameFaulted:
				next = append(next, lefts[i])
				second = append(second, rights[i])
			case renameTimedOut:
				second = append(second, rights[i])
			}
		}
		outcomes, err = s.renameProbes(names, second)
		if err != nil {
			return err
		}
		for i, o := range outcomes {
			if o == renameFaulted {
				next = append(next, second[i])
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].lo < next[j].lo })
		pending = next
	}
	for i, name := range names {
		if inQuery[i] {
			s.tables = append(s.tables, name)
		}
	}
	if len(s.tables) == 0 {
		return fmt.Errorf("no query tables detected; does the application read this database?")
	}
	// Build the silo: every table's schema, but rows only for T_E
	// (referential constraints are irrelevant — the engine does not
	// enforce them, matching the paper's dropped-RI silo). The rows
	// are D_I's own: the minimizer only reshuffles row sets before it
	// replaces the silo with a private copy of D_1.
	relevant := map[string]bool{}
	for _, t := range s.tables {
		relevant[t] = true
	}
	s.silo = s.source.CloneTables(relevant)
	for _, t := range s.tables {
		tbl, err := s.silo.Table(t)
		if err != nil {
			return err
		}
		s.schemas[t] = tbl.Schema.Clone()
	}
	return nil
}

// tableRange is the half-open range [lo, hi) of the source's
// TableNames order that one rename probe hides.
type tableRange struct{ lo, hi int }

// renameOutcome is what one rename probe observed.
type renameOutcome int

const (
	// renameCompleted: E ran to completion, so it reads none of the
	// hidden tables.
	renameCompleted renameOutcome = iota
	// renameTimedOut: E was cut off by the probe timeout. It counts as
	// no fault but licenses no inference about other ranges.
	renameTimedOut
	// renameFaulted: E hit a missing table, so it reads at least one
	// of the hidden tables.
	renameFaulted
)

// renameProbes runs one rename probe per range over the worker pool
// and returns their outcomes positionally. The hidden tables of a
// probe are renamed to unmasque_probe_tmp_<i>, i their position in
// names, and its ledger label lists their names joined by commas.
func (s *Session) renameProbes(names []string, ranges []tableRange) ([]renameOutcome, error) {
	out := make([]renameOutcome, len(ranges))
	err := s.parallelFor(len(ranges), func(pc *probeCtx, i int) error {
		r := ranges[i]
		db := s.source.CloneShared()
		for t := r.lo; t < r.hi; t++ {
			if err := db.RenameTable(names[t], "unmasque_probe_tmp_"+strconv.Itoa(t)); err != nil {
				return err
			}
		}
		label := strings.Join(names[r.lo:r.hi], ",")
		// Short probe deadline: a missing-table fault is immediate,
		// while an unaffected application would otherwise run to
		// completion on the full instance. A missing-table fault or
		// timeout IS the observation, not an incident.
		_, err := s.probe(pc, db, obs.ProbeEvent{Kind: obs.KindRename, Table: label}, s.cfg.ProbeTimeout)
		switch {
		case errors.Is(err, sqldb.ErrNoSuchTable):
			out[i] = renameFaulted
		case errors.Is(err, app.ErrTimeout):
			out[i] = renameTimedOut
		case err != nil:
			// Any other failure is unexpected at this stage — the
			// application ran on an intact (modulo rename) instance.
			return fmt.Errorf("probing tables %s: %w", label, err)
		}
		return nil
	})
	return out, err
}
