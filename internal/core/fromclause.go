package core

import (
	"errors"
	"fmt"

	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// extractFromClause identifies T_E, the set of tables referenced by
// the hidden query (Section 4.1): each candidate table is renamed and
// the application re-run; an immediate missing-table fault means the
// table is part of the query. Applications untouched by the rename
// either complete or are cut off by the probe timeout.
//
// The per-table probes are mutually independent, so they fan out over
// the scheduler's worker pool: each probe runs against a shared-row
// clone of the provided instance (sqldb.CloneShared) carrying only
// its own rename. The clone copies table structs but not rows, so a
// probe costs O(tables) setup regardless of instance size, and the
// untouched source serves every clone concurrently, read-only. The
// working silo is built afterwards carrying only the contents of T_E
// — copying the full instance row-wise would double peak memory for
// nothing, since the query never reads the other tables.
func (s *Session) extractFromClause() error {
	const tempName = "unmasque_probe_tmp"
	names := s.source.TableNames()
	inQuery := make([]bool, len(names))
	err := s.parallelFor(len(names), func(pc *probeCtx, i int) error {
		probe := s.source.CloneShared()
		if err := probe.RenameTable(names[i], tempName); err != nil {
			return err
		}
		// Short probe deadline: a missing-table fault is immediate,
		// while an unaffected application would otherwise run to
		// completion on the full instance for every negative probe.
		// Rename probes never consult the in-session run cache
		// (fingerprints never repeat within the fan-out — each probe
		// renames a different table), so they record their ledger
		// event here; a missing-table fault or timeout IS the
		// observation, not an incident. The durable cross-job tier is
		// a different story: a warm daemon has already paid for these
		// exact probes, so when a shared cache is attached (and the
		// instance is within the disk-tier bound) the fingerprint is
		// consulted and a repeat extraction invokes E zero times.
		_, err := s.runRenameProbe(pc, probe, names[i])
		switch {
		case errors.Is(err, sqldb.ErrNoSuchTable):
			inQuery[i] = true
		case errors.Is(err, app.ErrTimeout):
			// Execution unaffected by the rename but slow: the table
			// is not in the query.
		case err != nil:
			// Any other failure is unexpected at this stage — the
			// application ran on an intact (modulo rename) instance.
			return fmt.Errorf("probing table %s: %w", names[i], err)
		}
		return nil
	})
	if err != nil {
		return err
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
	// enforce them, matching the paper's dropped-RI silo).
	return s.timed(&s.stats.SiloSetup, func() error {
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
	})
}

// runRenameProbe executes one from-clause rename probe, serving it
// from the durable cross-job cache when one is attached. Timeouts are
// never persisted (they describe the environment, not (E, D)); a
// deterministic outcome — the missing-table fault of a positive
// probe, or the negative probe's completed result — is.
func (s *Session) runRenameProbe(pc *probeCtx, probe *sqldb.Database, table string) (*sqldb.Result, error) {
	diskOK := s.shared != nil && probe.TotalRows() <= maxDiskCacheRows
	if !diskOK {
		start := s.cfg.Clock()
		res, err := app.RunCtx(s.ctx, s.exe, probe, s.cfg.ProbeTimeout)
		s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: table, Cache: obs.CacheNone},
			res, err, s.cfg.Clock().Sub(start))
		return res, err
	}
	fp := probe.Fingerprint()
	start := s.cfg.Clock()
	if res, err, ok := s.shared.Get(fp); ok {
		s.cache.diskHits.Add(1)
		s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: table, FP: fp.Hex(), Cache: obs.CacheDisk},
			res, err, s.cfg.Clock().Sub(start))
		return res, err
	}
	s.cache.misses.Add(1)
	res, err := app.RunCtx(s.ctx, s.exe, probe, s.cfg.ProbeTimeout)
	s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: table, FP: fp.Hex(), Cache: obs.CacheMiss},
		res, err, s.cfg.Clock().Sub(start))
	if !errors.Is(err, app.ErrTimeout) && !isCtxErr(err) {
		s.shared.Put(fp, res, err)
	}
	return res, err
}
