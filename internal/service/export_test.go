package service

import (
	"context"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
)

// BlockJobsNamed makes the manager run every inline job named name as
// one that is still running when a test acts on it: over the spec's
// own database, its executable faults at once while any of the
// database's tables is renamed, so the from-clause finds its tables,
// and otherwise waits until its context ends, so the job blocks in the
// minimizer until it is cancelled. The swap lasts until t ends; call
// it before starting the manager.
func BlockJobsNamed(t testing.TB, name string) {
	materialize = func(sp JobSpec) (app.Executable, *sqldb.Database, error) {
		exe, db, err := sp.Materialize()
		if err != nil || sp.Name != name {
			return exe, db, err
		}
		return blockingExe{tables: db.TableNames()}, db, nil
	}
	t.Cleanup(func() { materialize = JobSpec.Materialize })
}

type blockingExe struct{ tables []string }

func (blockingExe) Name() string { return "blocking" }

func (e blockingExe) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	for _, name := range e.tables {
		if _, err := db.Table(name); err != nil {
			return nil, err // wraps sqldb.ErrNoSuchTable
		}
	}
	<-ctx.Done()
	return nil, ctx.Err()
}
