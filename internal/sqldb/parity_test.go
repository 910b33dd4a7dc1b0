package sqldb_test

// parity_test.go — cross-engine invariants beyond result equality:
// the cancellation cost model must charge the same tick total on the
// tree-walking oracle and on Execute (so timeouts behave identically
// regardless of engine or build-cache state), and ORDER BY
// tie-breaking must be byte-stable across engines, repeated runs,
// concurrency, and LIMIT truncation.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

// engine is one way to run a statement: the tree-walking oracle or
// the production vector engine behind Execute.
type engine struct {
	name string
	exec func(*sqldb.Database, context.Context, *sqldb.SelectStmt) (*sqldb.Result, error)
}

var (
	oracleEngine = engine{"oracle", (*sqldb.Database).ExecuteOracle}
	vectorEngine = engine{"vector", (*sqldb.Database).Execute}
	engines      = []engine{oracleEngine, vectorEngine}
)

// tickDelta executes sql on db with the given engine and returns the
// CtxTicks the run charged.
func tickDelta(t *testing.T, db *sqldb.Database, eng engine, sql string) int64 {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := db.EngineCounters().CtxTicks
	if _, err := eng.exec(db, context.Background(), stmt); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return db.EngineCounters().CtxTicks - before
}

// TestCtxTickParityAcrossModes pins the residual-stage (and every
// other stage's) tick accounting: both engines must charge the same
// cancellation ticks for the same statement, covering scan, point
// filters, hash join, cross product, residual predicates, aggregation,
// projection, ordering and limits. Equal tick totals are what make
// timeout behaviour independent of the engine's access paths.
func TestCtxTickParityAcrossModes(t *testing.T) {
	db := edgeDB(t)
	queries := []string{
		"select id from t",
		"select id from t where id = 17",
		"select id from t where id between 8 and 22",
		"select id from t where v > 2.0 and b",
		"select t.id, u.w from t, u where t.id = u.fk",
		"select t.id, u.w from t, u where t.id = u.fk and t.id + u.w > 6",
		"select t.id, u.w from t, u where t.id < 3 and u.w < 1",
		"select grp, count(id), sum(v) from t group by grp",
		"select grp, count(id) from t group by grp having count(id) > 5",
		"select id, v from t order by v desc, id",
		"select id from t order by id desc limit 7",
		"select x from e",
		"select grp, count(distinct s) from t group by grp order by grp limit 2",
	}
	for _, sql := range queries {
		treeTicks := tickDelta(t, db, oracleEngine, sql)
		vecTicks := tickDelta(t, db, vectorEngine, sql)
		if treeTicks != vecTicks {
			t.Errorf("tick accounting diverges for %q: tree=%d vector=%d", sql, treeTicks, vecTicks)
		}
		// Re-run under vector: cached indexes and build sides must not
		// change the charge (ticks follow logical rows, not work done).
		if again := tickDelta(t, db, vectorEngine, sql); again != vecTicks {
			t.Errorf("vector ticks unstable for %q: first=%d cached=%d", sql, vecTicks, again)
		}
	}
}

// tieDB builds a table dominated by duplicate sort keys: 120 rows over
// 3 grp values and 4 words, with NULLs in both tie-prone columns.
func tieDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{Name: "r", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt},
		{Name: "grp", Type: sqldb.TInt},
		{Name: "w", Type: sqldb.TText},
	}}); err != nil {
		t.Fatal(err)
	}
	words := []string{"aa", "bb", "cc", "aa"}
	for i := 0; i < 120; i++ {
		g := sqldb.NewInt(int64(i % 3))
		if i%13 == 7 {
			g = sqldb.NewNull(sqldb.TInt)
		}
		w := sqldb.NewText(words[i%len(words)])
		if i%11 == 4 {
			w = sqldb.NewNull(sqldb.TText)
		}
		if err := db.Insert("r", sqldb.NewInt(int64(i)), g, w); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestOrderingDeterministicAcrossModesAndWorkers pins satellite
// ordering determinism: heavily tied ORDER BY output must be
// byte-identical across engines, across worker counts (concurrent
// executions sharing one database's caches), and a LIMIT must return
// exactly the full sort's prefix.
func TestOrderingDeterministicAcrossModesAndWorkers(t *testing.T) {
	db := tieDB(t)
	queries := []string{
		"select grp, w, id from r order by grp",
		"select grp, w, id from r order by grp desc, w",
		"select grp, w, id from r order by w, grp desc",
	}
	for _, sql := range queries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.ExecuteOracle(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		refStr := ref.String()

		for _, workers := range []int{1, 4, 8} {
			for _, eng := range engines {
				got := make([]string, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						res, err := eng.exec(db, context.Background(), stmt)
						if err != nil {
							got[w] = fmt.Sprintf("error: %v", err)
							return
						}
						got[w] = res.String()
					}(w)
				}
				wg.Wait()
				for w, g := range got {
					if g != refStr {
						t.Fatalf("%q: engine=%s workers=%d worker %d diverges from reference:\n%s\nvs\n%s",
							sql, eng.name, workers, w, g, refStr)
					}
				}
			}
		}

		// Sort-then-truncate: the LIMIT-k result must equal the full
		// sort truncated to k, for both engines, at several k.
		for _, k := range []int{1, 5, 37, 120, 500} {
			limited, err := sqlparser.Parse(fmt.Sprintf("%s limit %d", sql, k))
			if err != nil {
				t.Fatal(err)
			}
			wantRows := ref.Rows
			if k < len(wantRows) {
				wantRows = wantRows[:k]
			}
			want := (&sqldb.Result{Columns: ref.Columns, Rows: wantRows}).String()
			for _, eng := range engines {
				res, err := eng.exec(db, context.Background(), limited)
				if err != nil {
					t.Fatal(err)
				}
				if res.String() != want {
					t.Fatalf("%q limit %d under %s diverges from sort-then-truncate:\n%s\nvs\n%s",
						sql, k, eng.name, res, want)
				}
			}
		}
	}
}
