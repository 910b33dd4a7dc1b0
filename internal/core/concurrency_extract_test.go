package core_test

// Extraction-level tests of the probe scheduler and the run cache:
// worker-count determinism, cache effectiveness and the serialization
// of executables that declare concurrent Run unsafe. All of them run
// under `go test -race` in CI, which is what makes the shared-state
// invariants of the fan-out paths enforceable.

import (
	"context"
	"sync"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// concurrencyQueries exercises every parallelized module: from-clause
// probes (joins), per-column filters of each type class, projection
// dependency probes and the multilinear corner grid.
var concurrencyQueries = []string{
	"select c_name, c_acctbal from customer where c_acctbal >= 500.25 and c_mktsegment = 'BUILDING'",
	"select o_orderkey, o_totalprice from orders, lineitem where o_orderkey = l_orderkey and l_discount between 0.02 and 0.08",
	"select l_extendedprice * (1 - l_discount) as disc_price, l_shipdate from lineitem where l_linenumber <= 4",
	"select c_mktsegment, count(*) as cnt, sum(o_totalprice) as vol from customer, orders where c_custkey = o_custkey group by c_mktsegment order by c_mktsegment",
}

// TestExtractionIndependentOfWorkerCount pins the determinism
// contract across 1, 2 and 8 workers.
func TestExtractionIndependentOfWorkerCount(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	for _, sql := range concurrencyQueries {
		exe := app.MustSQLExecutable("det", sql)
		var wantSQL string
		for _, workers := range []int{1, 2, 8} {
			cfg := defaultCfg()
			cfg.Workers = workers
			ext, err := core.Extract(exe, db, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v\nquery: %s", workers, err, sql)
			}
			if wantSQL == "" {
				wantSQL = ext.SQL
			} else if ext.SQL != wantSQL {
				t.Fatalf("workers=%d changed the extracted SQL\nwant: %s\ngot:  %s",
					workers, wantSQL, ext.SQL)
			}
			if ext.Stats.Workers != workers {
				t.Errorf("Stats.Workers = %d, want %d", ext.Stats.Workers, workers)
			}
			if workers > 1 && ext.Stats.ParallelProbes == 0 {
				t.Errorf("workers=%d: no probes went through the pool", workers)
			}
		}
	}
}

// TestRunCacheReducesInvocations: repeated probes on
// content-identical instances are served without running E. The
// ledger records every probe, so each hit is one probe that did not
// invoke E: the ledger holds exactly the invocations plus the hits.
func TestRunCacheReducesInvocations(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	for _, sql := range concurrencyQueries {
		cfg := defaultCfg()
		ledger := obs.NewLedger()
		cfg.Ledger = ledger
		ext, err := core.Extract(app.MustSQLExecutable("cache", sql), db, cfg)
		if err != nil {
			t.Fatalf("%v\nquery: %s", err, sql)
		}
		st := ext.Stats
		if st.CacheHits == 0 {
			t.Errorf("no cache hits during extraction of %s", sql)
		}
		if got, want := int64(ledger.Len()), st.AppInvocations+st.CacheHits; got != want {
			t.Errorf("%d ledger events, want invocations %d + hits %d = %d\nquery: %s",
				got, st.AppInvocations, st.CacheHits, want, sql)
		}
	}
}

// unsafeExecutable wraps a SQL executable and declares itself unsafe
// for concurrent Run, tracking whether overlapping calls occurred.
type unsafeExecutable struct {
	inner    app.Executable
	mu       sync.Mutex
	active   int
	overlaps int
}

func (u *unsafeExecutable) Name() string { return u.inner.Name() }

func (u *unsafeExecutable) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	u.mu.Lock()
	u.active++
	if u.active > 1 {
		u.overlaps++
	}
	u.mu.Unlock()
	res, err := u.inner.Run(ctx, db)
	u.mu.Lock()
	u.active--
	u.mu.Unlock()
	return res, err
}

func (u *unsafeExecutable) ConcurrentRunSafe() bool { return false }

// TestUnsafeExecutableIsSerialized: an executable reporting
// ConcurrentRunSafe()==false must never see overlapping Run calls,
// even with a large worker pool, and extraction must still succeed
// with the usual result.
func TestUnsafeExecutableIsSerialized(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	sql := concurrencyQueries[1]
	u := &unsafeExecutable{inner: app.MustSQLExecutable("unsafe", sql)}
	cfg := defaultCfg()
	cfg.Workers = 8
	ext, err := core.Extract(u, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.overlaps != 0 {
		t.Errorf("unsafe executable saw %d overlapping Run calls", u.overlaps)
	}
	ref, err := core.Extract(app.MustSQLExecutable("ref", sql), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ext.SQL != ref.SQL {
		t.Errorf("serialized extraction diverged:\n%s\nvs\n%s", ext.SQL, ref.SQL)
	}
}
