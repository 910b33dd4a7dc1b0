package core_test

import (
	"context"
	"reflect"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

func havingCfg() core.Config {
	cfg := defaultCfg()
	cfg.ExtractHaving = true
	return cfg
}

// extractHaving runs the Section 7 pipeline and verifies equivalence.
func extractHavingQ(t *testing.T, db *sqldb.Database, sql string) *core.Extraction {
	t.Helper()
	exe := app.MustSQLExecutable(t.Name(), sql)
	res, err := exe.Run(context.Background(), db)
	if err != nil || !res.Populated() {
		t.Fatalf("fixture unpopulated: %v", err)
	}
	ext, err := core.Extract(exe, db, havingCfg())
	if err != nil {
		t.Fatalf("having extraction failed: %v", err)
	}
	want, _ := exe.Run(context.Background(), db)
	got, err := db.Execute(context.Background(), ext.Query)
	if err != nil {
		t.Fatalf("extracted query fails: %v\n%s", err, ext.SQL)
	}
	if !want.EqualUnordered(got) {
		t.Fatalf("results differ on D_I\nextracted: %s", ext.SQL)
	}
	return ext
}

func TestHavingSumLowerBound(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select o_custkey, sum(o_totalprice) as total
		from orders group by o_custkey
		having sum(o_totalprice) >= 400000`)
	if len(ext.Having) != 1 {
		t.Fatalf("having predicates: %v", ext.Having)
	}
	h := ext.Having[0]
	if h.Fn != sqldb.AggSum || !h.HasLo || h.Lo.AsFloat() != 400000 || h.HasHi {
		t.Errorf("predicate: %+v", h)
	}
}

func TestHavingAvgLowerBound(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select l_orderkey, avg(l_extendedprice) as m
		from lineitem group by l_orderkey
		having avg(l_extendedprice) >= 30000`)
	if len(ext.Having) != 1 {
		t.Fatalf("having predicates: %v", ext.Having)
	}
	h := ext.Having[0]
	if h.Fn != sqldb.AggAvg || !h.HasLo || h.Lo.AsFloat() != 30000 {
		t.Errorf("predicate: %+v", h)
	}
}

func TestHavingSumBetween(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select o_custkey, sum(o_totalprice) as total
		from orders group by o_custkey
		having sum(o_totalprice) >= 200000 and sum(o_totalprice) <= 900000`)
	if len(ext.Having) != 1 {
		t.Fatalf("having predicates: %v", ext.Having)
	}
	h := ext.Having[0]
	if h.Fn != sqldb.AggSum || !h.HasLo || !h.HasHi ||
		h.Lo.AsFloat() != 200000 || h.Hi.AsFloat() != 900000 {
		t.Errorf("predicate: %+v", h)
	}
}

// TestHavingMinExtractedFaithfully: min() having bounds are kept as
// having predicates. (The paper folds them into filters, but the fold
// changes semantics on groups with mixed rows — a filter keeps a
// group through its passing rows, the having drops it whole — and the
// checker's initial-instance comparison rejects the folded form.)
func TestHavingMinExtractedFaithfully(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select o_custkey, min(o_totalprice) as lo
		from orders group by o_custkey
		having min(o_totalprice) >= 50000`)
	if len(ext.Having) != 1 {
		t.Fatalf("having predicates: %v", ext.Having)
	}
	h := ext.Having[0]
	if h.Fn != sqldb.AggMin || !h.HasLo || h.Lo.AsFloat() != 50000 {
		t.Errorf("predicate: %+v", h)
	}
}

// TestHavingWithFilterDisjoint: a filter on one attribute and a
// having on another (the paper's disjointness restriction) extract
// together.
func TestHavingWithFilterDisjoint(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select o_custkey, sum(o_totalprice) as total
		from orders
		where o_shippriority >= 1
		group by o_custkey
		having sum(o_totalprice) >= 150000`)
	if len(ext.Having) != 1 || ext.Having[0].Fn != sqldb.AggSum {
		t.Fatalf("having: %v", ext.Having)
	}
	foundFilter := false
	for _, f := range ext.Filters {
		if f.Col.Column == "o_shippriority" && f.HasLo && f.Lo.I == 1 {
			foundFilter = true
		}
	}
	if !foundFilter {
		t.Errorf("filter missing: %v", ext.Filters)
	}
}

// TestHavingModeOnPlainQuery: the Section 7 pipeline must still
// handle queries with no having at all.
func TestHavingModeOnPlainQuery(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	ext := extractHavingQ(t, db, `
		select c_mktsegment, count(*) as cnt
		from customer
		where c_acctbal >= 0
		group by c_mktsegment`)
	if len(ext.Having) != 0 {
		t.Errorf("spurious having: %v", ext.Having)
	}
	if len(ext.Filters) != 1 || ext.Filters[0].Col.Column != "c_acctbal" {
		t.Errorf("filters: %v", ext.Filters)
	}
}

// TestHavingPhaseSpansCarryClauses: in the Section 7 pipeline too,
// every phase that extracts a clause carries it on its span, and the
// unified filter/having phase renders both parts.
func TestHavingPhaseSpansCarryClauses(t *testing.T) {
	db := warehouseDB(t, 30, 80, 250)
	cfg := havingCfg()
	cfg.Tracer = obs.NewTracer("extract")
	exe := app.MustSQLExecutable("having-trace", `
		select o_custkey, sum(o_totalprice) as total
		from orders where o_shippriority <= 3 group by o_custkey
		having sum(o_totalprice) >= 400000`)
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := map[string]string{}
	for _, ev := range ext.Trace {
		if c, ok := ev.Attrs["clause"]; ok && ev.Parent == ext.Trace[0].ID {
			clauses[ev.Name] = c
		}
	}
	want := map[string]string{
		"from-clause":    "from orders",
		"join-graph":     "",
		"group-by":       "group by orders.o_custkey",
		"filters+having": "where orders.o_shippriority <= 3 having sum(orders.o_totalprice) >= 400000",
		"disjunctions":   "where orders.o_shippriority <= 3",
		"projection":     "select orders.o_custkey, orders.o_totalprice as total",
		"aggregation":    "select orders.o_custkey, sum(orders.o_totalprice) as total",
		"order-by":       "",
		"limit":          "",
	}
	if !reflect.DeepEqual(clauses, want) {
		t.Fatalf("phase clauses:\n got %v\nwant %v", clauses, want)
	}
}
