package regal

import (
	"context"
	"strings"
	"testing"
	"time"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/tpch"
)

func runQuery(t *testing.T, db *sqldb.Database, sql string) *sqldb.Result {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReverseEngineerSimpleGroupCount(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	target := runQuery(t, db, "select c_nationkey, count(*) as cnt from customer group by c_nationkey")
	out := ReverseEngineer(db, target, DefaultConfig())
	if out.Query == nil {
		t.Fatalf("no candidate found: %s (dnc=%v)", out.Reason, out.DNC)
	}
	got, err := db.Execute(context.Background(), out.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualUnordered(target) {
		t.Errorf("candidate is not instance-equivalent:\n%s", out.Query)
	}
}

func TestReverseEngineerJoin(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	target := runQuery(t, db, "select n_name, count(*) as cnt from nation, supplier where n_nationkey = s_nationkey group by n_name")
	out := ReverseEngineer(db, target, DefaultConfig())
	if out.Query == nil {
		t.Fatalf("no candidate found: %s", out.Reason)
	}
	got, err := db.Execute(context.Background(), out.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualUnordered(target) {
		t.Errorf("candidate is not instance-equivalent:\n%s", out.Query)
	}
}

func TestReverseEngineerProjectionOnly(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	target := runQuery(t, db, "select r_name from region")
	out := ReverseEngineer(db, target, DefaultConfig())
	if out.Query == nil {
		t.Fatalf("no candidate found: %s", out.Reason)
	}
	got, err := db.Execute(context.Background(), out.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualUnordered(target) {
		t.Errorf("candidate is not instance-equivalent:\n%s", out.Query)
	}
}

func TestReverseEngineerTimesOut(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	target := runQuery(t, db, "select o_custkey, sum(o_totalprice) as total from orders group by o_custkey")
	cfg := DefaultConfig()
	cfg.Timeout = time.Nanosecond
	out := ReverseEngineer(db, target, cfg)
	if !out.DNC {
		t.Errorf("expected DNC under a nanosecond budget, got %+v", out)
	}
}

func TestReverseEngineerEmptyTarget(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	out := ReverseEngineer(db, &sqldb.Result{Columns: []string{"x"}}, DefaultConfig())
	if out.Query != nil || out.Reason == "" {
		t.Error("empty target should be rejected with a reason")
	}
}

func TestReverseEngineerCountsCandidates(t *testing.T) {
	db := tpch.NewDatabase(tpch.ScaleTiny, 5)
	target := runQuery(t, db, "select c_mktsegment, count(*) as cnt from customer group by c_mktsegment")
	out := ReverseEngineer(db, target, DefaultConfig())
	if out.CandidatesTried == 0 {
		t.Error("candidate counter not incremented")
	}
	if out.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
}

// TestContributingRowsMatchVisibleColumnsExactly: filter inference
// counts a probe row as contributing only when its visible columns
// equal a target row's exactly. Matching '|'-joined GroupKeys by
// prefix let the probe value 1 match the target row (12, 5), and made
// the text rows ('x|sy','z') and ('x','y|sz') one key; either way the
// non-contributing row widened the inferred range until it excluded
// nothing.
func TestContributingRowsMatchVisibleColumnsExactly(t *testing.T) {
	db := sqldb.NewDatabase()
	for _, s := range []sqldb.TableSchema{
		{Name: "t", Columns: []sqldb.Column{{Name: "a", Type: sqldb.TInt}, {Name: "x", Type: sqldb.TInt}}},
		{Name: "u", Columns: []sqldb.Column{{Name: "s1", Type: sqldb.TText}, {Name: "s2", Type: sqldb.TText}, {Name: "y", Type: sqldb.TInt}}},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []int64{10, 12, 14, 16, 20} {
		if err := db.Insert("t", sqldb.NewInt(12), sqldb.NewInt(x)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int64{{1, 100}, {3, 50}} {
		if err := db.Insert("t", sqldb.NewInt(r[0]), sqldb.NewInt(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		s1, s2 string
		y      int64
	}{{"x|sy", "z", 10}, {"x", "y|sz", 100}, {"q", "r", 50}} {
		if err := db.Insert("u", sqldb.NewText(r.s1), sqldb.NewText(r.s2), sqldb.NewInt(r.y)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, target, candidate, filter string
	}{
		{"int-prefix", "select a, count(*) as cnt from t where a = 12 group by a",
			"select t.a, count(*) as cnt from t group by t.a", "t.x between 10 and 20"},
		{"text-separator", "select s1, s2 from u where y = 10",
			"select u.s1, u.s2 from u", "u.y between 10 and 10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := &engine{db: db, target: runQuery(t, db, c.target), cfg: DefaultConfig(),
				deadline: time.Now().Add(time.Minute), out: &Output{}}
			stmt, err := sqlparser.Parse(c.candidate)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.inferFilters(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || !strings.Contains(got.Where.String(), c.filter) {
				t.Fatalf("inferred %v, want a filter %s", got, c.filter)
			}
		})
	}
}
