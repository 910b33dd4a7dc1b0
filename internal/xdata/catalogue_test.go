package xdata_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"unmasque/internal/analysis/eqcequiv"
	"unmasque/internal/core"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/xdata"
)

// checkerSurvivors lists the TPC-H mutants that the bounded checker
// disproves at k=2 but that none of the extraction checker's generated
// instances kills (Config.Seed = 1, Q_H standing in for Q_E; D_I is
// not among them). Closing a gap means making xdata.Generate kill the
// mutant, then deleting its entry here.
var checkerSurvivors = []string{
	"Q1/agg:avg->min#6",
	"Q1/agg:avg->max#6",
	"Q3/agg:sum->avg#0",
	"Q3/agg:sum->min#0",
	"Q3/distinct#0",
	"Q4/bound+#1",
	"Q5/bound+#1",
	"Q5/group-extra:c_name",
	"Q6/bound+#1",
	"Q6/bound-#2",
	"Q6/bound+#3",
	"Q10/bound+#1",
	"Q10/agg:sum->avg#0",
	"Q10/agg:sum->min#0",
	"Q10/distinct#0",
	"Q14/bound+#1",
	"Q16/order-flip#1",
	"Q16/order-flip#2",
	"Q18/distinct#0",
	"Q18/order-flip#1",
	"Q19/bound+#1",
	"Q21/group-extra:s_address",
}

func parse(t *testing.T, src string) *sqldb.SelectStmt {
	t.Helper()
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

// TestMutantCatalogueKillRate checks the acceptance bar: at least 90%
// of the XData mutant catalogue over the TPC-H corpus is disproved
// with a concrete counterexample database.
//
// It also pins what the extraction checker leaves alive: every mutant
// the bounded checker disproves is replayed next to Q_H on the
// instances the checker builds, and the mutants that agree with Q_H on
// all of them must be exactly checkerSurvivors.
func TestMutantCatalogueKillRate(t *testing.T) {
	schemas := tpch.Schemas()
	total, killed := 0, 0
	var survivors []string
	for _, name := range tpch.QueryOrder() {
		stmt := parse(t, tpch.HiddenQueries()[name])
		instances := checkerInstances(t, stmt, schemas)
		keys := orderKeys(t, stmt)
		for _, m := range xdata.Mutants(stmt, schemas) {
			v, err := eqcequiv.Check(stmt, m.Stmt, schemas, eqcequiv.Options{Bound: 2, MaxInstances: 50000})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Label, err)
			}
			total++
			switch v.Outcome {
			case eqcequiv.Inequivalent:
				killed++
				ce := v.Counterexample
				if ce.DB == nil || ce.DigestA == ce.DigestB {
					t.Errorf("%s/%s: malformed counterexample", name, m.Label)
				}
				if !killedOnAny(t, stmt, m.Stmt, keys, instances) {
					survivors = append(survivors, name+"/"+m.Label)
				}
			case eqcequiv.Equivalent:
				t.Logf("%s/%s: proven equivalent (%s)", name, m.Label, v.Proof)
			default:
				t.Logf("%s/%s: exhausted after %d instances", name, m.Label, v.Instances)
			}
		}
	}
	if total == 0 {
		t.Fatal("no mutants generated")
	}
	rate := float64(killed) / float64(total)
	t.Logf("killed %d/%d mutants (%.1f%%)", killed, total, 100*rate)
	if rate < 0.90 {
		t.Errorf("kill rate %.1f%% below the 90%% bar", 100*rate)
	}
	if got, want := strings.Join(survivors, "\n"), strings.Join(checkerSurvivors, "\n"); got != want {
		t.Errorf("mutants the bounded checker kills but the extraction checker does not:\n%s\nwant:\n%s", got, want)
	}
}

// checkerInstances builds the databases the extraction checker compares
// E and Q_E on at Config.Seed = 1, after D_I: three random instances of
// 40 rows per table (RNG seeds 1001-1003), then the xdata.Generate
// suite with seed 1.
func checkerInstances(t *testing.T, stmt *sqldb.SelectStmt, schemas []sqldb.TableSchema) []*sqldb.Database {
	t.Helper()
	a, err := xdata.Analyze(stmt, schemas)
	if err != nil {
		t.Fatal(err)
	}
	var dbs []*sqldb.Database
	for seed := int64(1001); seed <= 1003; seed++ {
		db, err := a.RandomInstance(40, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	suite, err := xdata.Generate(stmt, schemas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range suite {
		dbs = append(dbs, inst.DB)
	}
	return dbs
}

// orderKeys maps the query's ORDER BY entries to output positions, the
// form the checker compares ordered results in.
func orderKeys(t *testing.T, stmt *sqldb.SelectStmt) []core.OrderItem {
	t.Helper()
	var keys []core.OrderItem
	for _, k := range stmt.OrderBy {
		idx := -1
		for i, it := range stmt.Items {
			if strings.EqualFold(it.Alias, k.Expr.String()) || strings.EqualFold(it.Expr.String(), k.Expr.String()) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("order key %s is not an output column", k.Expr)
		}
		keys = append(keys, core.OrderItem{OutputIndex: idx, Desc: k.Desc})
	}
	return keys
}

// killedOnAny reports whether the mutant fails, or disagrees with the
// query, on some instance under the checker's comparison: results with
// no populated row compare as empty, then as multisets, then position
// by position on the order keys.
func killedOnAny(t *testing.T, stmt, mutant *sqldb.SelectStmt, keys []core.OrderItem, dbs []*sqldb.Database) bool {
	t.Helper()
	for _, db := range dbs {
		want, err := db.Execute(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Execute(context.Background(), mutant)
		if err != nil {
			return true
		}
		want, got = nullAsEmpty(want), nullAsEmpty(got)
		if !want.EqualUnordered(got) || len(keys) > 0 && !core.OrderedEquivalent(want, got, keys) {
			return true
		}
	}
	return false
}

func nullAsEmpty(r *sqldb.Result) *sqldb.Result {
	if r.Populated() {
		return r
	}
	return &sqldb.Result{Columns: r.Columns}
}
