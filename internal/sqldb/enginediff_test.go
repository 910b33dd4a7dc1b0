package sqldb_test

// enginediff_test.go — the differential harness locking the
// vectorized engine to the tree-walking oracle: every corpus query,
// table-driven edge cases and fuzz-generated statements execute on
// the oracle (oracle_test.go) and on Execute, and must produce
// identical digests, column names and ordered row renderings (and
// identical error *presence* when they fail).

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/tpcds"
	"unmasque/internal/workloads/tpch"
)

// compareEngines executes stmt on db under the tree-walking oracle
// and under Execute, and reports a non-empty divergence description
// if the engines disagree.
func compareEngines(db *sqldb.Database, stmt *sqldb.SelectStmt) string {
	ctx := context.Background()
	rt, errT := db.ExecuteOracle(ctx, stmt)
	rv, errV := db.Execute(ctx, stmt)
	if (errT != nil) != (errV != nil) {
		return fmt.Sprintf("error presence diverges: tree=%v vector=%v", errT, errV)
	}
	if errT != nil {
		return "" // both error: presence parity is the contract
	}
	if len(rt.Columns) != len(rv.Columns) {
		return fmt.Sprintf("column counts differ: tree=%v vector=%v", rt.Columns, rv.Columns)
	}
	for i := range rt.Columns {
		if rt.Columns[i] != rv.Columns[i] {
			return fmt.Sprintf("column %d differs: tree=%q vector=%q", i, rt.Columns[i], rv.Columns[i])
		}
	}
	if rt.Digest() != rv.Digest() {
		return fmt.Sprintf("digests differ: tree=%s vector=%s\ntree:\n%s\nvector:\n%s",
			rt.Digest().Hex(), rv.Digest().Hex(), rt, rv)
	}
	if rt.String() != rv.String() {
		return fmt.Sprintf("ordered renderings differ:\ntree:\n%s\nvector:\n%s", rt, rv)
	}
	return ""
}

func compareSQL(t *testing.T, db *sqldb.Database, label, sql string) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	if msg := compareEngines(db, stmt); msg != "" {
		t.Errorf("%s: %s\nquery: %s", label, msg, sql)
	}
}

// TestEngineDiffCorpus runs every corpus query (TPC-H hidden +
// having, TPC-DS, JOB) through both engines on witness-planted
// workload databases.
func TestEngineDiffCorpus(t *testing.T) {
	const seed = 7
	total := 0
	runAll := func(wl string, qs map[string]string, db *sqldb.Database) {
		names := make([]string, 0, len(qs))
		for n := range qs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			total++
			compareSQL(t, db, wl+"/"+n, qs[n])
		}
	}

	db := tpch.NewDatabase(tpch.ScaleTiny*8, seed)
	if err := tpch.PlantWitnesses(db, tpch.HiddenQueries()); err != nil {
		t.Fatal(err)
	}
	runAll("tpch", tpch.HiddenQueries(), db)

	db = tpch.NewDatabase(tpch.ScaleTiny*8, seed)
	if err := tpch.PlantWitnesses(db, tpch.HavingQueries()); err != nil {
		t.Fatal(err)
	}
	runAll("tpch-having", tpch.HavingQueries(), db)

	db = tpcds.NewDatabase(tpcds.ScaleTiny, seed)
	if err := tpcds.PlantWitnesses(db, tpcds.HiddenQueries()); err != nil {
		t.Fatal(err)
	}
	runAll("tpcds", tpcds.HiddenQueries(), db)

	db = job.NewDatabase(job.ScaleTiny, seed)
	if err := job.PlantWitnesses(db, job.HiddenQueries()); err != nil {
		t.Fatal(err)
	}
	runAll("job", job.HiddenQueries(), db)

	if total < 33 {
		t.Fatalf("corpus covered %d queries, want at least 33", total)
	}
}

// edgeDB builds a small database exercising the engine's corner
// cases: a table of 40 rows with NULLs, a joinable second table,
// an empty table, and a table whose join key is entirely NULL.
func edgeDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustCreate := func(s sqldb.TableSchema) {
		t.Helper()
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(sqldb.TableSchema{Name: "t", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt},
		{Name: "grp", Type: sqldb.TInt},
		{Name: "v", Type: sqldb.TFloat},
		{Name: "s", Type: sqldb.TText},
		{Name: "b", Type: sqldb.TBool},
	}})
	mustCreate(sqldb.TableSchema{Name: "u", Columns: []sqldb.Column{
		{Name: "fk", Type: sqldb.TInt},
		{Name: "w", Type: sqldb.TInt},
		{Name: "lbl", Type: sqldb.TText},
	}})
	mustCreate(sqldb.TableSchema{Name: "e", Columns: []sqldb.Column{
		{Name: "x", Type: sqldb.TInt},
	}})
	mustCreate(sqldb.TableSchema{Name: "nk", Columns: []sqldb.Column{
		{Name: "k", Type: sqldb.TInt},
		{Name: "z", Type: sqldb.TInt},
	}})
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 40; i++ {
		s := sqldb.NewText(words[i%len(words)])
		if i%7 == 3 {
			s = sqldb.NewNull(sqldb.TText)
		}
		v := sqldb.NewFloat(float64(i%10) + 0.5)
		if i%11 == 5 {
			v = sqldb.NewNull(sqldb.TFloat)
		}
		if err := db.Insert("t",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%4)), v, s,
			sqldb.NewBool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if err := db.Insert("u",
			sqldb.NewInt(int64(i%10)), sqldb.NewInt(int64(i%5)),
			sqldb.NewText(words[i%len(words)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("nk",
			sqldb.NewNull(sqldb.TInt), sqldb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEngineDiffEdgeCases table-drives the tricky corners through
// both engines: empty tables, all-NULL join keys, DISTINCT
// aggregates, ORDER BY ties, point and range predicates, NULL
// logic and error parity.
func TestEngineDiffEdgeCases(t *testing.T) {
	db := edgeDB(t)
	cases := []struct{ name, sql string }{
		{"point-lookup-int", "select id, s from t where id = 17"},
		{"point-lookup-text", "select id from t where s = 'alpha'"},
		{"point-lookup-absent", "select id from t where id = 999"},
		{"point-lookup-reversed", "select id from t where 17 = id"},
		{"point-lookup-then-filter", "select id from t where id = 17 and v > 1.0"},
		{"float-eq-not-indexable", "select id from t where v = 2.5"},
		{"int-eq-float-literal", "select id from t where id = 3.0"},
		{"empty-table-scan", "select x from e"},
		{"empty-table-count", "select count(x) from e"},
		{"empty-table-group", "select x, count(x) from e group by x"},
		{"join-empty-table", "select t.id from t, e where t.id = e.x"},
		{"all-null-join-keys", "select z from nk, u where nk.k = u.fk"},
		{"join-basic", "select t.id, u.w from t, u where t.id = u.fk and u.w > 2"},
		{"join-residual", "select t.id, u.w from t, u where t.id = u.fk and t.id + u.w > 6"},
		{"cross-product", "select t.id, u.w from t, u where t.id < 3 and u.w < 1"},
		{"distinct-aggregates", "select grp, count(distinct s), sum(distinct id) from t group by grp"},
		{"order-by-ties", "select grp, id from t order by grp"},
		{"order-by-ties-desc", "select grp, id, s from t order by grp desc"},
		{"having", "select grp, count(id) from t group by grp having count(id) > 5"},
		{"between-and-like", "select id from t where id between 5 and 15 and s like 'a%'"},
		{"not-like", "select id from t where s not like '%a%'"},
		{"is-null", "select id from t where s is null"},
		{"is-not-null", "select id from t where v is not null and b"},
		{"null-or-logic", "select id from t where b or v > 8.0"},
		{"not-over-null", "select id from t where not (v > 3.0)"},
		{"arith-pushdown", "select id from t where v * 2.0 - 1.0 > 3.0"},
		{"neg-pushdown", "select id from t where -id < -35"},
		{"limit-after-order", "select id from t order by id desc limit 7"},
		{"between-int-pushdown", "select id from t where id between 8 and 22"},
		{"between-text-pushdown", "select id from t where s between 'alpha' and 'delta'"},
		{"between-float-not-indexable", "select id from t where v between 1.0 and 5.5"},
		{"between-mixed-class", "select id from t where id between 1.5 and 20"},
		{"between-empty-span", "select id from t where id between 50 and 60"},
		{"between-then-residual", "select t.id, u.w from t, u where t.id = u.fk and t.id between 2 and 8 and t.v + u.w > 3.0"},
		{"inequality-pushdown-ge", "select id from t where id >= 33"},
		{"inequality-pushdown-lt", "select id from t where id < 4"},
		{"inequality-literal-left", "select id from t where 33 <= id"},
		{"inequality-text", "select id from t where s > 'beta'"},
		{"null-heavy-residual", "select t.id from t, u where t.id = u.fk and t.v > 2.0 and t.s like '%a%'"},
		{"null-heavy-residual-or", "select t.id from t, u where t.id = u.fk and (t.v > 8.0 or t.s = 'beta')"},
		{"group-by-nullable-key", "select s, count(id) from t group by s"},
		{"group-all-null-key", "select k, count(z) from nk group by k"},
		{"group-all-null-agg-arg", "select z, sum(k) from nk group by z"},
		{"order-limit-ties", "select grp, id from t order by grp limit 5"},
		{"order-limit-exceeds-rows", "select id from t order by id limit 100"},
		{"order-desc-nulls-limit", "select v, id from t order by v desc limit 6"},
		{"order-multi-key-limit", "select grp, s, id from t order by grp, s desc limit 9"},
		{"order-hidden-float-text", "select id from t order by v desc, s"},
		{"order-hidden-int", "select id, s from t order by grp desc, id"},
		{"order-hidden-expr", "select id from t order by grp - id / 3, id desc"},
		{"order-hidden-limit", "select id from t order by s, v desc limit 5"},
		{"type-mismatch-error", "select id from t where s > 5"},
		{"div-by-zero-error", "select id from t where v / 0.0 > 1.0 and id >= 0"},
		{"div-by-zero-unreached", "select id from t where id < 0 and v / 0.0 > 1.0"},
		{"or-short-circuit", "select id from t where id >= 0 or v / 0.0 > 1.0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { compareSQL(t, db, tc.name, tc.sql) })
	}
}

// fuzzDB builds the deterministic statement-fuzzing database.
func fuzzDB(rng *rand.Rand) (*sqldb.Database, error) {
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{Name: "t", Columns: []sqldb.Column{
		{Name: "a", Type: sqldb.TInt},
		{Name: "b", Type: sqldb.TInt},
		{Name: "v", Type: sqldb.TFloat},
		{Name: "s", Type: sqldb.TText},
	}}); err != nil {
		return nil, err
	}
	if err := db.CreateTable(sqldb.TableSchema{Name: "u", Columns: []sqldb.Column{
		{Name: "k", Type: sqldb.TInt},
		{Name: "m", Type: sqldb.TInt},
	}}); err != nil {
		return nil, err
	}
	words := []string{"x", "xy", "xyz", "abc", ""}
	null := func(t sqldb.Type) sqldb.Value { return sqldb.NewNull(t) }
	for i := 0; i < 30; i++ {
		a := sqldb.NewInt(rng.Int63n(8))
		if rng.Intn(7) == 0 {
			a = null(sqldb.TInt)
		}
		v := sqldb.NewFloat(float64(rng.Intn(40)) / 4)
		if rng.Intn(7) == 0 {
			v = null(sqldb.TFloat)
		}
		s := sqldb.NewText(words[rng.Intn(len(words))])
		if rng.Intn(7) == 0 {
			s = null(sqldb.TText)
		}
		if err := db.Insert("t", a, sqldb.NewInt(rng.Int63n(5)), v, s); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 18; i++ {
		if err := db.Insert("u", sqldb.NewInt(rng.Int63n(8)), sqldb.NewInt(rng.Int63n(4))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// genOperand yields a random scalar operand over table t's columns.
func genOperand(rng *rand.Rand) sqldb.Expr {
	switch rng.Intn(6) {
	case 0:
		return sqldb.Col("t", "a")
	case 1:
		return sqldb.Col("t", "b")
	case 2:
		return sqldb.Col("t", "v")
	case 3:
		return sqldb.Lit(sqldb.NewInt(rng.Int63n(8)))
	case 4:
		return sqldb.Lit(sqldb.NewFloat(float64(rng.Intn(40)) / 4))
	default:
		ops := []sqldb.BinOp{sqldb.OpAdd, sqldb.OpSub, sqldb.OpMul, sqldb.OpDiv}
		return sqldb.Bin(ops[rng.Intn(len(ops))],
			sqldb.Col("t", "a"), sqldb.Lit(sqldb.NewInt(rng.Int63n(4))))
	}
}

// genPred yields a random predicate over table t, deliberately
// including type mismatches and division hazards so the fuzzer
// exercises error-presence parity, not just value parity.
func genPred(rng *rand.Rand, depth int) sqldb.Expr {
	if depth > 0 && rng.Intn(3) == 0 {
		op := sqldb.OpAnd
		if rng.Intn(2) == 0 {
			op = sqldb.OpOr
		}
		return sqldb.Bin(op, genPred(rng, depth-1), genPred(rng, depth-1))
	}
	switch rng.Intn(9) {
	case 0:
		return &sqldb.LikeExpr{X: sqldb.Col("t", "s"), Pattern: []string{"x%", "%y%", "a_c", "%"}[rng.Intn(4)], Not: rng.Intn(4) == 0}
	case 1:
		return &sqldb.IsNullExpr{X: genOperand(rng), Not: rng.Intn(2) == 0}
	case 2:
		return &sqldb.BetweenExpr{X: genOperand(rng), Lo: genOperand(rng), Hi: genOperand(rng)}
	case 3:
		return &sqldb.NotExpr{X: genPred(rng, 0)}
	case 4:
		// Occasionally compare text against a number: both engines
		// must raise (or not raise) the class error together.
		return sqldb.Bin(sqldb.OpGt, sqldb.Col("t", "s"), sqldb.Lit(sqldb.NewInt(1)))
	case 5:
		// BETWEEN over an int column with int literals: the shape of
		// the filter module's extracted range predicates.
		col := []string{"a", "b"}[rng.Intn(2)]
		return &sqldb.BetweenExpr{X: sqldb.Col("t", col),
			Lo: sqldb.Lit(sqldb.NewInt(rng.Int63n(5))),
			Hi: sqldb.Lit(sqldb.NewInt(2 + rng.Int63n(6)))}
	case 6:
		// Inequality against an int literal, literal on either side.
		cmps := []sqldb.BinOp{sqldb.OpLt, sqldb.OpLe, sqldb.OpGt, sqldb.OpGe}
		op := cmps[rng.Intn(len(cmps))]
		col := sqldb.Col("t", []string{"a", "b"}[rng.Intn(2)])
		lit := sqldb.Lit(sqldb.NewInt(rng.Int63n(8)))
		if rng.Intn(2) == 0 {
			return sqldb.Bin(op, col, lit)
		}
		return sqldb.Bin(op, lit, col)
	default:
		cmps := []sqldb.BinOp{sqldb.OpEq, sqldb.OpNe, sqldb.OpLt, sqldb.OpLe, sqldb.OpGt, sqldb.OpGe}
		return sqldb.Bin(cmps[rng.Intn(len(cmps))], genOperand(rng), genOperand(rng))
	}
}

// genStmt yields a random single-block statement: plain projections
// or grouped aggregates, sometimes joined to u, with random ORDER BY
// and LIMIT.
func genStmt(rng *rand.Rand) *sqldb.SelectStmt {
	stmt := &sqldb.SelectStmt{From: []string{"t"}}
	join := rng.Intn(3) == 0
	if join {
		stmt.From = append(stmt.From, "u")
		stmt.Where = sqldb.Bin(sqldb.OpEq, sqldb.Col("t", "a"), sqldb.Col("u", "k"))
	}
	if rng.Intn(2) == 0 {
		p := genPred(rng, 2)
		if stmt.Where != nil {
			stmt.Where = sqldb.Bin(sqldb.OpAnd, stmt.Where, p)
		} else {
			stmt.Where = p
		}
	}
	if rng.Intn(3) == 0 { // grouped aggregate
		stmt.GroupBy = []sqldb.Expr{sqldb.Col("t", "b")}
		fns := []sqldb.AggFn{sqldb.AggCount, sqldb.AggSum, sqldb.AggAvg, sqldb.AggMin, sqldb.AggMax}
		agg := &sqldb.AggExpr{Fn: fns[rng.Intn(len(fns))], Arg: sqldb.Col("t", "a"), Distinct: rng.Intn(3) == 0}
		stmt.Items = []sqldb.SelectItem{
			{Expr: sqldb.Col("t", "b")},
			{Expr: agg, Alias: "agg"},
		}
		if rng.Intn(2) == 0 {
			stmt.Having = sqldb.Bin(sqldb.OpGt, &sqldb.AggExpr{Fn: sqldb.AggCount, Arg: sqldb.Col("t", "a")}, sqldb.Lit(sqldb.NewInt(1)))
		}
		if rng.Intn(2) == 0 {
			stmt.OrderBy = []sqldb.OrderKey{{Expr: sqldb.Col("", "b"), Desc: rng.Intn(2) == 0}}
		}
	} else {
		stmt.Items = []sqldb.SelectItem{{Expr: sqldb.Col("t", "a")}, {Expr: sqldb.Col("t", "v")}}
		if join {
			stmt.Items = append(stmt.Items, sqldb.SelectItem{Expr: sqldb.Col("u", "m")})
		}
		if rng.Intn(2) == 0 {
			stmt.OrderBy = []sqldb.OrderKey{
				{Expr: sqldb.Col("t", "a")},
				{Expr: sqldb.Col("t", "v"), Desc: rng.Intn(2) == 0},
			}
		}
	}
	if rng.Intn(3) == 0 {
		stmt.Limit = int64(1 + rng.Intn(9))
	}
	return stmt
}

// FuzzExecDiff cross-checks vectorized vs tree execution on random
// statements over a randomized database.
func FuzzExecDiff(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 424242, -1} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		db, err := fuzzDB(rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			stmt := genStmt(rng)
			if msg := compareEngines(db, stmt); msg != "" {
				t.Fatalf("seed %d stmt %d: %s\nstatement: %s", seed, i, msg, stmt)
			}
		}
	})
}

// TestExecDiffRandomStatements is the deterministic in-CI slice of
// FuzzExecDiff.
func TestExecDiffRandomStatements(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	db, err := fuzzDB(rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		stmt := genStmt(rng)
		if msg := compareEngines(db, stmt); msg != "" {
			t.Fatalf("stmt %d: %s\nstatement: %s", i, msg, stmt)
		}
	}
}
