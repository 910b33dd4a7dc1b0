package sqldb_test

// Micro-benchmarks of the engine primitives the extraction pipeline
// leans on: filtered scans, hash equi-joins, hash aggregation and the
// LIKE matcher. These bound the per-probe cost that Figures 9-11
// aggregate.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

func benchDB(b *testing.B, rows int) *sqldb.Database {
	b.Helper()
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "dim",
		Columns: []sqldb.Column{
			{Name: "dk", Type: sqldb.TInt, MinInt: 1, MaxInt: 1 << 30},
			{Name: "dname", Type: sqldb.TText, MaxLen: 20},
		},
		PrimaryKey: []string{"dk"},
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "fact",
		Columns: []sqldb.Column{
			{Name: "fk", Type: sqldb.TInt, MinInt: 1, MaxInt: 1 << 30},
			{Name: "val", Type: sqldb.TFloat, Precision: 2, MinInt: 0, MaxInt: 10000},
			{Name: "cat", Type: sqldb.TText, MaxLen: 12},
		},
		ForeignKeys: []sqldb.ForeignKey{{Column: "fk", RefTable: "dim", RefColumn: "dk"}},
	}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dim, _ := db.Table("dim")
	fact, _ := db.Table("fact")
	nDim := rows / 10
	if nDim < 1 {
		nDim = 1
	}
	for d := 1; d <= nDim; d++ {
		dim.MustInsert(sqldb.NewInt(int64(d)), sqldb.NewText(fmt.Sprintf("dim%d", d)))
	}
	cats := []string{"alpha", "beta", "gamma", "delta"}
	for f := 0; f < rows; f++ {
		fact.MustInsert(
			sqldb.NewInt(int64(1+rng.Intn(nDim))),
			sqldb.NewFloat(float64(rng.Intn(1000000))/100),
			sqldb.NewText(cats[rng.Intn(len(cats))]))
	}
	return db
}

func benchQuery(b *testing.B, rows int, sql string) {
	b.Helper()
	db := benchDB(b, rows)
	stmt := sqlparser.MustParse(sql)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(context.Background(), stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/1e3, "krows")
}

func BenchmarkEngineFilteredScan(b *testing.B) {
	benchQuery(b, 50000, "select val from fact where val >= 5000")
}

func BenchmarkEngineHashJoin(b *testing.B) {
	benchQuery(b, 50000, "select dname, val from dim, fact where dk = fk")
}

func BenchmarkEngineGroupAggregate(b *testing.B) {
	benchQuery(b, 50000, "select cat, count(*) as n, sum(val) as s, avg(val) as a from fact group by cat")
}

func BenchmarkEngineOrderLimit(b *testing.B) {
	benchQuery(b, 50000, "select val from fact order by val desc limit 10")
}

func BenchmarkEngineLikeFilter(b *testing.B) {
	benchQuery(b, 50000, "select cat from fact where cat like '%amm%'")
}

func BenchmarkLikeMatch(b *testing.B) {
	pattern, subject := "%spec_al%req%", "these are the special frequent requests"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sqldb.LikeMatch(pattern, subject) {
			b.Fatal("should match")
		}
	}
}

func BenchmarkDatabaseClone(b *testing.B) {
	db := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Clone()
	}
}

// Sinks keep the compiler from discarding the hashes under benchmark.
var (
	fingerprintSink sqldb.Fingerprint
	digestSink      sqldb.ResultDigest
)

// BenchmarkFingerprint hashes benchDB's instance: a fact table of n
// rows (int, float, text) plus an n/10-row dimension. Allocations per
// call must stay flat as n grows:
//
//	go test -run '^$' -bench 'BenchmarkFingerprint|BenchmarkDigest' -benchmem ./internal/sqldb
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink = db.Fingerprint()
			}
		})
	}
}

// BenchmarkDigest hashes the n-row result of scanning benchDB's fact
// table.
func BenchmarkDigest(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			res, err := benchDB(b, n).Execute(context.Background(), sqlparser.MustParse("select fk, val, cat from fact"))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = res.Digest()
			}
		})
	}
}

// BenchmarkOracleVsVector times the tree-walking oracle against the
// vector engine on the query shapes predicate minimization hammers
// on: point lookups (20k rows), Q1-style grouped aggregation (30k
// rows), ORDER BY + LIMIT over heavily tied keys (30k rows), and
// BETWEEN probes behind a leading w <> 3 (20k rows, executed on a
// clone, as the filter module's probes are). The engine has no index,
// so every shape times a scan on both engines. Each shape first
// checks that both engines render identical results for every
// statement it cycles through.
//
//	go test -run '^$' -bench BenchmarkOracleVsVector ./internal/sqldb
func BenchmarkOracleVsVector(b *testing.B) {
	shapes := []struct {
		name  string
		build func(b *testing.B) (*sqldb.Database, []*sqldb.SelectStmt)
	}{
		{"point-lookup", pointLookupShape},
		{"group-agg", groupAggShape},
		{"order-limit", orderLimitShape},
		{"between-probe", betweenProbeShape},
	}
	ctx := context.Background()
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			db, stmts := shape.build(b)
			for _, stmt := range stmts {
				want, err := db.ExecuteOracle(ctx, stmt)
				if err != nil {
					b.Fatalf("oracle: %v\nquery: %s", err, stmt)
				}
				got, err := db.Execute(ctx, stmt)
				if err != nil {
					b.Fatalf("vector: %v\nquery: %s", err, stmt)
				}
				if got.String() != want.String() {
					b.Fatalf("engines render different results\nquery: %s\noracle:\n%s\nvector:\n%s", stmt, want, got)
				}
			}
			for _, eng := range engines {
				b.Run(eng.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := eng.exec(db, ctx, stmts[i%len(stmts)]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// pointLookupShape: 64 point lookups on a primary key, each followed
// by a second (always true) predicate; both engines scan for them.
func pointLookupShape(b *testing.B) (*sqldb.Database, []*sqldb.SelectStmt) {
	const rows = 20000
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "pt",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "grp", Type: sqldb.TInt},
			{Name: "payload", Type: sqldb.TText},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("pt",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%97)),
			sqldb.NewText(fmt.Sprintf("p-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	stmts := make([]*sqldb.SelectStmt, 64)
	for k := range stmts {
		stmts[k] = sqlparser.MustParse(fmt.Sprintf(
			"select payload from pt where id = %d and grp >= 0", k*131%rows))
	}
	return db, stmts
}

// groupAggShape: a TPC-H Q1-shaped fold of a wide fact table into six
// groups under the full aggregate battery.
func groupAggShape(b *testing.B) (*sqldb.Database, []*sqldb.SelectStmt) {
	const rows = 30000
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "ln",
		Columns: []sqldb.Column{
			{Name: "flag", Type: sqldb.TText},
			{Name: "stat", Type: sqldb.TText},
			{Name: "qty", Type: sqldb.TInt},
			{Name: "price", Type: sqldb.TFloat},
			{Name: "disc", Type: sqldb.TFloat},
		},
	}); err != nil {
		b.Fatal(err)
	}
	flags, stats := []string{"A", "N", "R"}, []string{"F", "O"}
	for i := 0; i < rows; i++ {
		if err := db.Insert("ln",
			sqldb.NewText(flags[i%3]), sqldb.NewText(stats[i%2]),
			sqldb.NewInt(int64(i%50)+1),
			sqldb.NewFloat(float64(i%997)*1.01),
			sqldb.NewFloat(float64(i%10)/100)); err != nil {
			b.Fatal(err)
		}
	}
	return db, []*sqldb.SelectStmt{sqlparser.MustParse(
		"select flag, stat, count(qty), sum(qty), avg(price), min(disc), max(price) " +
			"from ln group by flag, stat order by flag, stat")}
}

// orderLimitShape: ORDER BY + LIMIT over heavily tied sort keys. Both
// engines sort the whole result, then truncate it to the limit.
func orderLimitShape(b *testing.B) (*sqldb.Database, []*sqldb.SelectStmt) {
	const rows = 30000
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "tk",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "grp", Type: sqldb.TInt},
			{Name: "w", Type: sqldb.TText},
		},
	}); err != nil {
		b.Fatal(err)
	}
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i := 0; i < rows; i++ {
		if err := db.Insert("tk",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%7)),
			sqldb.NewText(words[i%len(words)])); err != nil {
			b.Fatal(err)
		}
	}
	return db, []*sqldb.SelectStmt{sqlparser.MustParse(
		"select grp, w, id from tk order by grp desc, w limit 10")}
}

// betweenProbeShape: 64 BETWEEN probes behind a leading w <> 3. The
// returned database is a clone of the loaded one, mirroring the
// filter module's clone-per-probe discipline.
func betweenProbeShape(b *testing.B) (*sqldb.Database, []*sqldb.SelectStmt) {
	const rows = 20000
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "rp",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "w", Type: sqldb.TInt},
			{Name: "v", Type: sqldb.TInt},
			{Name: "payload", Type: sqldb.TText},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("rp",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%7)),
			sqldb.NewInt(int64(i%1000)),
			sqldb.NewText(fmt.Sprintf("r-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	stmts := make([]*sqldb.SelectStmt, 64)
	for k := range stmts {
		lo := (k * 37) % 990
		stmts[k] = sqlparser.MustParse(fmt.Sprintf(
			"select id from rp where w <> 3 and v between %d and %d", lo, lo+9))
	}
	return db.Clone(), stmts
}
