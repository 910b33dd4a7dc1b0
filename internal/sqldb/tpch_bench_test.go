package sqldb_test

import (
	"context"
	"testing"

	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/tpch"
)

// BenchmarkExecuteTPCH times the engine on the shapes an extraction
// job runs on its full database instance D_I: TPC-H at the registry's
// scale (ScaleTiny*8) with witnesses planted. Q1 scans one table and
// folds ten aggregates over four groups, Q3 joins three tables into
// many groups under ORDER BY/LIMIT, and Q18 joins three tables and
// groups by five columns. Run with -benchmem: allocs/op counts the
// per-tuple allocations of the join and aggregation stages.
func BenchmarkExecuteTPCH(b *testing.B) {
	queries := tpch.HiddenQueries()
	for _, name := range []string{"Q1", "Q3", "Q18"} {
		db := tpch.NewDatabase(tpch.ScaleTiny*8, 1)
		if err := tpch.PlantWitnesses(db, map[string]string{name: queries[name]}); err != nil {
			b.Fatal(err)
		}
		stmt, err := sqlparser.Parse(queries[name])
		if err != nil {
			b.Fatal(err)
		}
		res, err := db.Execute(context.Background(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Populated() {
			b.Fatalf("%s: empty result on D_I", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(context.Background(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewDatabaseTPCH times generating the TPC-H instance every
// tpch/* extraction job starts from.
func BenchmarkNewDatabaseTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tpch.NewDatabase(tpch.ScaleTiny*8, 1)
	}
}
