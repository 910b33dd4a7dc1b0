package storage

import (
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/enki"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/rubis"
	"unmasque/internal/workloads/tpcds"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/workloads/wilos"
)

// TestWorkloadFingerprintParity is the byte-identity contract of the
// row codec the probe cache stores results with: for every corpus
// workload, each row encoded with appendRow and decoded with
// decodeRow, then loaded into an empty clone of the schema, must
// reproduce exactly the fingerprint of the original. Every value type
// and NULL pattern the workloads generate thus survives the codec
// bit for bit.
func TestWorkloadFingerprintParity(t *testing.T) {
	cases := []struct {
		name string
		mk   func(seed int64) *sqldb.Database
	}{
		{"tpch", func(seed int64) *sqldb.Database { return tpch.NewDatabase(tpch.ScaleTiny, seed) }},
		{"tpcds", func(seed int64) *sqldb.Database { return tpcds.NewDatabase(tpcds.ScaleTiny, seed) }},
		{"job", func(seed int64) *sqldb.Database { return job.NewDatabase(job.ScaleTiny, seed) }},
		{"enki", enki.NewDatabase},
		{"wilos", wilos.NewDatabase},
		{"rubis", rubis.NewDatabase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.mk(7)
			clone := orig.CloneSchema()
			var buf []byte
			for _, name := range orig.TableNames() {
				src, err := orig.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				rows := src.SnapshotRows()
				decoded := make([]sqldb.Row, 0, len(rows))
				for _, row := range rows {
					buf = appendRow(buf[:0], row)
					got, err := decodeRow(buf)
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					decoded = append(decoded, got)
				}
				dst, err := clone.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				dst.SetRows(decoded)
			}
			if orig.TotalRows() == 0 {
				t.Fatal("workload generated no rows")
			}
			if got, want := clone.Fingerprint(), orig.Fingerprint(); got != want {
				t.Fatalf("fingerprint diverged across the codec round-trip: %x != %x", got, want)
			}
		})
	}
}
