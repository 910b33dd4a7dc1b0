package eqcequiv

import (
	"testing"

	"unmasque/internal/sqldb"
)

// TestCompositeTextKeysStayDistinct: on a table keyed by two text
// columns, the keys ('x|sy','z') and ('x','y|sz') are distinct, so
// the enumeration must visit the two-row instance holding both.
// Joining the key's GroupKeys with '|' made them one key and dropped
// that instance.
func TestCompositeTextKeysStayDistinct(t *testing.T) {
	kv := sqldb.TableSchema{
		Name: "kv",
		Columns: []sqldb.Column{
			{Name: "a", Type: sqldb.TText},
			{Name: "b", Type: sqldb.TText},
		},
		PrimaryKey: []string{"a", "b"},
	}
	e := &enumerator{bound: 2, tables: []tableEnum{{
		schema: kv,
		templates: [][]sqldb.Value{
			{sqldb.NewText("x|sy"), sqldb.NewText("z")},
			{sqldb.NewText("x"), sqldb.NewText("y|sz")},
		},
		pk:       []int{0, 1},
		required: true,
	}}}
	sizes := map[int]int{}
	complete, _, err := e.enumerate(100, func(db *sqldb.Database) (bool, error) {
		sizes[db.TotalRows()]++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("enumeration did not cover the bounded space")
	}
	// One row: either template alone. Two rows: both together.
	if sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("instances by row count = %v, want map[1:2 2:1]", sizes)
	}
}
