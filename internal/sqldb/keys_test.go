package sqldb_test

import (
	"math"
	"testing"

	"unmasque/internal/sqldb"
)

// collidingDB holds rows whose values, joined with '|' after GroupKey
// rendering ("s" + text), spell the same string: ('x|sy','z') and
// ('x','y|sz') both render as "sx|sy|sz".
//
//	t(a text, b text): ('x|sy','z'), ('x','y|sz')
//	u(x text, y text): ('x','y|sz')
func collidingDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	for _, name := range []string{"t", "u"} {
		cols := []sqldb.Column{{Name: "a", Type: sqldb.TText}, {Name: "b", Type: sqldb.TText}}
		if name == "u" {
			cols = []sqldb.Column{{Name: "x", Type: sqldb.TText}, {Name: "y", Type: sqldb.TText}}
		}
		if err := db.CreateTable(sqldb.TableSchema{Name: name, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	tx := sqldb.NewText
	for _, r := range [][2]string{{"x|sy", "z"}, {"x", "y|sz"}} {
		if err := db.Insert("t", tx(r[0]), tx(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("u", tx("x"), tx("y|sz")); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCompositeKeysDoNotCollide pins that GROUP BY and hash-join keys
// over several columns keep the columns apart. Both results are
// checked against hand-written rows, not only against the oracle:
// the oracle builds its keys with the same encoder.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	db := collidingDB(t)
	tx, in := sqldb.NewText, sqldb.NewInt
	cases := []struct {
		sql  string
		want []sqldb.Row
	}{
		{
			sql: "select a, b, count(*) from t group by a, b",
			want: []sqldb.Row{
				{tx("x|sy"), tx("z"), in(1)},
				{tx("x"), tx("y|sz"), in(1)},
			},
		},
		{
			sql:  "select a, b, x, y from t, u where a = x and b = y",
			want: []sqldb.Row{{tx("x"), tx("y|sz"), tx("x"), tx("y|sz")}},
		},
	}
	for _, c := range cases {
		got := run(t, db, c.sql)
		want := sqldb.RestoreResult(got.Columns, c.want, false)
		if !got.EqualOrdered(want) || got.RowCount() != len(c.want) {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.sql, got, want)
		}
		compareSQL(t, db, c.sql, c.sql)
	}
}

// TestResultKeysDoNotCollide pins the checker's result comparisons
// (EqualUnordered, Checksum) against the same colliding pair, and
// keeps EqualUnordered's float tolerance: floats agreeing to 6
// decimal digits compare equal, in any column.
func TestResultKeysDoNotCollide(t *testing.T) {
	tx, fl := sqldb.NewText, sqldb.NewFloat
	one := func(vals ...sqldb.Value) *sqldb.Result {
		return sqldb.RestoreResult([]string{"p", "q"}, []sqldb.Row{vals}, false)
	}
	a, b := one(tx("x|sy"), tx("z")), one(tx("x"), tx("y|sz"))
	if a.EqualUnordered(b) {
		t.Error("EqualUnordered: ('x|sy','z') equals ('x','y|sz')")
	}
	if a.Checksum() == b.Checksum() {
		t.Error("Checksum: ('x|sy','z') collides with ('x','y|sz')")
	}
	if !a.EqualUnordered(one(tx("x|sy"), tx("z"))) || a.Checksum() != one(tx("x|sy"), tx("z")).Checksum() {
		t.Error("equal rows must compare equal")
	}

	near := one(fl(1.0000001), tx("1"))
	if !near.EqualUnordered(one(fl(1.0000004), tx("1"))) {
		t.Error("floats equal to 6 digits must compare equal")
	}
	if near.EqualUnordered(one(fl(1.00001), tx("1"))) {
		t.Error("floats differing in the 5th digit must differ")
	}
	if one(fl(1.5), tx("z")).EqualUnordered(one(tx("1.500000"), tx("z"))) {
		t.Error("a float must not equal its text rendering")
	}
	nan := one(fl(math.NaN()), sqldb.NewNull(sqldb.TText))
	if !nan.EqualUnordered(one(fl(math.NaN()), sqldb.NewNull(sqldb.TInt))) {
		t.Error("NaNs and NULLs of any type must compare equal")
	}
}
