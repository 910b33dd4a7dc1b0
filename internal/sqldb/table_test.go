package sqldb

import (
	"math/rand"
	"testing"
)

func testSchema() TableSchema {
	return TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "k", Type: TInt},
			{Name: "v", Type: TFloat, Precision: 2},
			{Name: "s", Type: TText, MaxLen: 5},
			{Name: "d", Type: TDate},
		},
		PrimaryKey: []string{"k"},
	}
}

func TestInsertCoercion(t *testing.T) {
	tbl := NewTable(testSchema())
	if err := tbl.Insert(NewInt(1), NewInt(2), NewText("abc"), NewInt(100)); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1].Typ != TFloat || tbl.Rows[0][1].F != 2 {
		t.Errorf("int->float coercion: %v", tbl.Rows[0][1])
	}
	if tbl.Rows[0][3].Typ != TDate || tbl.Rows[0][3].I != 100 {
		t.Errorf("int->date coercion: %v", tbl.Rows[0][3])
	}
	// Float rounding at column precision.
	if err := tbl.Insert(NewInt(2), NewFloat(1.239), NewText("x"), NewInt(0)); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[1][1].F != 1.24 {
		t.Errorf("precision rounding: %v", tbl.Rows[1][1])
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := NewTable(testSchema())
	if err := tbl.Insert(NewInt(1)); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := tbl.Insert(NewText("x"), NewFloat(0), NewText("a"), NewInt(0)); err == nil {
		t.Error("text into int should error")
	}
	if err := tbl.Insert(NewInt(1), NewFloat(0), NewText("toolong"), NewInt(0)); err == nil {
		t.Error("overlong text should error")
	}
}

// TestInsertRowsAllOrNothing: a bulk insert coerces every row like
// Insert, and one bad row leaves the table untouched.
func TestInsertRowsAllOrNothing(t *testing.T) {
	tbl := NewTable(testSchema())
	good := Row{NewInt(1), NewInt(2), NewText("a"), NewInt(3)}
	bad := Row{NewInt(2), NewFloat(0), NewText("toolong"), NewInt(0)}
	if err := tbl.InsertRows([]Row{good, bad}); err == nil {
		t.Fatal("overlong text in the second row should error")
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("failed bulk insert left %d rows", tbl.RowCount())
	}
	rows := []Row{{NewInt(1), NewInt(2), NewText("a"), NewInt(3)}, {NewInt(4), NewFloat(1.239), NewNull(TInt), NewInt(5)}}
	if err := tbl.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 2 || tbl.Rows[0][1] != NewFloat(2) || tbl.Rows[1][1].F != 1.24 || tbl.Rows[1][2] != NewNull(TText) {
		t.Fatalf("bulk insert did not coerce like Insert: %v", tbl.Rows)
	}
}

func TestGetSetNegate(t *testing.T) {
	tbl := NewTable(testSchema())
	tbl.MustInsert(NewInt(5), NewFloat(1.5), NewText("a"), NewInt(10))
	tbl.MustInsert(NewInt(-7), NewFloat(2.5), NewText("b"), NewInt(20))
	if err := tbl.NegateColumn("k"); err != nil {
		t.Fatal(err)
	}
	v, _ := tbl.Get(0, "k")
	if v.I != -5 {
		t.Errorf("negate: %v", v)
	}
	v, _ = tbl.Get(1, "k")
	if v.I != 7 {
		t.Errorf("negate: %v", v)
	}
	if err := tbl.NegateColumn("s"); err == nil {
		t.Error("negating a text column should error")
	}
	if err := tbl.SetAll("v", NewFloat(9.99)); err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if got, _ := tbl.Get(i, "v"); got.F != 9.99 {
			t.Errorf("SetAll row %d: %v", i, got)
		}
	}
	if _, err := tbl.Get(5, "k"); err == nil {
		t.Error("out-of-range Get should error")
	}
	if err := tbl.Set(0, "nope", NewInt(1)); err == nil {
		t.Error("unknown column Set should error")
	}
}

func TestKeepRange(t *testing.T) {
	tbl := NewTable(testSchema())
	for i := 0; i < 10; i++ {
		tbl.MustInsert(NewInt(int64(i)), NewFloat(0), NewText("x"), NewInt(0))
	}
	if err := tbl.KeepRange(3, 7); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 4 {
		t.Fatalf("KeepRange kept %d rows", tbl.RowCount())
	}
	if v, _ := tbl.Get(0, "k"); v.I != 3 {
		t.Errorf("first kept row: %v", v)
	}
	if err := tbl.KeepRange(3, 5); err == nil {
		t.Error("invalid range should error")
	}
}

func TestSampleKeepsAtLeastOneRow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tbl := NewTable(testSchema())
		for i := 0; i < 20; i++ {
			tbl.MustInsert(NewInt(int64(i)), NewFloat(0), NewText("x"), NewInt(0))
		}
		tbl.Sample(0.001, rng)
		if tbl.RowCount() == 0 {
			t.Fatal("sample emptied the table")
		}
		if tbl.RowCount() > 20 {
			t.Fatal("sample grew the table")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := NewTable(testSchema())
	tbl.MustInsert(NewInt(1), NewFloat(1), NewText("a"), NewInt(0))
	cp := tbl.Clone()
	if err := cp.Set(0, "k", NewInt(99)); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Get(0, "k"); v.I != 1 {
		t.Error("clone mutation leaked into original")
	}
}

func TestDeleteAndAppendCopy(t *testing.T) {
	tbl := NewTable(testSchema())
	tbl.MustInsert(NewInt(1), NewFloat(1), NewText("a"), NewInt(0))
	tbl.MustInsert(NewInt(2), NewFloat(2), NewText("b"), NewInt(0))
	idx, err := tbl.AppendRowCopy(0)
	if err != nil || idx != 2 {
		t.Fatalf("AppendRowCopy: %d, %v", idx, err)
	}
	if v, _ := tbl.Get(2, "k"); v.I != 1 {
		t.Errorf("copied row value %v", v)
	}
	if err := tbl.DeleteRow(0); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 2 {
		t.Errorf("after delete: %d rows", tbl.RowCount())
	}
	if v, _ := tbl.Get(0, "k"); v.I != 2 {
		t.Errorf("row shifted wrong: %v", v)
	}
}
