package sqldb

import (
	"math/rand"
	"reflect"
	"testing"
)

func warehouseSchemas() []TableSchema {
	return []TableSchema{
		{
			Name: "customer",
			Columns: []Column{
				{Name: "c_custkey", Type: TInt},
				{Name: "c_name", Type: TText},
			},
			PrimaryKey: []string{"c_custkey"},
		},
		{
			Name: "orders",
			Columns: []Column{
				{Name: "o_orderkey", Type: TInt},
				{Name: "o_custkey", Type: TInt},
			},
			PrimaryKey:  []string{"o_orderkey"},
			ForeignKeys: []ForeignKey{{Column: "o_custkey", RefTable: "customer", RefColumn: "c_custkey"}},
		},
		{
			Name: "lineitem",
			Columns: []Column{
				{Name: "l_orderkey", Type: TInt},
			},
			ForeignKeys: []ForeignKey{{Column: "l_orderkey", RefTable: "orders", RefColumn: "o_orderkey"}},
		},
		{
			Name: "history",
			Columns: []Column{
				{Name: "h_custkey", Type: TInt},
			},
			ForeignKeys: []ForeignKey{{Column: "h_custkey", RefTable: "customer", RefColumn: "c_custkey"}},
		},
	}
}

func TestBuildSchemaGraphPKFKAndFKFK(t *testing.T) {
	g := BuildSchemaGraph(warehouseSchemas())
	has := func(a, b string) bool {
		for _, e := range g.Edges {
			if e.String() == a+"="+b || e.String() == b+"="+a {
				return true
			}
		}
		return false
	}
	if !has("orders.o_custkey", "customer.c_custkey") {
		t.Error("missing PK-FK edge orders->customer")
	}
	if !has("lineitem.l_orderkey", "orders.o_orderkey") {
		t.Error("missing PK-FK edge lineitem->orders")
	}
	// FK-FK: both o_custkey and h_custkey reference c_custkey.
	if !has("history.h_custkey", "orders.o_custkey") {
		t.Error("missing FK-FK edge history<->orders")
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, e := range g.Edges {
		k := e.Canonical().String()
		if seen[k] {
			t.Errorf("duplicate edge %s", k)
		}
		seen[k] = true
	}
}

func TestEdgesWithin(t *testing.T) {
	g := BuildSchemaGraph(warehouseSchemas())
	sub := g.EdgesWithin(map[string]bool{"customer": true, "orders": true})
	for _, e := range sub {
		if e.A.Table == "lineitem" || e.B.Table == "lineitem" || e.A.Table == "history" || e.B.Table == "history" {
			t.Errorf("edge %s escapes the table subset", e)
		}
	}
	if len(sub) != 1 {
		t.Errorf("got %d edges within {customer,orders}, want 1", len(sub))
	}
}

func TestSchemaColumnHelpers(t *testing.T) {
	s := warehouseSchemas()[1]
	if !s.IsKey("o_orderkey") || !s.IsKey("o_custkey") {
		t.Error("key detection failed")
	}
	if s.ColumnIndex("O_CUSTKEY") != 1 {
		t.Error("column lookup should be case-insensitive")
	}
	if _, err := s.Column("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestColumnDomainDefaults(t *testing.T) {
	c := Column{Name: "x", Type: TInt}
	if c.DomainMin() != DefaultMinInt || c.DomainMax() != DefaultMaxInt {
		t.Error("int domain defaults wrong")
	}
	d := Column{Name: "d", Type: TDate}
	if DateString(d.DomainMin()) != "1900-01-01" || DateString(d.DomainMax()) != "2099-12-31" {
		t.Errorf("date domain defaults: %s .. %s", DateString(d.DomainMin()), DateString(d.DomainMax()))
	}
	f := Column{Name: "f", Type: TFloat}
	if f.FloatPrecision() != DefaultPrecision {
		t.Error("float precision default wrong")
	}
	bounded := Column{Name: "b", Type: TInt, MinInt: -5, MaxInt: 5}
	if bounded.DomainMin() != -5 || bounded.DomainMax() != 5 {
		t.Error("explicit domain ignored")
	}
}

func TestDatabaseDDL(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateTable(warehouseSchemas()[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(warehouseSchemas()[0]); err == nil {
		t.Error("duplicate create should error")
	}
	if err := db.RenameTable("customer", "customer_tmp"); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("customer") || !db.HasTable("customer_tmp") {
		t.Error("rename did not take effect")
	}
	if err := db.RenameTable("customer_tmp", "customer"); err != nil {
		t.Fatal(err)
	}
	if err := db.RenameTable("ghost", "x"); err == nil {
		t.Error("renaming a missing table should error")
	}
	if err := db.DropTable("customer"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("customer"); err == nil {
		t.Error("double drop should error")
	}
}

func TestDatabaseCloneVariants(t *testing.T) {
	db := NewDatabase()
	for _, s := range warehouseSchemas() {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("customer", NewInt(1), NewText("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", NewInt(1), NewInt(1)); err != nil {
		t.Fatal(err)
	}

	full := db.Clone()
	tbl, _ := full.Table("customer")
	if tbl.RowCount() != 1 {
		t.Error("Clone lost rows")
	}
	tbl.Rows[0][0] = NewInt(99)
	orig, _ := db.Table("customer")
	if orig.Rows[0][0].I != 1 {
		t.Error("Clone shares row storage")
	}

	empty := db.CloneSchema()
	tbl, _ = empty.Table("customer")
	if tbl.RowCount() != 0 {
		t.Error("CloneSchema copied rows")
	}

	part := db.CloneTables(map[string]bool{"orders": true})
	tbl, _ = part.Table("orders")
	if tbl.RowCount() != 1 {
		t.Error("CloneTables dropped requested rows")
	}
	tbl, _ = part.Table("customer")
	if tbl.RowCount() != 0 {
		t.Error("CloneTables copied unrequested rows")
	}
}

// TestCloneTablesRowSetOpsLeaveSource: a CloneTables clone shares the
// source's Row values, so the row-set operations the minimizer runs on
// the silo must leave the source's rows, and their order, unchanged.
func TestCloneTablesRowSetOpsLeaveSource(t *testing.T) {
	db := NewDatabase()
	for _, s := range warehouseSchemas() {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	src, _ := db.Table("orders")
	for i := 0; i < 16; i++ {
		src.MustInsert(NewInt(int64(i)), NewInt(int64(i%3)))
	}
	var want []Row
	for _, r := range src.Rows {
		want = append(want, r.Clone())
	}
	for _, c := range []struct {
		name string
		op   func(*Table) error
	}{
		{"SetRows", func(tbl *Table) error {
			rows := tbl.SnapshotRows()
			tbl.SetRows(append(CopyRows(rows[8:]), rows[:8]...))
			return nil
		}},
		{"Sample", func(tbl *Table) error {
			tbl.Sample(0.3, rand.New(rand.NewSource(1)))
			return nil
		}},
		{"KeepRange", func(tbl *Table) error { return tbl.KeepRange(3, 9) }},
		{"DeleteRow", func(tbl *Table) error { return tbl.DeleteRow(0) }},
	} {
		clone := db.CloneTables(map[string]bool{"orders": true})
		tbl, _ := clone.Table("orders")
		if err := c.op(tbl); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reflect.DeepEqual(tbl.Rows, want) {
			t.Fatalf("%s: the clone's rows did not change", c.name)
		}
		if !reflect.DeepEqual(src.Rows, want) {
			t.Fatalf("%s on a CloneTables clone changed the source's rows", c.name)
		}
	}
}

func TestTableNamesBySize(t *testing.T) {
	db := NewDatabase()
	for _, s := range warehouseSchemas() {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	o, _ := db.Table("orders")
	for i := 0; i < 5; i++ {
		o.MustInsert(NewInt(int64(i)), NewInt(1))
	}
	c, _ := db.Table("customer")
	c.MustInsert(NewInt(1), NewText("a"))
	names := db.TableNamesBySize()
	if names[0] != "orders" {
		t.Errorf("largest-first ordering: %v", names)
	}
	if db.TotalRows() != 6 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
}
