package app

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unmasque/internal/sqldb"
)

func tinyDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name:    "t",
		Columns: []sqldb.Column{{Name: "x", Type: sqldb.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := db.Insert("t", sqldb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestObfuscateRoundTrip(t *testing.T) {
	sql := "select x from t where x > 1;"
	blob := Obfuscate(sql)
	if strings.Contains(string(blob), "select") {
		t.Error("obfuscated blob still contains readable SQL")
	}
	if got := Deobfuscate(blob); got != sql {
		t.Errorf("round trip: %q", got)
	}
}

func TestSQLExecutableRun(t *testing.T) {
	db := tinyDB(t)
	e, err := NewSQLExecutable("probe", "select x from t where x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Errorf("got %d rows", res.RowCount())
	}
}

func TestSQLExecutableValidatesEagerly(t *testing.T) {
	if _, err := NewSQLExecutable("bad", "select from"); err == nil {
		t.Error("malformed hidden SQL should be rejected at construction")
	}
}

func TestRunWithTimeoutMissingTableErrorsFast(t *testing.T) {
	db := tinyDB(t)
	if err := db.RenameTable("t", "t_renamed"); err != nil {
		t.Fatal(err)
	}
	e := MustSQLExecutable("probe", "select x from t")
	start := time.Now()
	_, err := RunCtx(context.Background(), e, db, 5*time.Second)
	if !errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("missing-table error should be immediate")
	}
}

func TestRunWithTimeoutCutsOffSlowApp(t *testing.T) {
	db := tinyDB(t)
	e := MustSQLExecutable("slow", "select x from t")
	e.SetStartupDelay(500 * time.Millisecond)
	_, err := RunCtx(context.Background(), e, db, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestImperativeExecutable(t *testing.T) {
	db := tinyDB(t)
	fn := func(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
		tbl, err := db.Table("t")
		if err != nil {
			return nil, err
		}
		res := &sqldb.Result{Columns: []string{"x"}}
		for _, r := range tbl.Rows {
			if r[0].I > 1 {
				res.Rows = append(res.Rows, sqldb.Row{r[0]})
			}
		}
		return res, nil
	}
	e := NewImperativeExecutable("imp", fn, "select x from t where x > 1")
	res, err := e.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Errorf("got %d rows", res.RowCount())
	}
	if e.GroundTruthSQL() == "" {
		t.Error("ground truth lost")
	}
}

func TestCountingExecutable(t *testing.T) {
	db := tinyDB(t)
	inner := MustSQLExecutable("inner", "select x from t")
	c := &CountingExecutable{Inner: inner}
	for i := 0; i < 3; i++ {
		if _, err := c.Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
	}
	if c.Invocations() != 3 {
		t.Errorf("wrapper invocations = %d", c.Invocations())
	}
}
