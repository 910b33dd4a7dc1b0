package sqldb

// index_test.go — property tests for the join-build cache, the
// engine's one per-table cache: build buckets must agree with a full
// scan across arbitrary mutation sequences, the cache must be dropped
// by SetRows and rebuilt against the restored rows, clones must start
// without it, and concurrent first builds must serialize. One scan
// test pins that pushdown predicates evaluate in WHERE order.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// newIndexTestTable builds a p(k, w) table with NULLs sprinkled into
// the key column k.
func newIndexTestTable(t *testing.T, n int, rng *rand.Rand) *Table {
	t.Helper()
	tbl := NewTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt},
		{Name: "w", Type: TInt},
	}})
	for i := 0; i < n; i++ {
		k := NewInt(rng.Int63n(10))
		if rng.Intn(8) == 0 {
			k = NewNull(TInt)
		}
		if err := tbl.Insert(k, NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanLookup is the oracle: the row ids a sequential scan keeps for
// `col-ci = key`.
func scanLookup(tbl *Table, ci int, key string) []int32 {
	var ids []int32
	for ri, row := range tbl.Rows {
		if !row[ci].Null && row[ci].GroupKey() == key {
			ids = append(ids, int32(ri))
		}
	}
	return ids
}

func idsMatch(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAllKeys compares the buckets of the build side on column k
// over every row against the scan oracle, for every key value in the
// domain plus an absent one.
func checkAllKeys(t *testing.T, tbl *Table, es *EngineStats, step string) {
	t.Helper()
	b := tbl.joinBuildFor([]int{0}, identitySel(len(tbl.Rows)), es)
	for k := int64(0); k <= 10; k++ {
		var got []int32
		if bk := b.bucket(appendKey(nil, NewInt(k))); bk >= 0 {
			got = b.buckets[bk]
		}
		want := scanLookup(tbl, 0, NewInt(k).GroupKey())
		if !idsMatch(got, want) {
			t.Fatalf("%s: key %d: build=%v scan=%v", step, k, got, want)
		}
	}
}

// TestJoinBuildMatchesScanUnderMutation drives a random mutation
// sequence and re-validates every bucket after each step. Row-set
// mutations often leave the row count, and so the identity selection
// a cached build is keyed on, unchanged; only invalidation keeps a
// stale build from being served.
func TestJoinBuildMatchesScanUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := newIndexTestTable(t, 64, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "initial")
	for step := 0; step < 200; step++ {
		switch rng.Intn(7) {
		case 0:
			if err := tbl.Insert(NewInt(rng.Int63n(10)), NewInt(int64(step))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if len(tbl.Rows) > 0 {
				if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewInt(rng.Int63n(10))); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if len(tbl.Rows) > 0 {
				if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewNull(TInt)); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if len(tbl.Rows) > 1 {
				if err := tbl.DeleteRow(rng.Intn(len(tbl.Rows))); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(tbl.Rows) > 0 {
				if _, err := tbl.AppendRowCopy(rng.Intn(len(tbl.Rows))); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			// Mutating the non-key column must leave the key build
			// valid (per-column invalidation).
			if err := tbl.SetAll("w", NewInt(rng.Int63n(5))); err != nil {
				t.Fatal(err)
			}
		default:
			if len(tbl.Rows) > 8 {
				lo := rng.Intn(4)
				if err := tbl.KeepRange(lo, lo+rng.Intn(len(tbl.Rows)-lo)); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAllKeys(t, tbl, es, fmt.Sprintf("step %d", step))
	}
}

// TestBuildCacheSetRowsRoundTrip exercises the SnapshotRows / SetRows
// pattern the minimizer uses: SetRows must drop the build cache, and
// the rebuilt buckets must match the restored rows.
func TestBuildCacheSetRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := newIndexTestTable(t, 48, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "before snapshot")

	snap := tbl.SnapshotRows()
	if err := tbl.KeepRange(0, 4); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, tbl, es, "after KeepRange")

	tbl.SetRows(snap)
	if tbl.builds != nil {
		t.Fatal("SetRows kept the build cache")
	}
	checkAllKeys(t, tbl, es, "after restore")
	if got, want := tbl.RowCount(), len(snap); got != want {
		t.Fatalf("restored %d rows, want %d", got, want)
	}
}

// TestCloneBuildCacheIsolation asserts clones never share the mutable
// build cache: a clone starts with none, and mutating either side
// leaves the other side's builds consistent with its own rows.
func TestCloneBuildCacheIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := newIndexTestTable(t, 32, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "warm original") // fills the cache

	cl := tbl.Clone()
	if cl.builds != nil {
		t.Fatal("clone inherited the build cache")
	}
	if err := cl.SetAll("k", NewInt(3)); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, cl, es, "mutated clone")
	checkAllKeys(t, tbl, es, "original after clone mutation")

	// CloneShared shares row storage but must not share the cache.
	db := NewDatabase()
	if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt}, {Name: "w", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Table("p")
	for i := 0; i < 32; i++ {
		orig.MustInsert(NewInt(int64(i%6)), NewInt(int64(i)))
	}
	checkAllKeys(t, orig, db.estats, "warm shared original")
	shared := db.CloneShared()
	st, _ := shared.Table("p")
	if st.builds != nil {
		t.Fatal("CloneShared table inherited the build cache")
	}
	st.SetRows(append([]Row{}, orig.Rows[:8]...))
	checkAllKeys(t, st, shared.estats, "shared clone after SetRows")
	checkAllKeys(t, orig, db.estats, "shared original")
}

// TestIndexAnswersOnlyLeadingEquality pins the engine's one scan
// rule: pushdown predicates evaluate in WHERE order, each over the
// rows the earlier ones kept, on tables of any size. The name and the
// case names are kept from the deleted hash point index, which once
// answered a leading equality on tables of 16 or more rows; the scan
// must give the oracle's answer in each of those cases. Rows with
// k = 0 make w / k raise, so a scan that answered a later equality
// ahead of it would skip the oracle's division-by-zero error.
func TestIndexAnswersOnlyLeadingEquality(t *testing.T) {
	ctx := context.Background()
	newDB := func(t *testing.T, rows int) *Database {
		t.Helper()
		db := NewDatabase()
		if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
			{Name: "k", Type: TInt}, {Name: "w", Type: TInt},
		}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Insert("p", NewInt(int64(i%5)), NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	kEq3 := Bin(OpEq, Col("p", "k"), Lit(NewInt(3)))
	wDivK := Bin(OpGt, Bin(OpDiv, Col("p", "w"), Col("p", "k")), Lit(NewInt(0)))
	// run executes the filter on both engines, requires them to agree,
	// and returns the vector engine's row count and error.
	run := func(t *testing.T, db *Database, where Expr) (int, error) {
		t.Helper()
		stmt := &SelectStmt{Items: []SelectItem{{Expr: Col("p", "w")}}, From: []string{"p"}, Where: where}
		want, errO := db.executeOracle(ctx, stmt)
		got, errV := db.Execute(ctx, stmt)
		if (errO != nil) != (errV != nil) {
			t.Fatalf("error presence diverges: oracle=%v vector=%v", errO, errV)
		}
		if errV != nil {
			if errO.Error() != errV.Error() {
				t.Fatalf("errors diverge: oracle=%v vector=%v", errO, errV)
			}
			return 0, errV
		}
		if got.String() != want.String() {
			t.Fatalf("engines diverge:\n%s\nvs\n%s", got, want)
		}
		return got.RowCount(), nil
	}

	t.Run("leading-eq-indexed", func(t *testing.T) {
		n, err := run(t, newDB(t, 20), Bin(OpAnd, kEq3, wDivK))
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Errorf("%d rows, want the 4 with k = 3", n)
		}
	})
	t.Run("non-leading-eq-scanned", func(t *testing.T) {
		_, err := run(t, newDB(t, 20), Bin(OpAnd, wDivK, kEq3))
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err = %v, want division by zero", err)
		}
	})
	t.Run("below-min-rows-scanned", func(t *testing.T) {
		n, err := run(t, newDB(t, 15), kEq3)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Errorf("%d rows, want the 3 with k = 3", n)
		}
	})
}

// TestConcurrentJoinBuild hammers the lazy build path from many
// goroutines (run under -race by CI): concurrent first requests for
// one build side must serialize into a single build that every
// caller shares.
func TestConcurrentJoinBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := newIndexTestTable(t, 128, rng)
	es := &EngineStats{}
	sel := identitySel(tbl.RowCount())
	got := make([]*joinBuild, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = tbl.joinBuildFor([]int{0}, sel, es)
		}(g)
	}
	wg.Wait()
	for g, b := range got {
		if b != got[0] {
			t.Fatalf("goroutine %d got a different build side", g)
		}
	}
	if b := es.JoinBuilds.Load(); b != 1 {
		t.Fatalf("build side built %d times under concurrency, want 1", b)
	}
	checkAllKeys(t, tbl, es, "after concurrent build")
}

// TestJoinBuildCache pins build-side reuse: identical (cols, sel)
// pairs hit the cache, different selections rebuild, and the FIFO cap
// bounds retained builds.
func TestJoinBuildCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tbl := newIndexTestTable(t, 40, rng)
	es := &EngineStats{}
	sel := make([]int32, tbl.RowCount())
	for i := range sel {
		sel[i] = int32(i)
	}
	b1 := tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinBuilds.Load(); got != 1 {
		t.Fatalf("builds=%d, want 1", got)
	}
	b2 := tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d, want 1", got)
	}
	if b1 != b2 {
		t.Fatalf("cached build differs: %d vs %d buckets", len(b1.buckets), len(b2.buckets))
	}
	// A different selection must not hit the cache.
	tbl.joinBuildFor([]int{0}, sel[:10], es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d after different sel, want 1", got)
	}
	// Build bucket contents agree with a scan.
	for k := int64(0); k < 10; k++ {
		var ids []int32
		if bk := b1.bucket(appendKey(nil, NewInt(k))); bk >= 0 {
			ids = b1.buckets[bk]
		}
		if !idsMatch(ids, scanLookup(tbl, 0, NewInt(k).GroupKey())) {
			t.Fatalf("build bucket for key %d disagrees with scan", k)
		}
	}
	// FIFO cap: many distinct selections never grow past maxJoinBuilds.
	for i := 0; i < 3*maxJoinBuilds; i++ {
		tbl.joinBuildFor([]int{0}, sel[:1+i%20], es)
	}
	tbl.idxMu.Lock()
	n := len(tbl.builds)
	tbl.idxMu.Unlock()
	if n > maxJoinBuilds {
		t.Fatalf("build cache holds %d entries, cap is %d", n, maxJoinBuilds)
	}
}

// TestBuildCacheColumnInvalidation pins invalidateColumn against the
// build cache: mutating a key column drops the builds using it,
// mutating another column keeps them.
func TestBuildCacheColumnInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tbl := newIndexTestTable(t, 40, rng)
	es := &EngineStats{}
	sel := make([]int32, tbl.RowCount())
	for i := range sel {
		sel[i] = int32(i)
	}
	tbl.joinBuildFor([]int{0}, sel, es)
	if err := tbl.SetAll("w", NewInt(9)); err != nil { // column 1: build on column 0 survives
		t.Fatal(err)
	}
	tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d after non-key mutation, want 1", got)
	}
	if err := tbl.SetAll("k", NewInt(9)); err != nil { // column 0: build dropped
		t.Fatal(err)
	}
	tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinBuilds.Load(); got != 2 {
		t.Fatalf("builds=%d after key mutation, want 2", got)
	}
	// Same length, different ids: elementwise comparison must miss.
	sel2 := append([]int32(nil), sel...)
	sel2[len(sel2)-1] = sel2[0]
	tbl.joinBuildFor([]int{0}, sel2, es)
	if got := es.JoinBuilds.Load(); got != 3 {
		t.Fatalf("builds=%d after permuted sel, want 3", got)
	}
}

// TestExecutionSurvivesCloneStmt is the regression test for the
// pointer-identity resolution bug: an execution compiled from one
// statement must evaluate a structurally equal clone (all-new
// expression pointers) identically under both engines. Keying
// resolution maps on *ColumnExpr identity broke this.
func TestExecutionSurvivesCloneStmt(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := NewDatabase()
	if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt}, {Name: "w", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := db.Insert("p", NewInt(rng.Int63n(6)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stmt := &SelectStmt{
		Items: []SelectItem{
			{Expr: Col("p", "k")},
			{Expr: &AggExpr{Fn: AggSum, Arg: Col("p", "w")}, Alias: "tot"},
		},
		From:    []string{"p"},
		Where:   Bin(OpGe, Col("p", "w"), Lit(NewInt(3))),
		GroupBy: []Expr{Col("p", "k")},
		Having:  Bin(OpGt, &AggExpr{Fn: AggCount, Arg: Col("p", "w")}, Lit(NewInt(1))),
		OrderBy: []OrderKey{{Expr: Col("p", "k")}},
	}
	ctx := context.Background()
	want, err := db.Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		run  func(*execution, context.Context, *int) (*Result, error)
	}{
		{"tree", (*execution).runTree},
		{"vector", (*execution).runVector},
	} {
		ex, err := newExecution(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		// Swap in a deep clone: every expression node is a fresh
		// pointer, so any pointer-keyed resolution state is useless
		// and name-based resolution must carry the run.
		ex.stmt = CloneStmt(stmt)
		var ticks int
		got, err := eng.run(ex, ctx, &ticks)
		if err != nil {
			t.Fatalf("%s: execution over cloned statement failed: %v", eng.name, err)
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("%s: cloned-statement digest %s != original %s", eng.name, got.Digest().Hex(), want.Digest().Hex())
		}
	}
}
