package sqldb

// index_test.go — property tests for the secondary hash indexes and
// the join-build cache: lookups must agree with a full scan across
// arbitrary mutation sequences, caches must survive SnapshotRows /
// SetRows round-trips through invalidation, and clones must never
// share mutable index state.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// newIndexTestTable builds a table with enough rows to clear
// indexMinRows, with NULLs sprinkled into the key column.
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

// checkAllKeys compares pointLookup against the scan oracle for every
// key value in the domain plus an absent one.
func checkAllKeys(t *testing.T, tbl *Table, es *EngineStats, step string) {
	t.Helper()
	for k := int64(0); k <= 10; k++ {
		key := NewInt(k).GroupKey()
		got := tbl.pointLookup(0, key, es)
		want := scanLookup(tbl, 0, key)
		if !idsMatch(got, want) {
			t.Fatalf("%s: key %d: pointLookup=%v scan=%v", step, k, got, want)
		}
	}
}

// TestIndexMatchesScanUnderMutation drives a random mutation sequence
// and re-validates every lookup after each step.
func TestIndexMatchesScanUnderMutation(t *testing.T) {
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
			// Mutating the non-key column must leave the key index
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

// TestIndexSurvivesSetRowsRoundTrip exercises the SnapshotRows /
// SetRows pattern the minimizer uses: the index must be invalidated
// by SetRows and rebuilt correctly against the restored rows.
func TestIndexSurvivesSetRowsRoundTrip(t *testing.T) {
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
	checkAllKeys(t, tbl, es, "after restore")
	if got, want := tbl.RowCount(), len(snap); got != want {
		t.Fatalf("restored %d rows, want %d", got, want)
	}
}

// TestCloneIndexIsolation asserts clones never share mutable index
// state: a clone starts with no caches, and mutating either side
// leaves the other side's lookups consistent with its own rows.
func TestCloneIndexIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := newIndexTestTable(t, 32, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "warm original") // builds the index

	cl := tbl.Clone()
	if cl.indexes != nil || cl.builds != nil {
		t.Fatal("clone inherited index/build caches")
	}
	if err := cl.SetAll("k", NewInt(3)); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, cl, es, "mutated clone")
	checkAllKeys(t, tbl, es, "original after clone mutation")

	// CloneShared shares row storage but must not share caches either.
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
	if st.indexes != nil || st.builds != nil {
		t.Fatal("CloneShared table inherited index/build caches")
	}
	st.SetRows(append([]Row{}, orig.Rows[:8]...))
	checkAllKeys(t, st, shared.estats, "shared clone after SetRows")
	checkAllKeys(t, orig, db.estats, "shared original")
}

// TestIndexAnswersOnlyLeadingEquality pins the engine's one
// access-path rule through its counters: the hash index answers the
// leading pushdown predicate when it is an indexable equality on a
// table of at least indexMinRows rows, and nothing else. Rows with
// k = 0 make w / k raise, so an index that skipped a predicate ahead
// of it would also skip the oracle's division-by-zero error.
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
	// run executes the filter on both engines and returns the vector
	// engine's index activity (builds plus hits) and its error.
	run := func(t *testing.T, db *Database, where Expr) (int64, error) {
		t.Helper()
		stmt := &SelectStmt{Items: []SelectItem{{Expr: Col("p", "w")}}, From: []string{"p"}, Where: where}
		want, errO := db.executeOracle(ctx, stmt)
		before := db.EngineCounters()
		got, errV := db.Execute(ctx, stmt)
		after := db.EngineCounters()
		if (errO != nil) != (errV != nil) {
			t.Fatalf("error presence diverges: oracle=%v vector=%v", errO, errV)
		}
		if errV == nil && got.String() != want.String() {
			t.Fatalf("engines diverge:\n%s\nvs\n%s", got, want)
		}
		return (after.IndexBuilds - before.IndexBuilds) + (after.IndexHits - before.IndexHits), errV
	}

	t.Run("leading-eq-indexed", func(t *testing.T) {
		probes, err := run(t, newDB(t, 20), Bin(OpAnd, kEq3, wDivK))
		if err != nil {
			t.Fatal(err)
		}
		if probes == 0 {
			t.Error("leading k = 3 on a 20-row table was not answered by the index")
		}
	})
	t.Run("non-leading-eq-scanned", func(t *testing.T) {
		probes, err := run(t, newDB(t, 20), Bin(OpAnd, wDivK, kEq3))
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err = %v, want division by zero", err)
		}
		if probes != 0 {
			t.Errorf("index touched %d times for a non-leading equality", probes)
		}
	})
	t.Run("below-min-rows-scanned", func(t *testing.T) {
		probes, err := run(t, newDB(t, 15), kEq3)
		if err != nil {
			t.Fatal(err)
		}
		if probes != 0 {
			t.Errorf("index touched %d times on a 15-row table", probes)
		}
	})
}

// TestConcurrentPointLookup hammers the lazy build path from many
// goroutines (run under -race by CI): concurrent first lookups must
// serialize the build and all return scan-consistent results.
func TestConcurrentPointLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := newIndexTestTable(t, 128, rng)
	es := &EngineStats{}
	want := map[int64][]int32{}
	for k := int64(0); k < 10; k++ {
		want[k] = scanLookup(tbl, 0, NewInt(k).GroupKey())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := int64(0); k < 10; k++ {
				got := tbl.pointLookup(0, NewInt(k).GroupKey(), es)
				if !idsMatch(got, want[k]) {
					errs <- fmt.Errorf("goroutine %d key %d: got %v want %v", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b := es.IndexBuilds.Load(); b != 1 {
		t.Fatalf("index built %d times under concurrency, want 1", b)
	}
}

// TestIndexPerColumnInvalidation pins the counter behavior: touching
// another column keeps the index (hits keep accruing, no rebuild);
// touching the indexed column forces exactly one rebuild.
func TestIndexPerColumnInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := newIndexTestTable(t, 32, rng)
	es := &EngineStats{}
	key := NewInt(1).GroupKey()

	tbl.pointLookup(0, key, es)
	if got := es.IndexBuilds.Load(); got != 1 {
		t.Fatalf("builds=%d after first lookup, want 1", got)
	}
	if err := tbl.SetAll("w", NewInt(7)); err != nil {
		t.Fatal(err)
	}
	tbl.pointLookup(0, key, es)
	if got := es.IndexBuilds.Load(); got != 1 {
		t.Fatalf("builds=%d after non-key mutation, want 1 (index should survive)", got)
	}
	if got := es.IndexHits.Load(); got == 0 {
		t.Fatal("expected index hits to accrue")
	}
	if err := tbl.SetAll("k", NewInt(2)); err != nil {
		t.Fatal(err)
	}
	tbl.pointLookup(0, key, es)
	if got := es.IndexBuilds.Load(); got != 2 {
		t.Fatalf("builds=%d after key mutation, want 2 (rebuild)", got)
	}
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
	if len(b1) != len(b2) {
		t.Fatalf("cached build differs: %d vs %d buckets", len(b1), len(b2))
	}
	// A different selection must not hit the cache.
	tbl.joinBuildFor([]int{0}, sel[:10], es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d after different sel, want 1", got)
	}
	// Build map contents agree with a scan.
	for k := int64(0); k < 10; k++ {
		key := NewInt(k).GroupKey() + "|"
		if !idsMatch(b1[key], scanLookup(tbl, 0, NewInt(k).GroupKey())) {
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
