package sqldb

// range_index_test.go — property tests for the sorted range indexes:
// binary-searched spans must agree with a sequential scan for every
// bound shape across arbitrary mutation sequences, advised clones must
// share one immutable build, and the totality gate must decide when an
// advised index may answer a non-leading predicate.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// scanRange is the oracle: the row ids a sequential scan keeps for the
// interval described by bnd over column ci.
func scanRange(tbl *Table, ci int, bnd rangeBounds) []int32 {
	var ids []int32
	for ri, row := range tbl.Rows {
		v := row[ci]
		if v.Null {
			continue
		}
		ok := true
		if bnd.hasLo {
			c, err := Compare(v, bnd.lo)
			if err != nil || c < 0 || (c == 0 && !bnd.loIncl) {
				ok = false
			}
		}
		if ok && bnd.hasHi {
			c, err := Compare(v, bnd.hi)
			if err != nil || c > 0 || (c == 0 && !bnd.hiIncl) {
				ok = false
			}
		}
		if ok {
			ids = append(ids, int32(ri))
		}
	}
	return ids
}

// randBounds yields a random bound shape (one-sided, two-sided, empty,
// inclusive and exclusive ends) over the int key domain.
func randBounds(rng *rand.Rand) rangeBounds {
	bnd := rangeBounds{}
	if rng.Intn(4) != 0 {
		bnd.hasLo = true
		bnd.lo = NewInt(rng.Int63n(12) - 1)
		bnd.loIncl = rng.Intn(2) == 0
	}
	if rng.Intn(4) != 0 {
		bnd.hasHi = true
		bnd.hi = NewInt(rng.Int63n(12) - 1)
		bnd.hiIncl = rng.Intn(2) == 0
	}
	return bnd
}

// checkRanges compares rangeLookup against the scan oracle on a batch
// of random bounds.
func checkRanges(t *testing.T, tbl *Table, es *EngineStats, rng *rand.Rand, step string) {
	t.Helper()
	for i := 0; i < 12; i++ {
		bnd := randBounds(rng)
		got := tbl.rangeLookup(0, bnd, es)
		want := scanRange(tbl, 0, bnd)
		if !idsMatch(got, want) {
			t.Fatalf("%s: bounds %+v: rangeLookup=%v scan=%v", step, bnd, got, want)
		}
	}
}

// TestRangeLookupMatchesScanUnderMutation drives the same mutation
// storm as the hash-index property test and revalidates random range
// probes after every step.
func TestRangeLookupMatchesScanUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := newIndexTestTable(t, 64, rng)
	es := &EngineStats{}
	checkRanges(t, tbl, es, rng, "initial")
	for step := 0; step < 120; step++ {
		switch rng.Intn(6) {
		case 0:
			if err := tbl.Insert(NewInt(rng.Int63n(10)), NewInt(int64(step))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewInt(rng.Int63n(10))); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewNull(TInt)); err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(tbl.Rows) > 1 {
				if err := tbl.DeleteRow(rng.Intn(len(tbl.Rows))); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			// Non-key mutation: the range index must survive
			// (per-column invalidation).
			if err := tbl.SetAll("w", NewInt(rng.Int63n(5))); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := tbl.AppendRowCopy(rng.Intn(len(tbl.Rows))); err != nil {
				t.Fatal(err)
			}
		}
		checkRanges(t, tbl, es, rng, fmt.Sprintf("step %d", step))
	}
}

// TestRangeLookupTextColumn pins the text payload path of the sorted
// index, including duplicate keys (ids must come back in scan order).
func TestRangeLookupTextColumn(t *testing.T) {
	tbl := NewTable(TableSchema{Name: "s", Columns: []Column{
		{Name: "w", Type: TText, MaxLen: 8},
	}})
	words := []string{"pear", "fig", "apple", "fig", "", "kiwi", "fig", "apple"}
	for _, w := range words {
		if err := tbl.Insert(NewText(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(NewNull(TText)); err != nil {
		t.Fatal(err)
	}
	es := &EngineStats{}
	cases := []rangeBounds{
		{hasLo: true, lo: NewText("apple"), loIncl: true, hasHi: true, hi: NewText("fig"), hiIncl: true},
		{hasLo: true, lo: NewText("fig"), loIncl: false},
		{hasHi: true, hi: NewText("fig"), hiIncl: false},
		{hasLo: true, lo: NewText(""), loIncl: true},
		{},
	}
	for _, bnd := range cases {
		got := tbl.rangeLookup(0, bnd, es)
		want := scanRange(tbl, 0, bnd)
		if !idsMatch(got, want) {
			t.Fatalf("bounds %+v: rangeLookup=%v scan=%v", bnd, got, want)
		}
	}
}

// adviseTestDB builds a small (below indexMinRows) advised database so
// any index activity is attributable to advice, never the size gate.
func adviseTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt},
		{Name: "w", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("p", NewInt(int64(i%5)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestAdvisedClonesShareRangeIndex pins the amortization contract:
// advising a column builds its hash and range indexes once, every
// clone inherits the shared payloads, and each clone's range probe is
// a hit — with results identical to the tree oracle throughout.
func TestAdvisedClonesShareRangeIndex(t *testing.T) {
	db := adviseTestDB(t)
	if err := db.AdviseIndexes(IndexHint{Table: "p", Column: "k"}); err != nil {
		t.Fatal(err)
	}
	stmt := &SelectStmt{
		Items: []SelectItem{{Expr: Col("p", "w")}},
		From:  []string{"p"},
		Where: &BetweenExpr{X: Col("p", "k"), Lo: Lit(NewInt(1)), Hi: Lit(NewInt(3))},
	}
	// Snapshot before the first clone: advice materializes the shared
	// build at clone time, and that one build is the whole budget.
	before := db.EngineCounters()
	oracle := db.Clone()
	want, err := oracle.executeOracle(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}

	const clones = 5
	for i := 0; i < clones; i++ {
		c := db.Clone()
		got, err := c.Execute(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() || got.String() != want.String() {
			t.Fatalf("clone %d diverges from tree oracle:\n%s\nvs\n%s", i, got, want)
		}
	}
	after := db.EngineCounters()
	if builds := after.RangeBuilds - before.RangeBuilds; builds != 1 {
		t.Errorf("RangeBuilds delta = %d, want 1 (one shared build)", builds)
	}
	if hits := after.RangeHits - before.RangeHits; hits != clones {
		t.Errorf("RangeHits delta = %d, want %d (one per clone execution)", hits, clones)
	}
}

// TestAdvisedNonLeadingIndexTotalityGate pins chooseIndexPred's
// soundness rule: an advised index may answer a non-leading predicate
// only when every earlier predicate is provably total. A leading
// same-class comparison is total (index used); a leading division is
// not (index refused — skipping rows could skip its error).
func TestAdvisedNonLeadingIndexTotalityGate(t *testing.T) {
	run := func(t *testing.T, where Expr, wantIndexed bool) {
		t.Helper()
		db := adviseTestDB(t)
		if err := db.AdviseIndexes(IndexHint{Table: "p", Column: "k"}); err != nil {
			t.Fatal(err)
		}
		stmt := &SelectStmt{
			Items: []SelectItem{{Expr: Col("p", "w")}},
			From:  []string{"p"},
			Where: where,
		}
		oracle := db.Clone()
		want, err := oracle.executeOracle(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		before := db.EngineCounters()
		got, err := db.Execute(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("engines diverge:\n%s\nvs\n%s", got, want)
		}
		after := db.EngineCounters()
		probes := (after.IndexBuilds - before.IndexBuilds) +
			(after.IndexHits - before.IndexHits) +
			(after.RangeBuilds - before.RangeBuilds) +
			(after.RangeHits - before.RangeHits)
		if wantIndexed && probes == 0 {
			t.Error("advised non-leading predicate was not index-served despite total prefix")
		}
		if !wantIndexed && probes != 0 {
			t.Error("index served a non-leading predicate behind a non-total prefix")
		}
	}

	// w <> 3 is total (same-class simple comparison) but not
	// indexable; the advised k-range behind it may use the index.
	t.Run("total-prefix", func(t *testing.T) {
		run(t, Bin(OpAnd,
			Bin(OpNe, Col("p", "w"), Lit(NewInt(3))),
			Bin(OpGe, Col("p", "k"), Lit(NewInt(2)))), true)
	})
	// w / (k+1) contains arithmetic (never provably total), so the
	// advised predicate behind it must not be index-served.
	t.Run("non-total-prefix", func(t *testing.T) {
		run(t, Bin(OpAnd,
			Bin(OpGt, Bin(OpDiv, Col("p", "w"), Bin(OpAdd, Col("p", "k"), Lit(NewInt(1)))), Lit(NewInt(0))),
			Bin(OpGe, Col("p", "k"), Lit(NewInt(2)))), false)
	})
}
