package eqcequiv

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/tpch"
)

// testSchemas: one standalone table and one parent/child pair.
func testSchemas() []sqldb.TableSchema {
	return []sqldb.TableSchema{
		{
			Name: "t",
			Columns: []sqldb.Column{
				{Name: "id", Type: sqldb.TInt, MinInt: 1, MaxInt: 1 << 20},
				{Name: "a", Type: sqldb.TInt, MinInt: 0, MaxInt: 1000},
				{Name: "b", Type: sqldb.TInt, MinInt: 0, MaxInt: 1000},
				{Name: "price", Type: sqldb.TFloat, Precision: 2, MinInt: 0, MaxInt: 1000},
				{Name: "name", Type: sqldb.TText, MaxLen: 20},
			},
			PrimaryKey: []string{"id"},
		},
		{
			Name: "u",
			Columns: []sqldb.Column{
				{Name: "uid", Type: sqldb.TInt, MinInt: 1, MaxInt: 1 << 20},
				{Name: "t_id", Type: sqldb.TInt, MinInt: 1, MaxInt: 1 << 20},
				{Name: "v", Type: sqldb.TInt, MinInt: 0, MaxInt: 1000},
			},
			PrimaryKey:  []string{"uid"},
			ForeignKeys: []sqldb.ForeignKey{{Column: "t_id", RefTable: "t", RefColumn: "id"}},
		},
	}
}

func parse(t *testing.T, src string) *sqldb.SelectStmt {
	t.Helper()
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

func TestEquivalentRewrites(t *testing.T) {
	cases := []struct {
		name  string
		a, b  string
		proof string // expected proof kind, "" for any
	}{
		{
			name:  "conjunct order",
			a:     "select a from t where a >= 1 and b <= 5",
			b:     "select a from t where b <= 5 and a >= 1",
			proof: "canonical",
		},
		{
			name:  "between vs range",
			a:     "select a from t where a between 1 and 5",
			b:     "select a from t where a >= 1 and a <= 5",
			proof: "canonical",
		},
		{
			name:  "literal side",
			a:     "select a from t where 5 >= a",
			b:     "select a from t where a <= 5",
			proof: "canonical",
		},
		{
			name:  "strict vs inclusive int",
			a:     "select a from t where a > 5",
			b:     "select a from t where a >= 6",
			proof: "canonical",
		},
		{
			// between 5 and 5 collapses to equality; the separately
			// written range keeps two conjuncts, so the proof falls
			// through to enumeration.
			name:  "degenerate between",
			a:     "select a from t where a between 5 and 5",
			b:     "select a from t where a >= 5 and a <= 5",
			proof: "enumeration",
		},
		{
			name:  "join order",
			a:     "select t.a from t, u where t.id = u.t_id and u.v >= 3",
			b:     "select t.a from u, t where u.t_id = t.id and v >= 3",
			proof: "canonical",
		},
		{
			name:  "redundant conjunct",
			a:     "select a from t where a >= 5",
			b:     "select a from t where a >= 5 and a >= 3",
			proof: "enumeration",
		},
		{
			name:  "disjunct order",
			a:     "select a from t where a between 1 and 3 or a between 7 and 9",
			b:     "select a from t where a between 7 and 9 or a between 1 and 3",
			proof: "canonical",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Check(parse(t, tc.a), parse(t, tc.b), testSchemas(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Outcome != Equivalent {
				t.Fatalf("outcome = %v, want equivalent (%s)", v.Outcome, v)
			}
			if tc.proof != "" && v.Proof != tc.proof {
				t.Errorf("proof = %q, want %q", v.Proof, tc.proof)
			}
			if v.Bound != DefaultBound {
				t.Errorf("bound = %d, want %d", v.Bound, DefaultBound)
			}
		})
	}
}

func TestInequivalentPairs(t *testing.T) {
	cases := []struct {
		name      string
		a, b      string
		orderOnly bool
	}{
		{name: "shifted bound", a: "select a from t where a >= 1", b: "select a from t where a >= 2"},
		{name: "agg swap", a: "select sum(a) from t", b: "select count(a) from t"},
		{name: "group drop", a: "select count(*) from t group by a", b: "select count(*) from t"},
		{name: "limit", a: "select a from t order by a limit 1", b: "select a from t order by a limit 2"},
		{name: "text eq", a: "select a from t where name = 'x'", b: "select a from t where name = 'y'"},
		{name: "like", a: "select a from t where name like 'ab%'", b: "select a from t where name like 'xb%'"},
		{name: "join filter", a: "select t.a from t, u where t.id = u.t_id and v >= 1", b: "select t.a from t, u where t.id = u.t_id and v >= 2"},
		{name: "order flip", a: "select a from t order by a", b: "select a from t order by a desc", orderOnly: true},
		{name: "having bound", a: "select a, sum(b) from t group by a having sum(b) >= 100", b: "select a, sum(b) from t group by a having sum(b) >= 101"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Check(parse(t, tc.a), parse(t, tc.b), testSchemas(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Outcome != Inequivalent {
				t.Fatalf("outcome = %v, want inequivalent (%s)", v.Outcome, v)
			}
			ce := v.Counterexample
			if ce == nil || ce.DB == nil {
				t.Fatal("no counterexample")
			}
			if ce.DigestA == ce.DigestB {
				t.Error("counterexample digests agree")
			}
			if ce.OrderOnly != tc.orderOnly {
				t.Errorf("orderOnly = %v, want %v", ce.OrderOnly, tc.orderOnly)
			}
			if ce.DB.TotalRows() == 0 && !strings.Contains(tc.name, "limit") {
				// Most classes need at least one row to show a difference.
				t.Error("empty counterexample database")
			}
		})
	}
}

// TestCounterexampleRoundTrip replants the counterexample database and
// confirms the two queries really disagree on it.
func TestCounterexampleRoundTrip(t *testing.T) {
	a := parse(t, "select a from t where a >= 1")
	b := parse(t, "select a from t where a >= 2")
	v, err := Check(a, b, testSchemas(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Inequivalent {
		t.Fatalf("outcome = %v, want inequivalent", v.Outcome)
	}
	db := v.Counterexample.DB
	ra, err := db.Execute(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.Execute(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if normalize(ra).EqualUnordered(normalize(rb)) {
		t.Fatal("queries agree on the replanted counterexample")
	}
	if anonDigest(normalize(ra), false) != v.Counterexample.DigestA {
		t.Error("DigestA does not reproduce")
	}
	if anonDigest(normalize(rb), false) != v.Counterexample.DigestB {
		t.Error("DigestB does not reproduce")
	}
}

func TestSelfEquivalenceTPCH(t *testing.T) {
	schemas := tpch.Schemas()
	all := map[string]string{}
	for n, q := range tpch.HiddenQueries() {
		all[n] = q
	}
	for n, q := range tpch.HavingQueries() {
		all["having-"+n] = q
	}
	for name, src := range all {
		stmt := parse(t, src)
		v, err := Check(stmt, stmt, schemas, Options{Bound: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Outcome != Equivalent || v.Proof != "canonical" {
			t.Errorf("%s: %s, want canonical equivalence", name, v)
		}
	}
}

// TestDeterminism: same pair, same options — byte-identical verdicts.
func TestDeterminism(t *testing.T) {
	run := func() *Verdict {
		v, err := Check(
			parse(t, "select a, b from t where a >= 1 and b <= 7"),
			parse(t, "select a, b from t where a >= 1 and b <= 6"),
			testSchemas(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := run(), run()
	if v1.Outcome != v2.Outcome || v1.Instances != v2.Instances || v1.Bound != v2.Bound {
		t.Fatalf("verdicts differ: %s vs %s", v1, v2)
	}
	if v1.Outcome != Inequivalent {
		t.Fatalf("outcome = %v, want inequivalent", v1.Outcome)
	}
	c1, c2 := v1.Counterexample, v2.Counterexample
	if c1.DigestA != c2.DigestA || c1.DigestB != c2.DigestB {
		t.Error("counterexample digests differ between runs")
	}
	if c1.DB.Fingerprint() != c2.DB.Fingerprint() {
		t.Error("counterexample databases differ between runs")
	}
}

func TestExhausted(t *testing.T) {
	v, err := Check(
		parse(t, "select a from t where a >= 5"),
		parse(t, "select a from t where a >= 5 and a >= 3"),
		testSchemas(), Options{MaxInstances: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Exhausted {
		t.Fatalf("outcome = %v, want exhausted (%s)", v.Outcome, v)
	}
	if v.Instances != 1 {
		t.Errorf("instances = %d, want 1", v.Instances)
	}
}

// TestDomainCapNeverProves pins the other half of the Exhausted
// contract: a truncated *value domain* (MaxColumnValues), not just a
// truncated instance budget, must forfeit the proof. The pair is
// genuinely equivalent and the enumeration finds no counterexample,
// but with the diff column's boundary values capped below their count
// the dropped values could have separated the queries — so Equivalent
// would be unsound, and the verdict must degrade to Exhausted.
func TestDomainCapNeverProves(t *testing.T) {
	v, err := Check(
		parse(t, "select a from t where a >= 5"),
		parse(t, "select a from t where a >= 5 and a >= 3"),
		testSchemas(), Options{MaxColumnValues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Exhausted {
		t.Fatalf("outcome = %v, want exhausted under a capped domain (%s)", v.Outcome, v)
	}
}

// TestSmallScopeCaveat pins the documented soundness limit (DESIGN.md
// §10.2): "price > 0.05" and "price >= 0.06" differ on real numbers
// (0.055 separates them) but are proven Equivalent by enumeration —
// the strictness widening is integral-only, so the pair is not
// canonically equal, and no value in either predicate's boundary
// domain (precision-2 neighbours of the constants) falls strictly
// between the bounds. Equivalence claims hold only up to the bound
// and the interesting-value abstraction.
func TestSmallScopeCaveat(t *testing.T) {
	v, err := Check(
		parse(t, "select a from t where price > 0.05"),
		parse(t, "select a from t where price >= 0.06"),
		testSchemas(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != Equivalent {
		t.Fatalf("outcome = %v, want equivalent (%s)", v.Outcome, v)
	}
	if v.Proof != "enumeration" {
		t.Errorf("proof = %q, want %q (a canonical proof would mean the pair was rewritten alike, not enumerated)", v.Proof, "enumeration")
	}
}

func TestCheckErrors(t *testing.T) {
	schemas := testSchemas()
	if _, err := Check(parse(t, "select a from missing"), parse(t, "select a from t"), schemas, Options{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := Check(parse(t, "select nosuch from t"), parse(t, "select a from t"), schemas, Options{}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestOutcomeAndVerdictStrings(t *testing.T) {
	for o, want := range map[Outcome]string{Equivalent: "equivalent", Inequivalent: "inequivalent", Exhausted: "exhausted", Outcome(99): "?outcome?"} {
		if o.String() != want {
			t.Errorf("Outcome(%d) = %q, want %q", int(o), o.String(), want)
		}
	}
	for _, v := range []*Verdict{
		{Outcome: Equivalent, Bound: 2, Proof: "canonical"},
		{Outcome: Inequivalent, Counterexample: &Counterexample{DB: sqldb.NewDatabase()}},
		{Outcome: Exhausted, Instances: 7},
	} {
		if v.String() == "" {
			t.Error("empty verdict string")
		}
	}
	if fmt.Sprint(Equivalent) != "equivalent" {
		t.Error("outcome does not print via fmt")
	}
}
