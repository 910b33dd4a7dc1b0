package core

// White-box tests of the pipeline's numeric machinery: the linear
// solver, the aggregation-separating k selection (direct search vs
// the closed-form Equation 2 forbidden set), s-value generators and
// the LIKE pattern expander; and of Q_E's execution under the job's
// context.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

func TestSolveLinearSystemKnown(t *testing.T) {
	// x + y = 3; x - y = 1 -> x=2, y=1.
	x, err := solveLinearSystem([][]float64{{1, 1}, {1, -1}}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !nearly(x[0], 2) || !nearly(x[1], 1) {
		t.Errorf("solution %v", x)
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	if _, err := solveLinearSystem([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}

func TestSolveLinearSystemShapeErrors(t *testing.T) {
	if _, err := solveLinearSystem(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := solveLinearSystem([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := solveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("ragged row should error")
	}
}

func TestSolveLinearSystemRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(21) - 10)
		}
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = float64(rng.Intn(19) - 9)
			}
		}
		for i := range a {
			for j := range a[i] {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := solveLinearSystem(a, b)
		if err != nil {
			continue // singular random matrix; fine
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				t.Fatalf("trial %d: got %v want %v", trial, got, x)
			}
		}
	}
}

func TestSnapCoefficients(t *testing.T) {
	x := []float64{0.9999999999, -2.0000000001, 0.1500000000001, 3.7}
	snapCoefficients(x)
	if x[0] != 1 || x[1] != -2 {
		t.Errorf("integer snap failed: %v", x)
	}
	if x[2] != 0.15 {
		t.Errorf("decimal snap failed: %v", x[2])
	}
	if x[3] != 3.7 {
		t.Errorf("value disturbed: %v", x[3])
	}
}

func TestPickKMakesCandidatesDistinct(t *testing.T) {
	cases := [][2]float64{{3, 4}, {-1, 0}, {1, 2}, {2, 1}, {5, -5}, {0.5, 0.25}, {100, 1}}
	for _, c := range cases {
		k := pickK(c[0], c[1])
		if !aggCandidatesDistinct(c[0], c[1], k) {
			t.Errorf("pickK(%v, %v) = %d does not separate", c[0], c[1], k)
		}
		for smaller := 1; smaller < k; smaller++ {
			if aggCandidatesDistinct(c[0], c[1], smaller) {
				t.Errorf("pickK(%v, %v) = %d is not minimal (%d works)", c[0], c[1], k, smaller)
			}
		}
	}
}

// TestPickKAgreesWithClosedForm property-tests the direct search
// against the Equation 2 forbidden set: every integer k rejected by
// the search must be (near) a forbidden value, and the chosen k must
// avoid all of them.
func TestPickKAgreesWithClosedForm(t *testing.T) {
	f := func(a8, b8 int8) bool {
		o1 := float64(a8%50) / 2
		o2 := float64(b8%50) / 2
		if nearly(o1, 0) || nearly(o1, o2) {
			return true // preconditions of the construction
		}
		k := pickK(o1, o2)
		forbidden := forbiddenKValues(o1, o2)
		near := func(x int) bool {
			for _, fv := range forbidden {
				if math.Abs(float64(x)-fv) < 1e-6 {
					return true
				}
			}
			return false
		}
		// The chosen k avoids the closed-form set…
		if near(k) {
			return false
		}
		// …and every smaller rejected k is explained by it.
		for smaller := 1; smaller < k; smaller++ {
			if !near(smaller) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestForbiddenKValuesContainDerivedCollisions(t *testing.T) {
	// For o1=3, o2=4: count==o1 at k=2, count==o2 at k=3.
	vals := forbiddenKValues(3, 4)
	want := map[float64]bool{2: false, 3: false}
	for _, v := range vals {
		for w := range want {
			if math.Abs(v-w) < 1e-9 {
				want[w] = true
			}
		}
	}
	for w, seen := range want {
		if !seen {
			t.Errorf("forbidden set %v misses %v", vals, w)
		}
	}
}

func TestExpandPattern(t *testing.T) {
	cases := []struct {
		pattern string
		variant int
		maxLen  int
		want    string
		wantErr bool
	}{
		{"%abc%", 0, 10, "abc", false},
		{"%abc%", 1, 10, "babc", false},
		{"a_c", 0, 10, "abc", false},
		{"a_c", 1, 10, "acc", false},
		{"abc", 1, 10, "", true},       // no wildcard: single value only
		{"%abcdefgh%", 1, 8, "", true}, // expansion exceeds budget
	}
	for _, c := range cases {
		got, err := expandPattern(c.pattern, c.variant, c.maxLen)
		if c.wantErr {
			if err == nil {
				t.Errorf("expandPattern(%q,%d): expected error, got %q", c.pattern, c.variant, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("expandPattern(%q,%d): %v", c.pattern, c.variant, err)
			continue
		}
		if got != c.want {
			t.Errorf("expandPattern(%q,%d) = %q, want %q", c.pattern, c.variant, got, c.want)
		}
	}
}

func TestExpandPatternAlwaysMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pieces := []string{"%", "_", "a", "bc", "%", "d"}
		pattern := ""
		for i := 0; i < 1+rng.Intn(4); i++ {
			pattern += pieces[rng.Intn(len(pieces))]
		}
		for v := 0; v < 4; v++ {
			s, err := expandPattern(pattern, v, 64)
			if err != nil {
				continue
			}
			if !likeMatchForTest(pattern, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFreshStringDistinctness(t *testing.T) {
	for _, maxLen := range []int{1, 2, 3, 6, 30} {
		cap := freshStringCapacity(maxLen, 5000)
		seen := map[string]bool{}
		for v := 0; v < cap; v++ {
			s := freshString(v, maxLen)
			if len(s) > maxLen {
				t.Fatalf("maxLen %d: %q too long", maxLen, s)
			}
			if seen[s] {
				t.Fatalf("maxLen %d: duplicate %q at variant %d (capacity %d)", maxLen, s, v, cap)
			}
			seen[s] = true
		}
	}
}

func TestPickInRange(t *testing.T) {
	// Anchored near 1 when the range allows.
	if got := pickInRange(-100, 100, 0); got != 1 {
		t.Errorf("anchor: %d", got)
	}
	// Wraps within the span.
	for k := int64(0); k < 50; k++ {
		v := pickInRange(5, 9, k)
		if v < 5 || v > 9 {
			t.Fatalf("pickInRange(5,9,%d) = %d out of range", k, v)
		}
	}
	// Degenerate range.
	if got := pickInRange(7, 7, 3); got != 7 {
		t.Errorf("degenerate: %d", got)
	}
}

func TestEvalMultilinear(t *testing.T) {
	// f(A,B) = 1*A + 0*B -1*AB + 0 (the revenue shape).
	coeffs := []float64{0, 1, 0, -1}
	if got := evalMultilinear(coeffs, []float64{10, 0.2}); !nearly(got, 8) {
		t.Errorf("revenue(10, 0.2) = %v", got)
	}
	// Constant.
	if got := evalMultilinear([]float64{5}, nil); got != 5 {
		t.Errorf("constant = %v", got)
	}
}

// likeMatchForTest re-implements LIKE matching to avoid importing
// sqldb in a white-box test of pattern expansion.
func likeMatchForTest(pattern, s string) bool {
	var dp func(p, i int) bool
	memo := map[[2]int]int{}
	dp = func(p, i int) bool {
		key := [2]int{p, i}
		if v, ok := memo[key]; ok {
			return v == 1
		}
		res := false
		switch {
		case p == len(pattern):
			res = i == len(s)
		case pattern[p] == '%':
			res = dp(p+1, i) || (i < len(s) && dp(p, i+1))
		case i < len(s) && (pattern[p] == '_' || pattern[p] == s[i]):
			res = dp(p+1, i+1)
		}
		v := 0
		if res {
			v = 1
		}
		memo[key] = v
		return res
	}
	return dp(0, 0)
}

// TestExecuteStmtObservesJobContext: Q_E runs under the job's context,
// so a cancelled job stops the checker's executions too. The engine
// polls its context every cancelCheckEvery row ticks; the table is
// larger than that.
func TestExecuteStmtObservesJobContext(t *testing.T) {
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{Name: "t", Columns: []sqldb.Column{{Name: "a", Type: sqldb.TInt}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := db.Insert("t", sqldb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := sqlparser.Parse("select a from t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSession(ctx, nil, db, DefaultConfig())
	if _, err := s.executeStmt(stmt, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("executeStmt under a cancelled job returned %v, want context.Canceled", err)
	}
}
