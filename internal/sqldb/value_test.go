package sqldb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewText("abc"), NewText("abd"), -1},
		{NewText("abc"), NewText("abc"), 0},
		{MustDate("1995-03-14"), MustDate("1995-03-15"), -1},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(NewInt(1), NewText("1")); err == nil {
		t.Error("Compare(int, text) should error")
	}
	if _, err := Compare(NewBool(true), NewInt(1)); err == nil {
		t.Error("Compare(bool, int) should error")
	}
}

func TestNullOrdering(t *testing.T) {
	c, err := Compare(NewNull(TInt), NewInt(-100))
	if err != nil || c != -1 {
		t.Errorf("NULL should sort before values, got %d err=%v", c, err)
	}
	c, _ = Compare(NewNull(TInt), NewNull(TText))
	if c != 0 {
		t.Errorf("NULL vs NULL should compare 0, got %d", c)
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(NewNull(TInt), NewNull(TInt)) {
		t.Error("NULL = NULL must be false under WHERE semantics")
	}
	if Equal(NewNull(TInt), NewInt(0)) {
		t.Error("NULL = 0 must be false")
	}
}

func TestGroupKeyNullsGroupTogether(t *testing.T) {
	if NewNull(TInt).GroupKey() != NewNull(TText).GroupKey() {
		t.Error("NULLs must share a group key")
	}
	if NewInt(1).GroupKey() == NewText("1").GroupKey() {
		t.Error("int 1 and text '1' must not collide")
	}
}

// TestAppendKeyMatchesGroupKey pins appendKey's equality to
// GroupKey's on values chosen to straddle every class boundary, and
// checks that two-value keys are self-delimiting: a concatenation
// matches exactly when both positions do.
func TestAppendKeyMatchesGroupKey(t *testing.T) {
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vals := []Value{
		NewNull(TInt), NewNull(TText), NewNull(TUnknown),
		NewInt(0), NewInt(5), NewDate(5), NewBool(true), NewInt(1), NewInt(-1),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(5), NewFloat(1.5),
		NewFloat(math.NaN()), NewFloat(otherNaN), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewText(""), NewText("5"), NewText("x"), NewText("x|sy"), NewText("y|sz"), NewText("z"),
		NewText("\x00N"), NewText("i5"), NewText("N"),
	}
	key := func(vs ...Value) string {
		var b []byte
		for _, v := range vs {
			b = appendKey(b, v)
		}
		return string(b)
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := key(a) == key(b), a.GroupKey() == b.GroupKey(); got != want {
				t.Errorf("appendKey equality %v, GroupKey equality %v: %#v vs %#v", got, want, a, b)
			}
			for _, c := range vals {
				for _, d := range vals {
					got := key(a, b) == key(c, d)
					want := a.GroupKey() == c.GroupKey() && b.GroupKey() == d.GroupKey()
					if got != want {
						t.Fatalf("pair keys equal=%v, want %v: (%#v, %#v) vs (%#v, %#v)", got, want, a, b, c, d)
					}
				}
			}
		}
	}
	if _, ok := appendJoinKey(nil, Row{NewInt(1), NewNull(TInt)}, []int{0, 1}); ok {
		t.Error("a NULL join key must not match")
	}
	if k, ok := appendJoinKey(nil, Row{NewText("a"), NewInt(1)}, []int{1, 0}); !ok || string(k) != key(NewInt(1), NewText("a")) {
		t.Error("join key must encode the indexed columns in index order")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		got  func() (Value, error)
		want Value
	}{
		{"int+int", func() (Value, error) { return Add(NewInt(2), NewInt(3)) }, NewInt(5)},
		{"int*int", func() (Value, error) { return Mul(NewInt(2), NewInt(3)) }, NewInt(6)},
		{"int-int", func() (Value, error) { return Sub(NewInt(2), NewInt(3)) }, NewInt(-1)},
		{"int/int is float", func() (Value, error) { return Div(NewInt(3), NewInt(2)) }, NewFloat(1.5)},
		{"float+int", func() (Value, error) { return Add(NewFloat(1.5), NewInt(1)) }, NewFloat(2.5)},
		{"date+int", func() (Value, error) { return Add(MustDate("1995-03-14"), NewInt(2)) }, MustDate("1995-03-16")},
		{"date-date", func() (Value, error) { return Sub(MustDate("1995-03-16"), MustDate("1995-03-14")) }, NewInt(2)},
	}
	for _, c := range cases {
		got, err := c.got()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Add(NewText("a"), NewInt(1)); err == nil {
		t.Error("text arithmetic should error")
	}
	if _, err := Mul(MustDate("2000-01-01"), NewInt(2)); err == nil {
		t.Error("date multiplication should error")
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	v, err := Add(NewNull(TInt), NewInt(1))
	if err != nil || !v.Null {
		t.Errorf("NULL + 1 should be NULL, got %v err=%v", v, err)
	}
}

func TestNeg(t *testing.T) {
	v, err := Neg(NewInt(5))
	if err != nil || v.I != -5 {
		t.Errorf("Neg(5) = %v, %v", v, err)
	}
	v, err = Neg(NewFloat(2.5))
	if err != nil || v.F != -2.5 {
		t.Errorf("Neg(2.5) = %v, %v", v, err)
	}
	if _, err := Neg(NewText("x")); err == nil {
		t.Error("Neg(text) should error")
	}
	n, err := Neg(NewNull(TInt))
	if err != nil || !n.Null {
		t.Error("Neg(NULL) should stay NULL")
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "1969-12-31", "1995-03-14", "2099-12-31", "1900-01-01"} {
		v, err := DateFromString(s)
		if err != nil {
			t.Fatalf("DateFromString(%q): %v", s, err)
		}
		if got := DateString(v.I); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("invalid date should error")
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(days int32) bool {
		d := int64(days % 60000) // within a few hundred years of epoch
		v, err := DateFromString(DateString(d))
		return err == nil && v.I == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTo(t *testing.T) {
	v := RoundTo(NewFloat(1.23456), 2)
	if v.F != 1.23 {
		t.Errorf("RoundTo(1.23456, 2) = %v", v.F)
	}
	v = RoundTo(NewFloat(1.235), 2)
	if math.Abs(v.F-1.24) > 1e-12 {
		t.Errorf("RoundTo(1.235, 2) = %v", v.F)
	}
	// Non-floats pass through.
	if RoundTo(NewInt(7), 2) != NewInt(7) {
		t.Error("RoundTo should not touch ints")
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(1.5), "1.5"},
		{NewText("it's"), "'it''s'"},
		{MustDate("1995-03-14"), "date '1995-03-14'"},
		{NewNull(TInt), "NULL"},
		{NewBool(true), "true"},
	}
	for _, c := range cases {
		if got := c.v.SQLLiteral(); got != c.want {
			t.Errorf("SQLLiteral(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(NewFloat(1.0000000001), NewFloat(1.0)) {
		t.Error("tiny float differences should be approx-equal")
	}
	if ApproxEqual(NewFloat(1.01), NewFloat(1.0)) {
		t.Error("1.01 vs 1.0 should differ")
	}
	if !ApproxEqual(NewInt(3), NewFloat(3.0)) {
		t.Error("int 3 vs float 3.0 should be approx-equal")
	}
	if ApproxEqual(NewNull(TInt), NewInt(0)) {
		t.Error("NULL vs 0 should differ")
	}
	if !ApproxEqual(NewNull(TInt), NewNull(TInt)) {
		t.Error("NULL vs NULL should be approx-equal for result comparison")
	}
}
