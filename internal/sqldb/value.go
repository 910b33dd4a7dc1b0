// Package sqldb implements an embedded, in-memory relational engine
// supporting the query class needed by the UNMASQUE reproduction:
// single-block SPJGHAOL queries with equi-joins, conjunctive filters
// (numeric / date / LIKE), multi-linear projections, the five basic
// aggregates, grouping, having, ordering and limit — plus the DDL and
// mutation operations (table rename, value negation, sampling, bulk
// load) that the extraction pipeline relies on.
//
// The engine is deliberately non-invasive-friendly: everything the
// extractor does goes through the same public API an application would
// use, and query execution observes context cancellation so that the
// extractor can impose probe timeouts.
package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type enumerates the column data types supported by the engine. These
// mirror the types the paper considers: numerics (int, fixed-precision
// float), character data, and dates; booleans are included for
// completeness of the imperative workloads.
type Type uint8

const (
	// TUnknown is the zero Type; it is only valid on untyped NULL
	// literals before resolution.
	TUnknown Type = iota
	TInt
	TFloat
	TText
	TDate
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "bigint"
	case TFloat:
		return "numeric"
	case TText:
		return "text"
	case TDate:
		return "date"
	case TBool:
		return "boolean"
	default:
		return "unknown"
	}
}

// IsNumeric reports whether the type participates in arithmetic.
func (t Type) IsNumeric() bool { return t == TInt || t == TFloat }

// Value is a single SQL value. Dates are stored as days since
// 1970-01-01 in I; booleans as 0/1 in I.
type Value struct {
	Null bool
	Typ  Type
	I    int64
	F    float64
	S    string
}

// Constructors.

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{Typ: TInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{Typ: TFloat, F: f} }

// NewText returns a text value.
func NewText(s string) Value { return Value{Typ: TText, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{Typ: TBool}
	if b {
		v.I = 1
	}
	return v
}

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Typ: TDate, I: days} }

// NewNull returns a NULL of the given type.
func NewNull(t Type) Value { return Value{Null: true, Typ: t} }

// dateEpoch anchors date arithmetic.
var dateEpoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateFromString parses a YYYY-MM-DD date into a date Value.
func DateFromString(s string) (Value, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return Value{}, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return NewDate(int64(t.Sub(dateEpoch) / (24 * time.Hour))), nil
}

// MustDate parses a YYYY-MM-DD date and panics on failure. It is meant
// for statically known literals in workload definitions and tests;
// library code parses with DateFromString and propagates the error
// (lint rule GL001 exempts only Must*-named wrappers).
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(fmt.Sprintf("sqldb: MustDate(%q): %v", s, err))
	}
	return v
}

// DateString renders a date value as YYYY-MM-DD.
func DateString(days int64) string {
	return dateEpoch.Add(time.Duration(days) * 24 * time.Hour).Format("2006-01-02")
}

// Bool reports the boolean interpretation of the value. Only valid for
// TBool values.
func (v Value) Bool() bool { return !v.Null && v.I != 0 }

// AsFloat returns the numeric interpretation of the value. Valid for
// TInt, TFloat, TDate and TBool.
func (v Value) AsFloat() float64 {
	if v.Typ == TFloat {
		return v.F
	}
	return float64(v.I)
}

// IsZero reports whether a numeric value equals zero.
func (v Value) IsZero() bool {
	if v.Null {
		return false
	}
	if v.Typ == TFloat {
		return v.F == 0
	}
	return v.I == 0
}

// comparable type classes: ints, floats and dates inter-compare via
// numeric semantics where sensible; text compares lexically.
func sameClass(a, b Type) bool {
	if a == b {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return false
}

// Compare returns -1, 0 or +1 ordering a before/equal/after b. NULLs
// sort before all non-NULL values (matching our ORDER BY semantics).
// Comparing incompatible types returns an error.
func Compare(a, b Value) (int, error) {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0, nil
		case a.Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if !sameClass(a.Typ, b.Typ) {
		return 0, fmt.Errorf("cannot compare %s with %s", a.Typ, b.Typ)
	}
	switch {
	case a.Typ == TText:
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		default:
			return 0, nil
		}
	case a.Typ == TFloat || b.Typ == TFloat:
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	default: // TInt, TDate, TBool
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		default:
			return 0, nil
		}
	}
}

// Equal reports SQL equality between two non-null-aware values; NULL
// never equals anything (including NULL), mirroring WHERE semantics.
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// GroupKey renders the value into a string usable as a hash-grouping
// key. Unlike Equal, NULLs group together (SQL GROUP BY semantics).
func (v Value) GroupKey() string {
	if v.Null {
		return "\x00N"
	}
	switch v.Typ {
	case TText:
		return "s" + v.S
	case TFloat:
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "i" + strconv.FormatInt(v.I, 10)
	}
}

// canonicalNaN is the one bit pattern appendKey writes for every NaN,
// as GroupKey renders every NaN as "NaN".
var canonicalNaN = math.Float64bits(math.NaN())

// appendKey appends the hash-key encoding of v to b: a type tag, then
// a length-prefixed string or 8 payload bytes. Two values encode
// equally exactly when their GroupKeys are equal (NULLs of any type
// alike, ints, dates and bools by payload, -0 apart from 0, every NaN
// alike), and every encoding is self-delimiting, so equal
// concatenations mean equal values position by position: the texts
// ('x|sy','z') and ('x','y|sz') never share a key. Join build and
// probe keys and GROUP BY keys are built with it into a reused
// buffer and looked up with m[string(buf)], which does not allocate.
func appendKey(b []byte, v Value) []byte {
	if v.Null {
		return append(b, 'N')
	}
	switch v.Typ {
	case TText:
		b = binary.AppendUvarint(append(b, 's'), uint64(len(v.S)))
		return append(b, v.S...)
	case TFloat:
		bits := math.Float64bits(v.F)
		if v.F != v.F {
			bits = canonicalNaN
		}
		return binary.LittleEndian.AppendUint64(append(b, 'f'), bits)
	default: // TInt, TDate, TBool
		return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v.I))
	}
}

// appendJoinKey appends the key of row's columns idx to b. It reports
// false, with b's contents unspecified, when one of them is NULL: a
// NULL join key matches nothing.
func appendJoinKey(b []byte, row Row, idx []int) ([]byte, bool) {
	for _, i := range idx {
		if row[i].Null {
			return b, false
		}
		b = appendKey(b, row[i])
	}
	return b, true
}

// String renders the value for display (not as a SQL literal).
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		// Normalize negative zero: "-0" would re-parse as the integer
		// literal 0 and break the parse-print fix-point.
		if v.F == 0 {
			return "0"
		}
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case TText:
		return v.S
	case TDate:
		return DateString(v.I)
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal the parser can read
// back.
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case TText:
		return "'" + escapeSQLString(v.S) + "'"
	case TDate:
		return "date '" + DateString(v.I) + "'"
	default:
		return v.String()
	}
}

func escapeSQLString(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// Arithmetic. Integer op integer stays integer (with / as float
// division to match warehouse semantics for computed columns); any
// float operand promotes to float. Date ± int yields a date.

// Add returns a+b.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b using float division.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

func arith(a, b Value, op byte) (Value, error) {
	if a.Null || b.Null {
		t := a.Typ
		if t == TUnknown {
			t = b.Typ
		}
		return NewNull(t), nil
	}
	// Date arithmetic: date ± int -> date; date - date -> int days.
	if a.Typ == TDate || b.Typ == TDate {
		switch {
		case a.Typ == TDate && b.Typ == TInt && (op == '+' || op == '-'):
			if op == '+' {
				return NewDate(a.I + b.I), nil
			}
			return NewDate(a.I - b.I), nil
		case a.Typ == TInt && b.Typ == TDate && op == '+':
			return NewDate(a.I + b.I), nil
		case a.Typ == TDate && b.Typ == TDate && op == '-':
			return NewInt(a.I - b.I), nil
		default:
			return Value{}, fmt.Errorf("unsupported date arithmetic %s %c %s", a.Typ, op, b.Typ)
		}
	}
	if !a.Typ.IsNumeric() || !b.Typ.IsNumeric() {
		return Value{}, fmt.Errorf("arithmetic on non-numeric types %s, %s", a.Typ, b.Typ)
	}
	if a.Typ == TFloat || b.Typ == TFloat || op == '/' {
		af, bf := a.AsFloat(), b.AsFloat()
		var r float64
		switch op {
		case '+':
			r = af + bf
		case '-':
			r = af - bf
		case '*':
			r = af * bf
		case '/':
			if bf == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			r = af / bf
		}
		return NewFloat(r), nil
	}
	var r int64
	switch op {
	case '+':
		r = a.I + b.I
	case '-':
		r = a.I - b.I
	case '*':
		r = a.I * b.I
	}
	return NewInt(r), nil
}

// Neg returns the arithmetic negation of a numeric value. Used by the
// extractor's Negate mutation on join columns.
func Neg(a Value) (Value, error) {
	if a.Null {
		return a, nil
	}
	switch a.Typ {
	case TInt:
		return NewInt(-a.I), nil
	case TFloat:
		return NewFloat(-a.F), nil
	default:
		return Value{}, fmt.Errorf("cannot negate %s", a.Typ)
	}
}

// RoundTo rounds a float to the given number of decimal digits; other
// types pass through unchanged. Fixed-precision columns use this to
// keep binary-search probes on the representable grid.
func RoundTo(v Value, digits int) Value {
	if v.Null || v.Typ != TFloat {
		return v
	}
	p := math.Pow10(digits)
	return NewFloat(math.Round(v.F*p) / p)
}

// ApproxEqual compares two values with a small tolerance on floats;
// exact elsewhere. The extraction checker uses it when comparing
// application output with extracted-query output.
func ApproxEqual(a, b Value) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return a.Typ == b.Typ || a.Typ == TUnknown || b.Typ == TUnknown
	}
	if a.Typ == TFloat || b.Typ == TFloat {
		if !a.Typ.IsNumeric() || !b.Typ.IsNumeric() {
			return false
		}
		af, bf := a.AsFloat(), b.AsFloat()
		diff := math.Abs(af - bf)
		scale := math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
		return diff <= 1e-9*scale
	}
	return Equal(a, b)
}
