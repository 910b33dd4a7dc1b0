package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Result is the output of a query or application execution: named
// columns and ordered rows. The extractor treats results as opaque —
// it only inspects cardinalities, values and order.
type Result struct {
	Columns []string
	Rows    []Row

	// aggEmptyInput marks the SQL corner case of an ungrouped
	// aggregate over zero input rows, which yields one all-default
	// row. The paper's pipeline treats that as a "null result", so
	// Populated reports false for it.
	aggEmptyInput bool
}

// Clone deep-copies the result. The extractor's run-memoization cache
// hands out clones so a caller holding a cached result can never
// alias another probe's rows.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := &Result{
		Columns:       append([]string(nil), r.Columns...),
		aggEmptyInput: r.aggEmptyInput,
	}
	out.Rows = make([]Row, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// RowCount returns the number of result rows.
func (r *Result) RowCount() int {
	if r == nil {
		return 0
	}
	return len(r.Rows)
}

// Populated reports whether the result is non-empty in the paper's
// sense (at least one row, and not the null row of an ungrouped
// aggregate over empty input).
func (r *Result) Populated() bool {
	if r == nil || len(r.Rows) == 0 {
		return false
	}
	return !r.aggEmptyInput
}

// AggEmptyInput exposes the ungrouped-aggregate-over-empty-input flag
// for serialization layers (the durable probe cache must round-trip
// it, or Populated would misclassify a restored result).
func (r *Result) AggEmptyInput() bool {
	return r != nil && r.aggEmptyInput
}

// RestoreResult reassembles a Result from persisted parts. It is the
// inverse of reading Columns/Rows/AggEmptyInput and exists solely for
// the storage tier; the engine itself never constructs results this
// way.
func RestoreResult(columns []string, rows []Row, aggEmptyInput bool) *Result {
	return &Result{Columns: columns, Rows: rows, aggEmptyInput: aggEmptyInput}
}

// ColumnIndex returns the index of the named output column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Column returns all values of one output column, in row order.
func (r *Result) Column(i int) []Value {
	out := make([]Value, len(r.Rows))
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out
}

// appendRowKey appends the self-delimiting key (appendKey) of every
// value of row to b, so two rows share a key only when they are equal
// value by value under GroupKey equality.
func appendRowKey(b []byte, row Row) []byte {
	for _, v := range row {
		b = appendKey(b, v)
	}
	return b
}

// Checksum computes a position-dependent checksum over the result, so
// two results with the same rows in different orders differ. The
// extraction checker uses this to verify physical ordering.
func (r *Result) Checksum() uint64 {
	h := fnv.New64a()
	var b []byte
	for i, row := range r.Rows {
		b = strconv.AppendInt(append(b[:0], '#'), int64(i), 10)
		b = append(appendRowKey(append(b, ':'), row), ';')
		h.Write(b)
	}
	return h.Sum64()
}

// EqualOrdered reports exact equality including row order, with
// float tolerance.
func (r *Result) EqualOrdered(o *Result) bool {
	if r.RowCount() != o.RowCount() {
		return false
	}
	for i := range r.Rows {
		if !rowsApproxEqual(r.Rows[i], o.Rows[i]) {
			return false
		}
	}
	return true
}

// EqualUnordered reports multiset equality of the rows, ignoring
// order, with float tolerance via value formatting at high precision.
func (r *Result) EqualUnordered(o *Result) bool {
	if r.RowCount() != o.RowCount() {
		return false
	}
	ra, rb := sortedKeys(r), sortedKeys(o)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func sortedKeys(r *Result) []string {
	keys := make([]string, len(r.Rows))
	var b []byte
	for i, row := range r.Rows {
		b = appendApproxRowKey(b[:0], row)
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// appendApproxRowKey appends row's key with every float formatted at
// 6 decimal digits, so results that are equal up to float noise
// compare equal. Like appendRowKey it is self-delimiting: a formatted
// float is length-prefixed, every other value encoded by appendKey.
func appendApproxRowKey(b []byte, row Row) []byte {
	for _, v := range row {
		if v.Null || v.Typ != TFloat {
			b = appendKey(b, v)
			continue
		}
		var num [32]byte
		f := strconv.AppendFloat(num[:0], v.F, 'f', 6, 64)
		b = binary.AppendUvarint(append(b, 'f'), uint64(len(f)))
		b = append(b, f...)
	}
	return b
}

func rowsApproxEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ApproxEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// String renders the result as an aligned text table (for examples
// and the CLI).
func (r *Result) String() string {
	if r == nil {
		return "(nil result)"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			cells[i][j] = s
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteString("\n")
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	for _, row := range cells {
		b.WriteString("\n")
		for j, s := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
	}
	return b.String()
}
