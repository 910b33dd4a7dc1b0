package sqldb

import (
	"fmt"
	"math/rand"
	"sync"
)

// Row is one tuple; values are positionally aligned with the table's
// schema columns.
type Row []Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table stores the rows of one table together with its schema, plus
// the engine's one lazily built cache, the hash-join build sides. The
// cache is strictly derived state: every mutator below invalidates
// the affected entries, clones start with none, and idxMu serializes
// lazy builds under concurrent read-only Executes.
type Table struct {
	Schema TableSchema
	Rows   []Row

	idxMu  sync.Mutex
	builds []*joinBuild // cached hash-join build sides
}

// NewTable creates an empty table for the schema.
func NewTable(schema TableSchema) *Table {
	return &Table{Schema: schema.Clone()}
}

// Clone deep-copies the table (schema and all rows).
func (t *Table) Clone() *Table {
	out := NewTable(t.Schema)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return len(t.Rows) }

// SnapshotRows returns the table's current row slice as an opaque
// restore token: callers outside sqldb hold it only to hand back to
// SetRows (or to build a trimmed copy with CopyRows) and must not
// mutate the rows it references. Together with SetRows it is the
// sanctioned backup/restore protocol of the minimizer's probing loops;
// direct access to the Rows field from other packages is a lint
// violation (GL004).
func (t *Table) SnapshotRows() []Row { return t.Rows }

// SetRows replaces the table's rows wholesale. The slice is adopted,
// not copied; pass a fresh slice (e.g. from CopyRows) when the caller
// keeps a snapshot it intends to restore later.
func (t *Table) SetRows(rows []Row) {
	t.Rows = rows
	t.invalidateBuilds()
}

// CopyRows shallow-copies a row slice: a fresh backing array whose
// elements reference the same Row values. Row-set mutations (sampling,
// halving, row removal) on the copy leave the original slice intact.
func CopyRows(rows []Row) []Row { return append([]Row(nil), rows...) }

// Insert appends a row after validating arity and types; NULLs are
// accepted for any column, and int literals are coerced into float
// columns. It is the one-row case of InsertRows.
func (t *Table) Insert(vals ...Value) error {
	return t.InsertRows([]Row{append(Row(nil), vals...)})
}

// InsertRows validates and coerces every row as Insert does, then
// appends them all. The rows are adopted, not copied, and coerced in
// place: callers must not reuse them. On error the table is unchanged.
func (t *Table) InsertRows(rows []Row) error {
	cols := t.Schema.Columns
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("table %s: insert arity %d, want %d", t.Schema.Name, len(row), len(cols))
		}
		for i, v := range row {
			cv, err := coerce(v, &cols[i])
			if err != nil {
				return fmt.Errorf("table %s column %s: %w", t.Schema.Name, cols[i].Name, err)
			}
			row[i] = cv
		}
	}
	t.Rows = append(t.Rows, rows...)
	t.invalidateBuilds()
	return nil
}

// MustInsert inserts and panics on error; for generators and tests.
// Library code must use Insert and propagate the error (lint rule
// GL001 exempts only Must*-named wrappers).
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(vals...); err != nil {
		panic(fmt.Sprintf("sqldb: MustInsert into %s: %v", t.Schema.Name, err))
	}
}

func coerce(v Value, c *Column) (Value, error) {
	if v.Null {
		return NewNull(c.Type), nil
	}
	switch c.Type {
	case TInt:
		if v.Typ == TInt {
			return v, nil
		}
		if v.Typ == TFloat && v.F == float64(int64(v.F)) {
			return NewInt(int64(v.F)), nil
		}
	case TFloat:
		if v.Typ == TFloat {
			return RoundTo(v, c.FloatPrecision()), nil
		}
		if v.Typ == TInt {
			return NewFloat(float64(v.I)), nil
		}
	case TText:
		if v.Typ == TText {
			if len(v.S) > c.TextMaxLen() {
				return Value{}, fmt.Errorf("text value of length %d exceeds limit %d", len(v.S), c.TextMaxLen())
			}
			return v, nil
		}
	case TDate:
		if v.Typ == TDate {
			return v, nil
		}
		if v.Typ == TInt {
			return NewDate(v.I), nil
		}
	case TBool:
		if v.Typ == TBool {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("cannot store %s value in %s column", v.Typ, c.Type)
}

// Get returns the value at (row, column-name).
func (t *Table) Get(row int, col string) (Value, error) {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return Value{}, fmt.Errorf("table %s has no column %s", t.Schema.Name, col)
	}
	if row < 0 || row >= len(t.Rows) {
		return Value{}, fmt.Errorf("table %s has no row %d", t.Schema.Name, row)
	}
	return t.Rows[row][ci], nil
}

// Set overwrites the value at (row, column-name), with coercion.
func (t *Table) Set(row int, col string, v Value) error {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("table %s has no column %s", t.Schema.Name, col)
	}
	if row < 0 || row >= len(t.Rows) {
		return fmt.Errorf("table %s has no row %d", t.Schema.Name, row)
	}
	cv, err := coerce(v, &t.Schema.Columns[ci])
	if err != nil {
		return err
	}
	t.Rows[row][ci] = cv
	t.invalidateColumn(ci)
	return nil
}

// SetAll overwrites every row's value for a column.
func (t *Table) SetAll(col string, v Value) error {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("table %s has no column %s", t.Schema.Name, col)
	}
	cv, err := coerce(v, &t.Schema.Columns[ci])
	if err != nil {
		return err
	}
	for i := range t.Rows {
		t.Rows[i][ci] = cv
	}
	t.invalidateColumn(ci)
	return nil
}

// NegateColumn flips the sign of every value in a numeric column.
// This is the extractor's Negate mutation primitive.
func (t *Table) NegateColumn(col string) error {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("table %s has no column %s", t.Schema.Name, col)
	}
	for i := range t.Rows {
		n, err := Neg(t.Rows[i][ci])
		if err != nil {
			return fmt.Errorf("table %s column %s: %w", t.Schema.Name, col, err)
		}
		t.Rows[i][ci] = n
	}
	t.invalidateColumn(ci)
	return nil
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.Rows = t.Rows[:0]
	t.invalidateBuilds()
}

// KeepRange retains only rows in [lo, hi) — the minimizer's halving
// primitive.
func (t *Table) KeepRange(lo, hi int) error {
	if lo < 0 || hi > len(t.Rows) || lo > hi {
		return fmt.Errorf("table %s: invalid range [%d,%d) of %d rows", t.Schema.Name, lo, hi, len(t.Rows))
	}
	kept := make([]Row, hi-lo)
	copy(kept, t.Rows[lo:hi])
	t.Rows = kept
	t.invalidateBuilds()
	return nil
}

// Sample retains a Bernoulli sample of roughly fraction*RowCount rows
// using the provided RNG, guaranteeing at least one row is kept when
// the table is non-empty. It mirrors the engine-native TABLESAMPLE the
// paper's minimizer preprocessing leans on.
func (t *Table) Sample(fraction float64, rng *rand.Rand) {
	if len(t.Rows) == 0 || fraction >= 1 {
		return
	}
	kept := t.Rows[:0]
	for _, r := range t.Rows {
		if rng.Float64() < fraction {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		kept = append(kept, t.Rows[rng.Intn(len(t.Rows))])
	}
	t.Rows = kept
	t.invalidateBuilds()
}

// DeleteRow removes the row at the given index.
func (t *Table) DeleteRow(i int) error {
	if i < 0 || i >= len(t.Rows) {
		return fmt.Errorf("table %s has no row %d", t.Schema.Name, i)
	}
	t.Rows = append(t.Rows[:i], t.Rows[i+1:]...)
	t.invalidateBuilds()
	return nil
}

// AppendRowCopy duplicates the row at index i and returns the new
// row's index.
func (t *Table) AppendRowCopy(i int) (int, error) {
	if i < 0 || i >= len(t.Rows) {
		return 0, fmt.Errorf("table %s has no row %d", t.Schema.Name, i)
	}
	t.Rows = append(t.Rows, t.Rows[i].Clone())
	t.invalidateBuilds()
	return len(t.Rows) - 1, nil
}
