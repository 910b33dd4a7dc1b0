package sqldb

// batch.go — typed column batches for the vectorized engine.
//
// A batch exposes a row source, restricted to a selection, as typed
// column vectors: per-column value slices plus a validity (null)
// bitmap, gathered lazily on first reference. The vectorized
// predicate evaluator (vector.go) computes over these instead of
// per-row []Value wide rows, which removes the tree engine's dominant
// allocation (one width-sized Row per scanned row).
//
// Two sources exist: a table (scan-side batches, addressing the
// table's own columns by row id) and the join result (post-join
// batches, addressing every wide-row slot by tuple position). The
// join result is kept as row ids (tuples), so a post-join column is
// gathered straight from its base table; no stage materializes a wide
// row per joined tuple. Both sources hold values coerced to their
// column's schema type, so the typed fast paths apply to either.

// vec is one column vector: len(sel) logical elements of a single
// type. Storage is typed — ints carries TInt/TDate/TBool payloads,
// floats TFloat, strs TText — with null as the validity bitmap (a nil
// null slice means no NULLs). Two special layouts exist:
//
//   - isConst: a broadcast scalar (literal); physical length 1.
//   - vals:    boxed Values, used for computed results (arithmetic,
//     negation) whose elements are produced by the scalar operators
//     to keep semantics identical to the tree engine.
//
// A vec's non-null elements all share the vec's type; the nominal
// type of a NULL element is not tracked because no predicate outcome
// or error can observe it (every operator null-checks before any
// type-sensitive step, mirroring the tree evaluator).
type vec struct {
	typ     Type
	n       int // logical length
	isConst bool
	null    []bool
	ints    []int64
	floats  []float64
	strs    []string
	vals    []Value
}

// at maps a logical position to a physical storage index.
func (v *vec) at(k int) int {
	if v.isConst {
		return 0
	}
	return k
}

func (v *vec) nullAt(k int) bool {
	if v.vals != nil {
		return v.vals[v.at(k)].Null
	}
	return v.null != nil && v.null[v.at(k)]
}

// valueAt reconstructs the element as a scalar Value. For typed
// storage this is exact: stored values are coerced to their column
// type on insert, so a TFloat element always has I==0 and a
// TInt/TDate/TBool element always has F==0 — reconstruction loses
// nothing the tree engine could observe.
func (v *vec) valueAt(k int) Value {
	i := v.at(k)
	if v.vals != nil {
		return v.vals[i]
	}
	if v.null != nil && v.null[i] {
		return NewNull(v.typ)
	}
	switch v.typ {
	case TFloat:
		return Value{Typ: TFloat, F: v.floats[i]}
	case TText:
		return Value{Typ: TText, S: v.strs[i]}
	default: // TInt, TDate, TBool
		return Value{Typ: v.typ, I: v.ints[i]}
	}
}

// boolAt reports the element's truth value (Value.Bool semantics:
// NULL is false, and only the I payload counts).
func (v *vec) boolAt(k int) bool {
	if v.nullAt(k) {
		return false
	}
	if v.vals != nil {
		return v.vals[v.at(k)].Bool()
	}
	switch v.typ {
	case TFloat, TText:
		return false // I payload is zero for these layouts
	default:
		return v.ints[v.at(k)] != 0
	}
}

// newBoolVec allocates a TBool result vector of length n.
func newBoolVec(n int) *vec {
	return &vec{typ: TBool, n: n, null: make([]bool, n), ints: make([]int64, n)}
}

// newValsVec allocates a boxed-values vector of length n for computed
// results; typ is refined as elements are produced.
func newValsVec(n int) *vec {
	return &vec{typ: TUnknown, n: n, vals: make([]Value, n)}
}

// constVec broadcasts one scalar (a literal) across the batch.
func constVec(val Value, n int) *vec {
	return &vec{typ: val.Typ, n: n, isConst: true, vals: []Value{val}}
}

// tuples is the join result kept columnar: ids[p] holds, for the
// from-clause table at position p, the id of the row each tuple takes
// from it. Only a group's representative is ever materialized as a
// wide row (wideInto).
type tuples struct {
	n      int
	ids    [][]int32   // from-clause position -> row id per tuple
	tables []*Table    // from-clause position -> base table
	slots  []tupleSlot // wide-row slot -> where its value lives
}

// tupleSlot locates one wide-row slot: the from-clause position of
// its table and its column there.
type tupleSlot struct{ pos, col int }

// value returns wide-row slot s of tuple i.
func (tp *tuples) value(i int32, s int) Value {
	sl := tp.slots[s]
	return tp.tables[sl.pos].Rows[tp.ids[sl.pos][i]][sl.col]
}

// wideInto appends tuple i to dst as a wide row: the from-clause
// tables' rows side by side, in from-clause order.
func (tp *tuples) wideInto(dst Row, i int32) Row {
	for p, t := range tp.tables {
		dst = append(dst, t.Rows[tp.ids[p][i]]...)
	}
	return dst
}

// batch is a row source restricted to a selection, with lazily
// gathered column vectors aligned to that selection. Exactly one of
// tbl/tup is set.
type batch struct {
	tbl  *Table  // table source (scan-side batches)
	tup  *tuples // join-result source (post-join batches)
	name string  // source name for resolution error messages

	off int     // first wide-row slot addressed by this batch
	sel []int32 // selected row ids (table) or tuple positions (join result)
	es  *EngineStats

	cols map[int]*vec // local column index -> gathered vector
}

func newBatch(tbl *Table, off int, sel []int32, es *EngineStats) *batch {
	return &batch{tbl: tbl, name: tbl.Schema.Name, off: off, sel: sel, es: es, cols: map[int]*vec{}}
}

// newTupleBatch exposes the join result as a batch: every wide-row
// slot is addressable (off 0). The post-join stages (residual,
// aggregation, projection, ordering) evaluate over these.
func newTupleBatch(tp *tuples, sel []int32, es *EngineStats) *batch {
	return &batch{tup: tp, name: "the join result", sel: sel, es: es, cols: map[int]*vec{}}
}

// ncol reports the number of addressable local columns.
func (b *batch) ncol() int {
	if b.tbl != nil {
		return len(b.tbl.Schema.Columns)
	}
	return len(b.tup.slots)
}

// sub derives a batch over the same source restricted to subSel.
func (b *batch) sub(subSel []int32) *batch {
	nb := *b
	nb.sel = subSel
	nb.cols = map[int]*vec{}
	return &nb
}

// col gathers (once) and returns the vector for a local column.
func (b *batch) col(ci int) *vec {
	if v, ok := b.cols[ci]; ok {
		return v
	}
	// Resolve the column to its base table: a selected position k
	// reads row ids[sel[k]] (or sel[k] itself when ids is nil) of
	// column lc.
	tbl, lc := b.tbl, ci
	var ids []int32
	if b.tup != nil {
		s := b.tup.slots[ci]
		tbl, lc, ids = b.tup.tables[s.pos], s.col, b.tup.ids[s.pos]
	}
	src := tbl.Rows
	typ := tbl.Schema.Columns[lc].Type
	n := len(b.sel)
	v := &vec{typ: typ, n: n}
	switch typ {
	case TFloat:
		v.floats = make([]float64, n)
	case TText:
		v.strs = make([]string, n)
	default:
		v.ints = make([]int64, n)
	}
	for k, ri := range b.sel {
		if ids != nil {
			ri = ids[ri]
		}
		val := src[ri][lc]
		if val.Null {
			if v.null == nil {
				v.null = make([]bool, n)
			}
			v.null[k] = true
			continue
		}
		switch typ {
		case TFloat:
			v.floats[k] = val.F
		case TText:
			v.strs[k] = val.S
		default:
			v.ints[k] = val.I
		}
	}
	b.cols[ci] = v
	b.es.VectorBatches.Add(1)
	return v
}
