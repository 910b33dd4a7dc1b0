package sqldb

import (
	"fmt"
	"sort"
)

// sort_vector.go — vectorized multi-key ordering.
//
// orderVector replicates orderResult: order keys matching an output
// column (by alias or structural equality with a projection) sort on
// output values; other keys are legal only before aggregation and are
// evaluated vectorized over the joined input rows. Comparison
// semantics are identical — NULLs sort first, comparison errors are
// ignored (treated as ties, as orderResult has always done and the
// differential harness pins), and full-key ties preserve input order
// (sort.SliceStable there, an explicit index tie-break here, which
// are equivalent). The result is always sorted in full; a LIMIT is
// applied afterwards by truncation, as the oracle does.

// sortKey is one compiled ORDER BY key over the result rows: either a
// gathered output column or a vectorized input expression.
type sortKey struct {
	desc bool
	v    *vec    // input-expression key (nil for output-column keys)
	vals []Value // output-column key, gathered per result row
}

// cmp compares elements a and b under Compare semantics with errors
// squashed to 0 — exactly how orderResult's comparator treats them.
func (s *sortKey) cmp(a, b int) int {
	if s.v != nil {
		return s.v.cmpElems(a, b)
	}
	c, err := Compare(s.vals[a], s.vals[b])
	if err != nil {
		return 0
	}
	return c
}

// cmpElems compares two elements of one vector under Compare
// semantics (NULLs first, cross-class errors → 0), taking the same
// typed payload fast paths as cmpVec.
func (v *vec) cmpElems(a, b int) int {
	an, bn := v.nullAt(a), v.nullAt(b)
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	if v.vals == nil && !v.isConst {
		switch v.typ {
		case TFloat:
			fa, fb := v.floats[a], v.floats[b]
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		case TText:
			sa, sb := v.strs[a], v.strs[b]
			switch {
			case sa < sb:
				return -1
			case sa > sb:
				return 1
			default:
				return 0
			}
		default: // TInt, TDate, TBool
			ia, ib := v.ints[a], v.ints[b]
			switch {
			case ia < ib:
				return -1
			case ia > ib:
				return 1
			default:
				return 0
			}
		}
	}
	c, err := Compare(v.valueAt(a), v.valueAt(b))
	if err != nil {
		return 0
	}
	return c
}

// orderVector sorts res.Rows in place. In the non-aggregated case
// (the only case where input-expression keys are legal) res.Rows is
// aligned 1:1 with the tuples of tp that sel selects.
func (ex *execution) orderVector(res *Result, tp *tuples, sel []int32) error {
	keys := make([]*sortKey, len(ex.stmt.OrderBy))
	var inBatch *batch
	for ki, k := range ex.stmt.OrderBy {
		sk := &sortKey{desc: k.Desc}
		outIdx := ex.matchOutputColumn(k.Expr)
		if outIdx >= 0 {
			sk.vals = make([]Value, len(res.Rows))
			for i, row := range res.Rows {
				sk.vals[i] = row[outIdx]
			}
			keys[ki] = sk
			continue
		}
		if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
			return fmt.Errorf("order by expression %s does not appear in the select list", k.Expr)
		}
		if inBatch == nil {
			inBatch = newTupleBatch(tp, sel, ex.db.estats)
		}
		v, err := ex.evalVec(k.Expr, inBatch)
		if err != nil {
			return err
		}
		sk.v = v
		keys[ki] = sk
	}

	less := func(a, b int) bool {
		for _, k := range keys {
			c := k.cmp(a, b)
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		// Full tie: preserve input order — equivalent to the tree
		// engine's stable sort.
		return a < b
	}

	n := len(res.Rows)
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(i, j int) bool { return less(idxs[i], idxs[j]) })
	sorted := make([]Row, n)
	for i, idx := range idxs {
		sorted[i] = res.Rows[idx]
	}
	res.Rows = sorted
	return nil
}
