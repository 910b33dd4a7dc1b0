package sqldb

import (
	"fmt"
	"sort"
)

// sort_vector.go — vectorized multi-key ordering with a top-K
// short-circuit.
//
// orderVector replicates orderResult: order keys matching an output
// column (by alias or structural equality with a projection) sort on
// output values; other keys are legal only before aggregation and are
// evaluated vectorized over the joined input rows. Comparison
// semantics are identical — NULLs sort first, comparison errors are
// ignored (treated as ties, as orderResult has always done and the
// differential harness pins), and full-key ties preserve input order
// (sort.SliceStable there, an explicit index tie-break here, which
// are equivalent).
//
// When the statement carries a LIMIT smaller than the result, a
// bounded heap keeps only the limit smallest rows under the sort
// order. Because the index tie-break makes the order total, the top-K
// prefix is exactly the prefix a full stable sort would produce, so
// the subsequent limit truncation in finishVector is a no-op.

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
	if limit := int(ex.stmt.Limit); limit > 0 && limit < n {
		res.Rows = topK(res.Rows, limit, less)
		return nil
	}
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

// topK returns the first k rows of the full sort order without
// sorting the rest: a bounded max-heap (ordered by `worse`, the
// inverse of less) keeps the k best row indexes seen so far, evicting
// the current worst whenever a better row arrives. less must be a
// total order (orderVector's index tie-break guarantees it), which
// makes the result identical to sort-then-truncate.
func topK(rows []Row, k int, less func(a, b int) bool) []Row {
	worse := func(a, b int) bool { return less(b, a) }
	h := make([]int, 0, k)
	sink := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	swim := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for i := range rows {
		if len(h) < k {
			h = append(h, i)
			swim(len(h) - 1)
			continue
		}
		if less(i, h[0]) {
			h[0] = i
			sink(0)
		}
	}
	// Pop from worst to best, filling the output back to front.
	out := make([]Row, len(h))
	for j := len(out) - 1; j >= 0; j-- {
		out[j] = rows[h[0]]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		sink(0)
	}
	return out
}
