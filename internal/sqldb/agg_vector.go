package sqldb

import "context"

// agg_vector.go — vectorized hash aggregation.
//
// aggregateVector replaces the tree engine's row-at-a-time aggregate()
// for the vector path: grouping keys and aggregate arguments are each
// evaluated as one vector over the join result, then folded into the
// same aggAcc accumulators the tree engine uses, with typed fast
// paths for the hot adds (COUNT/SUM over unboxed columns). Group key
// equality (appendKey), first-seen group order, accumulator semantics
// and the empty-input corner are identical to the tree engine — both
// paths then share finalizeGroups for HAVING and item evaluation, so
// per-group semantics cannot drift. A group keeps its first tuple as
// its representative, materialized as a wide row only in
// finalizeGroups.
//
// Error parity: the same (row, expression) pairs are evaluated as in
// the tree engine, just operand-major instead of row-major — the
// engines may surface a different error first, but whether an error
// occurs is identical (the differential harness's contract).

func (ex *execution) aggregateVector(ctx context.Context, tp *tuples, sel []int32, ticks *int) (*Result, error) {
	if err := chargeTicks(ctx, ticks, len(sel)); err != nil {
		return nil, err
	}
	idx := map[string]int32{}
	var groups []group
	if len(sel) > 0 {
		b := newTupleBatch(tp, sel, ex.db.estats)
		keyVecs := make([]*vec, len(ex.stmt.GroupBy))
		for i, g := range ex.stmt.GroupBy {
			v, err := ex.evalVec(g, b)
			if err != nil {
				return nil, err
			}
			keyVecs[i] = v
		}
		argVecs := make([]*vec, len(ex.aggs))
		for i, ag := range ex.aggs {
			if ag.Star {
				continue
			}
			v, err := ex.evalVec(ag.Arg, b)
			if err != nil {
				return nil, err
			}
			argVecs[i] = v
		}
		var key []byte
		for k, ti := range sel {
			key = key[:0]
			for _, v := range keyVecs {
				key = appendKey(key, v.valueAt(k))
			}
			gi, ok := idx[string(key)]
			if !ok {
				gi = int32(len(groups))
				idx[string(key)] = gi
				groups = append(groups, group{tuple: ti, accs: make([]aggAcc, len(ex.aggs))})
			}
			grp := &groups[gi]
			for i, ag := range ex.aggs {
				if ag.Star {
					grp.accs[i].count++
					continue
				}
				grp.accs[i].addVec(argVecs[i], k, ag.Distinct)
			}
		}
	}
	return ex.finalizeGroups(groups, len(sel), tp)
}

// addVec folds element k of v into the accumulator. Unboxed typed
// storage takes allocation-free fast paths whose payload comparisons
// coincide exactly with Compare for a uniformly typed column (I for
// TInt/TDate/TBool, F for TFloat, S for TText — the same equivalence
// the comparison fast paths in vector.go rely on). DISTINCT and boxed
// vectors fall back to the tree engine's add().
func (a *aggAcc) addVec(v *vec, k int, distinct bool) {
	if v.nullAt(k) {
		return
	}
	if distinct || v.vals != nil || v.isConst {
		a.add(v.valueAt(k), distinct)
		return
	}
	a.count++
	switch v.typ {
	case TFloat:
		f := v.floats[k]
		a.isFlt = true
		a.sumF += f
		if !a.has {
			a.minV, a.maxV, a.has = Value{Typ: TFloat, F: f}, Value{Typ: TFloat, F: f}, true
			return
		}
		if f < a.minV.F {
			a.minV = Value{Typ: TFloat, F: f}
		}
		if f > a.maxV.F {
			a.maxV = Value{Typ: TFloat, F: f}
		}
	case TText:
		s := v.strs[k]
		if !a.has {
			a.minV, a.maxV, a.has = Value{Typ: TText, S: s}, Value{Typ: TText, S: s}, true
			return
		}
		if s < a.minV.S {
			a.minV = Value{Typ: TText, S: s}
		}
		if s > a.maxV.S {
			a.maxV = Value{Typ: TText, S: s}
		}
	default: // TInt, TDate, TBool
		i := v.ints[k]
		if v.typ == TInt {
			a.sumI += i
		}
		if !a.has {
			a.minV, a.maxV, a.has = Value{Typ: v.typ, I: i}, Value{Typ: v.typ, I: i}, true
			return
		}
		if i < a.minV.I {
			a.minV = Value{Typ: v.typ, I: i}
		}
		if i > a.maxV.I {
			a.maxV = Value{Typ: v.typ, I: i}
		}
	}
}
