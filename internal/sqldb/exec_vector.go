package sqldb

import "context"

// exec_vector.go — the vectorized, index-assisted execution engine.
//
// runVector executes the compiled plan that newExecution builds,
// stage by stage:
//
//   - scan+filter works on selections ([]int32 row ids) narrowed by
//     vectorized predicate evaluation over column batches, with a
//     secondary hash index serving a leading `col = literal`
//     predicate;
//   - the greedy hash join runs over row-id tuple columns and reuses
//     cached build sides; its result stays as those columns (tuples);
//   - the post-join tail (residual predicates, aggregation,
//     projection, ORDER BY, LIMIT) evaluates batch-at-a-time in
//     finishVector over batches that gather straight from the base
//     tables, with a top-K heap short-circuiting ordered limited
//     queries.
//
// The tree engine, a per-row walker kept in oracle_test.go, is the
// differential oracle: every stage here must match it on digests,
// column names, row order and error presence (enginediff_test.go).
// The join replicates the tree engine's greedy
// order (smallest fragment first, from-clause tie-break) and emission
// order (probe order x bucket order), so row order matches too.
//
// One access-path rule holds for every scan: the hash index answers
// the leading pushdown predicate when it is `col = literal` on a
// non-float column (indexableEq) and the table has at least
// indexMinRows rows. Only the leading predicate qualifies: an index
// serving a later predicate would skip the earlier ones on the rows
// it rejects, and with them any error the oracle would raise there.
// Every other predicate evaluates vectorized, in WHERE order.

// indexMinRows gates the secondary index: tables smaller than this
// are cheaper to scan than to index.
const indexMinRows = 16

func (ex *execution) runVector(ctx context.Context, ticks *int) (*Result, error) {
	sels := make([][]int32, len(ex.tables))
	for p, t := range ex.tables {
		sel, err := ex.scanVector(ctx, t, ticks)
		if err != nil {
			return nil, err
		}
		sels[p] = sel
	}
	tp, err := ex.joinVector(ctx, sels, ticks)
	if err != nil {
		return nil, err
	}
	return ex.finishVector(ctx, tp, ticks)
}

// identitySel returns the selection covering rows [0, n).
func identitySel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// scanVector evaluates a table's pushdown predicates over a narrowing
// selection of row ids. The leading predicate may be answered by the
// hash index; the rest evaluate vectorized, in WHERE order, each over
// only the rows the previous ones kept (matching the tree engine's
// per-row short-circuit).
func (ex *execution) scanVector(ctx context.Context, t string, ticks *int) ([]int32, error) {
	tbl := ex.db.tables[t]
	preds := ex.pushdown[t]
	// Cost model: a scan charges one tick per stored row whether or
	// not an index short-circuits the work, so timeout behaviour does
	// not depend on the engine or on index cache state.
	if err := chargeTicks(ctx, ticks, len(tbl.Rows)); err != nil {
		return nil, err
	}
	ci, key, indexed := 0, "", false
	if len(preds) > 0 && len(tbl.Rows) >= indexMinRows {
		ci, key, indexed = ex.indexableEq(t, preds[0])
	}
	var sel []int32
	if indexed {
		sel = tbl.pointLookup(ci, key, ex.db.estats)
		preds = preds[1:]
	} else {
		sel = identitySel(len(tbl.Rows))
	}
	for _, p := range preds {
		if len(sel) == 0 {
			break // no rows left; the tree engine evaluates nothing either
		}
		b := newBatch(tbl, ex.offsets[t], sel, ex.db.estats)
		v, err := ex.evalVec(p, b)
		if err != nil {
			return nil, err
		}
		// Fresh slice: sel may be owned by the index (or by a cached
		// build side) and must never be narrowed in place.
		kept := make([]int32, 0, len(sel))
		for k := range sel {
			if !v.nullAt(k) && v.boolAt(k) {
				kept = append(kept, sel[k])
			}
		}
		sel = kept
	}
	return sel, nil
}

// indexableEq recognizes a predicate a point lookup can answer with
// semantics identical to scanning: `col = literal` (either operand
// order) where the literal is non-NULL and its type equals the
// column's type, the column being int, date, bool or text. For those
// pairings Compare()==0 coincides exactly with group-key equality, so
// the index returns precisely the rows the tree engine keeps, and the
// comparison can never error. Floats are excluded (-0.0 vs 0.0 and
// int/float widening break the key equivalence), as are cross-class
// pairs (the tree engine may need to raise a comparison error).
func (ex *execution) indexableEq(t string, p Expr) (ci int, key string, ok bool) {
	b, isBin := p.(*BinaryExpr)
	if !isBin || b.Op != OpEq {
		return 0, "", false
	}
	col, isCol := b.L.(*ColumnExpr)
	lit, isLit := b.R.(*LiteralExpr)
	if !isCol || !isLit {
		col, isCol = b.R.(*ColumnExpr)
		lit, isLit = b.L.(*LiteralExpr)
		if !isCol || !isLit {
			return 0, "", false
		}
	}
	if lit.Val.Null {
		return 0, "", false
	}
	// The column must resolve to table t itself.
	slot, err := ex.slotOf(col)
	if err != nil || slot.tbl != t {
		return 0, "", false
	}
	ci = slot.idx - ex.offsets[t]
	colTyp := ex.schemas[t].Columns[ci].Type
	if colTyp != lit.Val.Typ {
		return 0, "", false
	}
	switch colTyp {
	case TInt, TDate, TBool, TText:
		return ci, lit.Val.GroupKey(), true
	default:
		return 0, "", false
	}
}

// joinVector replicates the tree engine's greedy hash join over
// columnar tuples: one []int32 of row ids per joined table, aligned
// by tuple position, with sels holding each table's scan selection in
// from-clause order. Build sides come from the per-table cache, so a
// probe re-executed on an unchanged (or non-key-mutated) clone
// rebuilds nothing. The result stays columnar; post-join stages
// gather from the base tables through it. Ticks are charged per
// logical row exactly as the tree engine's per-row checkCtx calls do:
// build side size per hash join, probe-tuple count per probe pass,
// pair count per cross product — independent of build-cache hits.
func (ex *execution) joinVector(ctx context.Context, sels [][]int32, ticks *int) (*tuples, error) {
	nt := len(ex.tables)
	tp := &tuples{ids: make([][]int32, nt), tables: make([]*Table, nt), slots: make([]tupleSlot, ex.width)}
	for p, t := range ex.tables {
		tp.tables[p] = ex.db.tables[t]
		off := ex.offsets[t]
		for c := range ex.schemas[t].Columns {
			tp.slots[off+c] = tupleSlot{pos: p, col: c}
		}
	}

	start := 0
	for p := 1; p < nt; p++ {
		if len(sels[p]) < len(sels[start]) {
			start = p
		}
	}
	joined := make([]bool, nt)
	joined[start] = true
	tp.ids[start] = sels[start]
	tp.n = len(sels[start])

	for range nt - 1 {
		// The smallest table connected to the joined set by an edge,
		// else (a cross product) the smallest table left; ties go to
		// the earlier table in the from clause.
		next := -1
		for p := range nt {
			if joined[p] {
				continue
			}
			connected := false
			for _, e := range ex.joins {
				lp, rp := tp.slots[e.li].pos, tp.slots[e.ri].pos
				if (joined[lp] && rp == p) || (joined[rp] && lp == p) {
					connected = true
					break
				}
			}
			if connected && (next < 0 || len(sels[p]) < len(sels[next])) {
				next = p
			}
		}
		cross := next < 0
		if cross {
			for p := range nt {
				if !joined[p] && (next < 0 || len(sels[p]) < len(sels[next])) {
					next = p
				}
			}
		}
		nsel := sels[next]

		if cross {
			if err := chargeTicks(ctx, ticks, tp.n*len(nsel)); err != nil {
				return nil, err
			}
			total := tp.n * len(nsel)
			for p := range nt {
				if !joined[p] {
					continue
				}
				col := make([]int32, 0, total)
				for _, id := range tp.ids[p] {
					for range nsel {
						col = append(col, id)
					}
				}
				tp.ids[p] = col
			}
			col := make([]int32, 0, total)
			for range tp.n {
				col = append(col, nsel...)
			}
			tp.ids[next] = col
			tp.n = total
			joined[next] = true
			continue
		}

		nOff := ex.offsets[ex.tables[next]]
		var probe []int // wide-row slots of the probe key, joined side
		var buildLocal []int
		for i := range ex.joins {
			e := &ex.joins[i]
			lp, rp := tp.slots[e.li].pos, tp.slots[e.ri].pos
			switch {
			case joined[lp] && rp == next:
				probe = append(probe, e.li)
				buildLocal = append(buildLocal, e.ri-nOff)
				e.used = true
			case joined[rp] && lp == next:
				probe = append(probe, e.ri)
				buildLocal = append(buildLocal, e.li-nOff)
				e.used = true
			}
		}
		if err := chargeTicks(ctx, ticks, len(nsel)); err != nil {
			return nil, err
		}
		build := tp.tables[next].joinBuildFor(buildLocal, nsel, ex.db.estats)
		if err := chargeTicks(ctx, ticks, tp.n); err != nil {
			return nil, err
		}
		// Match every tuple to its build bucket, then emit the pairs
		// column by column in probe order x bucket order.
		match := make([]int32, tp.n)
		total := 0
		var key []byte
		for i := range tp.n {
			key = key[:0]
			null := false
			for _, s := range probe {
				v := tp.value(int32(i), s)
				if v.Null {
					null = true // a NULL join key matches nothing
					break
				}
				key = appendKey(key, v)
			}
			bk := int32(-1)
			if !null {
				bk = build.bucket(key)
			}
			if bk >= 0 {
				total += len(build.buckets[bk])
			}
			match[i] = bk
		}
		for p := range nt {
			if !joined[p] {
				continue
			}
			col := make([]int32, 0, total)
			for i, bk := range match {
				if bk < 0 {
					continue
				}
				for range build.buckets[bk] {
					col = append(col, tp.ids[p][i])
				}
			}
			tp.ids[p] = col
		}
		col := make([]int32, 0, total)
		for _, bk := range match {
			if bk >= 0 {
				col = append(col, build.buckets[bk]...)
			}
		}
		tp.ids[next] = col
		tp.n = total
		joined[next] = true
	}

	// Enforce cycle edges not consumed as hash keys. No ticks: the
	// tree engine charges nothing for this stage either.
	var unused []joinEdge
	for _, e := range ex.joins {
		if !e.used {
			unused = append(unused, e)
		}
	}
	if len(unused) == 0 {
		return tp, nil
	}
	kept := make([]int32, 0, tp.n)
	for i := range int32(tp.n) {
		ok := true
		for _, e := range unused {
			if !Equal(tp.value(i, e.li), tp.value(i, e.ri)) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, i)
		}
	}
	for p, ids := range tp.ids {
		col := make([]int32, len(kept))
		for k, i := range kept {
			col[k] = ids[i]
		}
		tp.ids[p] = col
	}
	tp.n = len(kept)
	return tp, nil
}

// finishVector is the vector engine's post-join tail: the same
// residual → aggregate/project → order → limit pipeline as finish(),
// evaluated batch-at-a-time over the join result. Stage semantics —
// which (row, expression) pairs get evaluated, grouping key equality
// and first-seen order, ordering ties, the empty-input aggregation
// corner — replicate the tree engine exactly.
func (ex *execution) finishVector(ctx context.Context, tp *tuples, ticks *int) (*Result, error) {
	// 3. Residual predicates, vectorized over a narrowing selection
	// of tuple positions.
	sel := identitySel(tp.n)
	if len(ex.residual) > 0 {
		// One tick per joined row, like finish(): the charge does not
		// depend on the predicate count in either engine.
		if err := chargeTicks(ctx, ticks, tp.n); err != nil {
			return nil, err
		}
		b := newTupleBatch(tp, sel, ex.db.estats)
		for _, p := range ex.residual {
			if len(sel) == 0 {
				break
			}
			v, err := ex.evalVec(p, b)
			if err != nil {
				return nil, err
			}
			kept := make([]int32, 0, len(sel))
			for k := range sel {
				if !v.nullAt(k) && v.boolAt(k) {
					kept = append(kept, sel[k])
				}
			}
			sel = kept
			b = b.sub(sel)
		}
	}

	// 4. Grouping / aggregation, or plain projection.
	var out *Result
	var err error
	if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
		out, err = ex.aggregateVector(ctx, tp, sel, ticks)
	} else {
		out, err = ex.projectVector(ctx, tp, sel, ticks)
	}
	if err != nil {
		return nil, err
	}

	// 5. Order by (with top-K short-circuit under LIMIT).
	if len(ex.stmt.OrderBy) > 0 {
		if err := ex.orderVector(out, tp, sel); err != nil {
			return nil, err
		}
	}

	// 6. Limit. A top-K sort already returned exactly the limit
	// prefix; this is then a no-op.
	if ex.stmt.Limit > 0 && int64(len(out.Rows)) > ex.stmt.Limit {
		out.Rows = out.Rows[:ex.stmt.Limit]
	}
	return out, nil
}

// projectVector emits one output row per selected tuple (no
// aggregation), evaluating each select item as one vector over the
// batch.
func (ex *execution) projectVector(ctx context.Context, tp *tuples, sel []int32, ticks *int) (*Result, error) {
	if err := chargeTicks(ctx, ticks, len(sel)); err != nil {
		return nil, err
	}
	res := &Result{Columns: ex.outputColumns()}
	if len(sel) == 0 {
		return res, nil
	}
	b := newTupleBatch(tp, sel, ex.db.estats)
	vecs := make([]*vec, len(ex.stmt.Items))
	for i, it := range ex.stmt.Items {
		v, err := ex.evalVec(it.Expr, b)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	// One slab backs every output row; each row's capacity is capped
	// so an append to one can never overwrite the next.
	w := len(vecs)
	slab := make([]Value, len(sel)*w)
	res.Rows = make([]Row, len(sel))
	for k := range sel {
		out := slab[k*w : (k+1)*w : (k+1)*w]
		for i, v := range vecs {
			out[i] = v.valueAt(k)
		}
		res.Rows[k] = out
	}
	return res, nil
}
