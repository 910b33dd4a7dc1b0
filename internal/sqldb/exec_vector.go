package sqldb

import (
	"context"
	"strings"
)

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
//     cached build sides, materializing wide rows only for tuples
//     that survive every join;
//   - the post-join tail (residual predicates, aggregation,
//     projection, ORDER BY, LIMIT) evaluates batch-at-a-time in
//     finishVector, with a top-K heap short-circuiting ordered
//     limited queries.
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
	sels := map[string][]int32{}
	for _, t := range ex.tables {
		sel, err := ex.scanVector(ctx, t, ticks)
		if err != nil {
			return nil, err
		}
		sels[t] = sel
	}
	current, err := ex.joinVector(ctx, sels, ticks)
	if err != nil {
		return nil, err
	}
	return ex.finishVector(ctx, current, ticks)
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
// by tuple position. Build sides come from the per-table cache, so a
// probe re-executed on an unchanged (or non-key-mutated) clone
// rebuilds nothing. Wide rows materialize only after every join and
// cycle edge has been applied. Ticks are charged per logical row
// exactly as the tree engine's per-row checkCtx calls do: build side
// size per hash join, probe-tuple count per probe pass, pair count
// per cross product — independent of build-cache hits.
func (ex *execution) joinVector(ctx context.Context, sels map[string][]int32, ticks *int) ([]Row, error) {
	// Reverse slot mapping for probe-side key construction.
	slotTab := make([]string, ex.width)
	for _, t := range ex.tables {
		off := ex.offsets[t]
		for i := range ex.schemas[t].Columns {
			slotTab[off+i] = t
		}
	}

	remaining := map[string]bool{}
	for _, t := range ex.tables {
		remaining[t] = true
	}
	start := ex.tables[0]
	for _, t := range ex.tables[1:] {
		if len(sels[t]) < len(sels[start]) {
			start = t
		}
	}
	delete(remaining, start)
	joined := map[string]bool{start: true}
	cols := map[string][]int32{start: sels[start]}
	tupLen := len(sels[start])

	for len(remaining) > 0 {
		next := ""
		for _, t := range ex.tables {
			if !remaining[t] {
				continue
			}
			connected := false
			for _, e := range ex.joins {
				if (joined[e.lt] && e.rt == t) || (joined[e.rt] && e.lt == t) {
					connected = true
					break
				}
			}
			if connected && (next == "" || len(sels[t]) < len(sels[next])) {
				next = t
			}
		}
		cross := false
		if next == "" {
			cross = true
			for _, t := range ex.tables {
				if !remaining[t] {
					continue
				}
				if next == "" || len(sels[t]) < len(sels[next]) {
					next = t
				}
			}
		}
		delete(remaining, next)
		nOff := ex.offsets[next]
		nTbl := ex.db.tables[next]

		if cross {
			if err := chargeTicks(ctx, ticks, tupLen*len(sels[next])); err != nil {
				return nil, err
			}
			out := map[string][]int32{}
			for t := range joined {
				out[t] = nil
			}
			out[next] = nil
			newLen := 0
			for i := 0; i < tupLen; i++ {
				for _, rid := range sels[next] {
					for t := range joined {
						out[t] = append(out[t], cols[t][i])
					}
					out[next] = append(out[next], rid)
					newLen++
				}
			}
			cols = out
			tupLen = newLen
			joined[next] = true
			continue
		}

		var probeIdx, buildLocal []int
		for i := range ex.joins {
			e := &ex.joins[i]
			switch {
			case joined[e.lt] && e.rt == next:
				probeIdx = append(probeIdx, e.li)
				buildLocal = append(buildLocal, e.ri-nOff)
				e.used = true
			case joined[e.rt] && e.lt == next:
				probeIdx = append(probeIdx, e.ri)
				buildLocal = append(buildLocal, e.li-nOff)
				e.used = true
			}
		}
		if err := chargeTicks(ctx, ticks, len(sels[next])); err != nil {
			return nil, err
		}
		build := nTbl.joinBuildFor(buildLocal, sels[next], ex.db.estats)
		if err := chargeTicks(ctx, ticks, tupLen); err != nil {
			return nil, err
		}
		out := map[string][]int32{}
		for t := range joined {
			out[t] = nil
		}
		out[next] = nil
		newLen := 0
		var kb strings.Builder
		for i := 0; i < tupLen; i++ {
			kb.Reset()
			nullKey := false
			for _, p := range probeIdx {
				pt := slotTab[p]
				v := ex.db.tables[pt].Rows[cols[pt][i]][p-ex.offsets[pt]]
				if v.Null {
					nullKey = true
					break
				}
				kb.WriteString(v.GroupKey())
				kb.WriteByte('|')
			}
			if nullKey {
				continue
			}
			for _, rid := range build[kb.String()] {
				for t := range joined {
					out[t] = append(out[t], cols[t][i])
				}
				out[next] = append(out[next], rid)
				newLen++
			}
		}
		cols = out
		tupLen = newLen
		joined[next] = true
	}

	// Enforce cycle edges not consumed as hash keys.
	valAt := func(i, slot int) Value {
		t := slotTab[slot]
		return ex.db.tables[t].Rows[cols[t][i]][slot-ex.offsets[t]]
	}
	var unused []joinEdge
	for _, e := range ex.joins {
		if !e.used {
			unused = append(unused, e)
		}
	}
	keepTuple := make([]bool, tupLen)
	kept := 0
	for i := 0; i < tupLen; i++ {
		ok := true
		for _, e := range unused {
			if !Equal(valAt(i, e.li), valAt(i, e.ri)) {
				ok = false
				break
			}
		}
		keepTuple[i] = ok
		if ok {
			kept++
		}
	}

	// Materialize wide rows for surviving tuples only. No ticks: the
	// tree engine charges nothing for this stage either.
	current := make([]Row, 0, kept)
	for i := 0; i < tupLen; i++ {
		if !keepTuple[i] {
			continue
		}
		wide := make(Row, ex.width)
		for _, t := range ex.tables {
			copy(wide[ex.offsets[t]:], ex.db.tables[t].Rows[cols[t][i]])
		}
		current = append(current, wide)
	}
	return current, nil
}

// finishVector is the vector engine's post-join tail: the same
// residual → aggregate/project → order → limit pipeline as finish(),
// evaluated batch-at-a-time over the joined wide rows. Stage
// semantics — which (row, expression) pairs get evaluated, grouping
// key equality and first-seen order, ordering ties, the empty-input
// aggregation corner — replicate the tree engine exactly.
func (ex *execution) finishVector(ctx context.Context, current []Row, ticks *int) (*Result, error) {
	types := ex.wideTypes()

	// 3. Residual predicates, vectorized over a narrowing selection.
	if len(ex.residual) > 0 {
		// One tick per joined row, like finish(): the charge does not
		// depend on the predicate count in either engine.
		if err := chargeTicks(ctx, ticks, len(current)); err != nil {
			return nil, err
		}
		sel := identitySel(len(current))
		b := newWideBatch(current, types, sel, ex.db.estats)
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
		next := make([]Row, len(sel))
		for i, ri := range sel {
			next[i] = current[ri]
		}
		current = next
	}

	// 4. Grouping / aggregation, or plain projection.
	var out *Result
	var err error
	if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
		out, err = ex.aggregateVector(ctx, current, types, ticks)
	} else {
		out, err = ex.projectVector(ctx, current, types, ticks)
	}
	if err != nil {
		return nil, err
	}

	// 5. Order by (with top-K short-circuit under LIMIT).
	if len(ex.stmt.OrderBy) > 0 {
		if err := ex.orderVector(out, current, types); err != nil {
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

// projectVector emits one output row per input row (no aggregation),
// evaluating each select item as one vector over the batch.
func (ex *execution) projectVector(ctx context.Context, rows []Row, types []Type, ticks *int) (*Result, error) {
	if err := chargeTicks(ctx, ticks, len(rows)); err != nil {
		return nil, err
	}
	res := &Result{Columns: ex.outputColumns()}
	if len(rows) == 0 {
		return res, nil
	}
	b := newWideBatch(rows, types, identitySel(len(rows)), ex.db.estats)
	vecs := make([]*vec, len(ex.stmt.Items))
	for i, it := range ex.stmt.Items {
		v, err := ex.evalVec(it.Expr, b)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	res.Rows = make([]Row, len(rows))
	for k := range rows {
		out := make(Row, len(vecs))
		for i, v := range vecs {
			out[i] = v.valueAt(k)
		}
		res.Rows[k] = out
	}
	return res, nil
}
