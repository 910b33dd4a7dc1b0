package sqldb

// oracle_test.go — the tree-walking oracle. It is the original
// per-row executor: the same compiled plan as Execute (newExecution's
// name resolution, pushdown/join/residual classification and
// aggregate registry), evaluated one wide row at a time with no
// batches, indexes or build-side caches. It exists only to hold the
// vector engine to result, column, ordering, error-presence and
// cancellation-tick parity in the differential tests, so it lives in
// a test file and never ships in the production binary.

import (
	"context"
	"fmt"
	"sort"
)

// executeOracle runs stmt on the tree-walking oracle under the same
// read lock and tick accounting Execute uses, so tick-parity tests
// can compare the two engines' CtxTicks deltas.
func (db *Database) executeOracle(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex, err := newExecution(db, stmt)
	if err != nil {
		return nil, err
	}
	var ticks int
	res, err := ex.runTree(ctx, &ticks)
	db.estats.CtxTicks.Add(int64(ticks))
	return res, err
}

func checkCtx(ctx context.Context, n *int) error {
	*n++
	if *n%cancelCheckEvery == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// runTree executes the compiled plan with the original tree-walking
// engine: per-row predicate evaluation over wide rows, then the
// shared post-join pipeline. It is the oracle the vectorized engine
// is differentially tested against.
func (ex *execution) runTree(ctx context.Context, ticks *int) (*Result, error) {
	// 1. Scan + filter each table into wide-row fragments.
	filtered := map[string][]Row{}
	for _, t := range ex.tables {
		tbl := ex.db.tables[t]
		preds := ex.pushdown[t]
		rows := make([]Row, 0, len(tbl.Rows))
		off := ex.offsets[t]
		for _, r := range tbl.Rows {
			if err := checkCtx(ctx, ticks); err != nil {
				return nil, err
			}
			keep := true
			if len(preds) > 0 {
				wide := make(Row, ex.width)
				copy(wide[off:], r)
				for _, p := range preds {
					ok, err := ex.evalBool(p, wide, nil)
					if err != nil {
						return nil, err
					}
					if !ok {
						keep = false
						break
					}
				}
			}
			if keep {
				rows = append(rows, r)
			}
		}
		filtered[t] = rows
	}

	// 2. Join greedily, smallest first, following equi-join edges.
	current, err := ex.join(ctx, filtered, ticks)
	if err != nil {
		return nil, err
	}

	// 3-6. Residual, aggregation/projection, order, limit.
	return ex.finish(ctx, current, ticks)
}

// finish runs the tree engine's tail of the plan over the joined wide
// rows: residual predicates, grouping/aggregation or projection,
// order by, and limit. The vector engine's finishVector replicates
// every stage batch-at-a-time; the differential harness holds the two
// to digest-, column-, ordering- and error-parity.
func (ex *execution) finish(ctx context.Context, current []Row, ticks *int) (*Result, error) {
	// 3. Residual predicates.
	if len(ex.residual) > 0 {
		kept := current[:0]
		for _, w := range current {
			if err := checkCtx(ctx, ticks); err != nil {
				return nil, err
			}
			ok := true
			for _, p := range ex.residual {
				b, err := ex.evalBool(p, w, nil)
				if err != nil {
					return nil, err
				}
				if !b {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, w)
			}
		}
		current = kept
	}

	// 4. Grouping / aggregation, or plain projection.
	var out *Result
	var err error
	if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
		out, err = ex.aggregate(ctx, current, ticks)
	} else {
		out, err = ex.project(ctx, current, ticks)
	}
	if err != nil {
		return nil, err
	}

	// 5. Order by.
	if len(ex.stmt.OrderBy) > 0 {
		if err := ex.orderResult(out, current); err != nil {
			return nil, err
		}
	}

	// 6. Limit.
	if ex.stmt.Limit > 0 && int64(len(out.Rows)) > ex.stmt.Limit {
		out.Rows = out.Rows[:ex.stmt.Limit]
	}
	return out, nil
}

// join combines the filtered fragments into wide rows.
func (ex *execution) join(ctx context.Context, filtered map[string][]Row, ticks *int) ([]Row, error) {
	remaining := map[string]bool{}
	for _, t := range ex.tables {
		remaining[t] = true
	}
	// Start from the smallest fragment for a small build side; ties
	// break on from-clause position to keep row order deterministic.
	start := ex.tables[0]
	for _, t := range ex.tables[1:] {
		if len(filtered[t]) < len(filtered[start]) {
			start = t
		}
	}
	delete(remaining, start)
	joined := map[string]bool{start: true}
	current := make([]Row, 0, len(filtered[start]))
	off := ex.offsets[start]
	for _, r := range filtered[start] {
		wide := make(Row, ex.width)
		copy(wide[off:], r)
		current = append(current, wide)
	}

	for len(remaining) > 0 {
		// Choose the smallest remaining table reachable via a join
		// edge; fall back to a cross product if none is connected.
		// Iteration follows the from-clause order so ties resolve
		// deterministically (result row order must be reproducible
		// across runs for the extraction checker's comparisons).
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
			if connected && (next == "" || len(filtered[t]) < len(filtered[next])) {
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
				if next == "" || len(filtered[t]) < len(filtered[next]) {
					next = t
				}
			}
		}
		delete(remaining, next)

		nOff := ex.offsets[next]
		if cross {
			var out []Row
			for _, w := range current {
				for _, r := range filtered[next] {
					if err := checkCtx(ctx, ticks); err != nil {
						return nil, err
					}
					nw := w.Clone()
					copy(nw[nOff:], r)
					out = append(out, nw)
				}
			}
			current = out
			joined[next] = true
			continue
		}

		// Hash join: key on every edge connecting `next` to the
		// joined set.
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
		build := make(map[string][]Row, len(filtered[next]))
		for _, r := range filtered[next] {
			if err := checkCtx(ctx, ticks); err != nil {
				return nil, err
			}
			key, ok := appendJoinKey(nil, r, buildLocal)
			if !ok {
				continue // NULL join key never matches
			}
			build[string(key)] = append(build[string(key)], r)
		}
		var out []Row
		for _, w := range current {
			if err := checkCtx(ctx, ticks); err != nil {
				return nil, err
			}
			key, ok := appendJoinKey(nil, w, probeIdx)
			if !ok {
				continue
			}
			for _, r := range build[string(key)] {
				nw := w.Clone()
				copy(nw[nOff:], r)
				out = append(out, nw)
			}
		}
		current = out
		joined[next] = true
	}

	// Enforce any join edges not used as hash keys (cycle edges).
	var unused []joinEdge
	for _, e := range ex.joins {
		if !e.used {
			unused = append(unused, e)
		}
	}
	if len(unused) > 0 {
		kept := current[:0]
		for _, w := range current {
			ok := true
			for _, e := range unused {
				if !Equal(w[e.li], w[e.ri]) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, w)
			}
		}
		current = kept
	}
	return current, nil
}

// project emits one output row per input row (no aggregation).
func (ex *execution) project(ctx context.Context, rows []Row, ticks *int) (*Result, error) {
	res := &Result{Columns: ex.outputColumns()}
	for _, w := range rows {
		if err := checkCtx(ctx, ticks); err != nil {
			return nil, err
		}
		out := make(Row, len(ex.stmt.Items))
		for i, it := range ex.stmt.Items {
			v, err := ex.eval(it.Expr, w, nil)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// aggregate performs hash grouping and evaluates items/having per
// group. Per-group aggregate results live in a positional slice
// aligned with ex.aggs — never in a per-group map (GL008).
func (ex *execution) aggregate(ctx context.Context, rows []Row, ticks *int) (*Result, error) {
	idx := map[string]int{}
	var groups []group
	for _, w := range rows {
		if err := checkCtx(ctx, ticks); err != nil {
			return nil, err
		}
		var key []byte
		for _, g := range ex.stmt.GroupBy {
			v, err := ex.eval(g, w, nil)
			if err != nil {
				return nil, err
			}
			key = appendKey(key, v)
		}
		gi, ok := idx[string(key)]
		if !ok {
			gi = len(groups)
			idx[string(key)] = gi
			groups = append(groups, group{rep: w, accs: make([]aggAcc, len(ex.aggs))})
		}
		grp := &groups[gi]
		for i, ag := range ex.aggs {
			if ag.Star {
				grp.accs[i].count++
				continue
			}
			v, err := ex.eval(ag.Arg, w, nil)
			if err != nil {
				return nil, err
			}
			grp.accs[i].add(v, ag.Distinct)
		}
	}

	return ex.finalizeGroups(groups, len(rows), nil)
}

// orderResult sorts the output rows. Order keys that match an output
// column (by alias or by structural equality with a projection) sort
// on output values; other keys are unsupported after aggregation.
func (ex *execution) orderResult(res *Result, input []Row) error {
	type keyFn func(row Row, idx int) (Value, error)
	var fns []keyFn
	descs := make([]bool, len(ex.stmt.OrderBy))
	for ki, k := range ex.stmt.OrderBy {
		descs[ki] = k.Desc
		outIdx := ex.matchOutputColumn(k.Expr)
		if outIdx >= 0 {
			idx := outIdx
			fns = append(fns, func(row Row, _ int) (Value, error) { return row[idx], nil })
			continue
		}
		if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
			return fmt.Errorf("order by expression %s does not appear in the select list", k.Expr)
		}
		expr := k.Expr
		fns = append(fns, func(_ Row, idx int) (Value, error) { return ex.eval(expr, input[idx], nil) })
	}
	idxs := make([]int, len(res.Rows))
	for i := range idxs {
		idxs[i] = i
	}
	keys := make([][]Value, len(res.Rows))
	for i := range res.Rows {
		keys[i] = make([]Value, len(fns))
		for j, fn := range fns {
			v, err := fn(res.Rows[i], i)
			if err != nil {
				return err
			}
			keys[i][j] = v
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ka, kb := keys[idxs[a]], keys[idxs[b]]
		for j := range ka {
			c, err := Compare(ka[j], kb[j])
			if err != nil || c == 0 {
				continue
			}
			if descs[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]Row, len(res.Rows))
	for i, idx := range idxs {
		sorted[i] = res.Rows[idx]
	}
	res.Rows = sorted
	return nil
}
