package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// Execute runs a single-block SELECT against the database. The
// statement AST is not modified, so a parsed statement can be executed
// repeatedly against different database states (as the extractor
// does). Execution observes ctx cancellation at row granularity so
// callers can impose probe timeouts.
//
// The plan runs on the vectorized engine (exec_vector.go: columnar
// batches, secondary hash indexes, hash-join build reuse). The
// differential tests hold it to a tree-walking oracle that lives in
// oracle_test.go: identical results, column names, row order and
// cancellation ticks.
func (db *Database) Execute(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex, err := newExecution(db, stmt)
	if err != nil {
		return nil, err
	}
	// Cancellation ticks follow a fixed cost model (one tick per
	// logical row touched per stage), independent of which access
	// paths the engine picks; the totals are recorded for the
	// tick-parity regression tests.
	var ticks int
	db.estats.VectorQueries.Add(1)
	res, err := ex.runVector(ctx, &ticks)
	db.estats.CtxTicks.Add(int64(ticks))
	return res, err
}

// colSlot is one resolved column reference: the owning table and the
// column's slot in the wide row.
type colSlot struct {
	tbl string
	idx int
}

// execution holds the per-run state: name resolution, classified
// predicates and the working row sets.
type execution struct {
	db   *Database
	stmt *SelectStmt

	tables  []string       // from-clause order, lowercased
	offsets map[string]int // table -> first slot in the wide row
	schemas map[string]*TableSchema
	width   int

	// Column resolution is keyed on the resolved (table, column) NAME,
	// not on *ColumnExpr pointer identity, so a statement cloned
	// between resolution and evaluation (CloneStmt) still evaluates
	// correctly. ptrSlot is a pure cache over the pointers seen at
	// resolve time; slotOf falls back to the name maps for any pointer
	// it has not seen.
	cols    map[string]colSlot // "tbl\x00col" -> slot
	unq     map[string]colSlot // unqualified column -> slot (unambiguous only)
	ptrSlot map[*ColumnExpr]colSlot

	pushdown map[string][]Expr // single-table conjuncts, WHERE order
	joins    []joinEdge        // equi-join conjuncts between tables
	residual []Expr            // everything else

	// Aggregates are deduplicated by canonical rendering: structurally
	// identical AggExpr nodes (including clones) share one accumulator
	// slot. aggPtr caches the nodes seen at resolve time.
	aggs   []*AggExpr
	aggIdx map[string]int
	aggPtr map[*AggExpr]int
}

type joinEdge struct {
	lt, rt string // table names
	li, ri int    // wide-row slots
	used   bool
}

func newExecution(db *Database, stmt *SelectStmt) (*execution, error) {
	ex := &execution{
		db:       db,
		stmt:     stmt,
		offsets:  map[string]int{},
		schemas:  map[string]*TableSchema{},
		cols:     map[string]colSlot{},
		unq:      map[string]colSlot{},
		ptrSlot:  map[*ColumnExpr]colSlot{},
		pushdown: map[string][]Expr{},
		aggIdx:   map[string]int{},
		aggPtr:   map[*AggExpr]int{},
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("query has no from clause")
	}
	for _, raw := range stmt.From {
		name := strings.ToLower(raw)
		if _, dup := ex.offsets[name]; dup {
			return nil, fmt.Errorf("table %s appears twice in from clause (self-joins unsupported)", name)
		}
		t, ok := db.tables[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
		}
		ex.tables = append(ex.tables, name)
		ex.offsets[name] = ex.width
		ex.schemas[name] = &t.Schema
		ex.width += len(t.Schema.Columns)
	}
	// Resolve every expression in the statement.
	for _, it := range stmt.Items {
		if err := ex.resolve(it.Expr); err != nil {
			return nil, err
		}
	}
	if err := ex.resolve(stmt.Where); err != nil {
		return nil, err
	}
	for _, g := range stmt.GroupBy {
		if err := ex.resolve(g); err != nil {
			return nil, err
		}
	}
	if err := ex.resolve(stmt.Having); err != nil {
		return nil, err
	}
	for _, k := range stmt.OrderBy {
		if err := ex.resolveOrderKey(k.Expr); err != nil {
			return nil, err
		}
	}
	if err := ex.classifyWhere(); err != nil {
		return nil, err
	}
	ex.collectAggs()
	return ex, nil
}

// resolve validates every column reference in e and records its
// resolution in the name-keyed maps.
func (ex *execution) resolve(e Expr) error {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ColumnExpr:
		_, err := ex.resolveColumn(x)
		return err
	case *LiteralExpr:
		return nil
	case *BinaryExpr:
		if err := ex.resolve(x.L); err != nil {
			return err
		}
		return ex.resolve(x.R)
	case *NegExpr:
		return ex.resolve(x.X)
	case *NotExpr:
		return ex.resolve(x.X)
	case *BetweenExpr:
		if err := ex.resolve(x.X); err != nil {
			return err
		}
		if err := ex.resolve(x.Lo); err != nil {
			return err
		}
		return ex.resolve(x.Hi)
	case *LikeExpr:
		return ex.resolve(x.X)
	case *IsNullExpr:
		return ex.resolve(x.X)
	case *AggExpr:
		if x.Arg != nil {
			return ex.resolve(x.Arg)
		}
		return nil
	default:
		return fmt.Errorf("unsupported expression node %T", e)
	}
}

func (ex *execution) resolveColumn(c *ColumnExpr) (colSlot, error) {
	tbl := strings.ToLower(c.Table)
	col := strings.ToLower(c.Column)
	if tbl != "" {
		s, ok := ex.schemas[tbl]
		if !ok {
			return colSlot{}, fmt.Errorf("column reference %s.%s: table not in from clause", tbl, col)
		}
		ci := s.ColumnIndex(col)
		if ci < 0 {
			return colSlot{}, fmt.Errorf("table %s has no column %s", tbl, col)
		}
		slot := colSlot{tbl: tbl, idx: ex.offsets[tbl] + ci}
		ex.cols[tbl+"\x00"+col] = slot
		ex.ptrSlot[c] = slot
		return slot, nil
	}
	found := ""
	idx := -1
	for _, t := range ex.tables {
		if ci := ex.schemas[t].ColumnIndex(col); ci >= 0 {
			if found != "" {
				return colSlot{}, fmt.Errorf("column %s is ambiguous (%s, %s)", col, found, t)
			}
			found, idx = t, ex.offsets[t]+ci
		}
	}
	if found == "" {
		return colSlot{}, fmt.Errorf("unknown column %s", col)
	}
	slot := colSlot{tbl: found, idx: idx}
	ex.unq[col] = slot
	ex.cols[found+"\x00"+col] = slot
	ex.ptrSlot[c] = slot
	return slot, nil
}

// slotOf resolves a column reference at evaluation time. The pointer
// cache serves references resolved by this execution; the name maps
// serve structurally identical references from cloned statements.
func (ex *execution) slotOf(c *ColumnExpr) (colSlot, error) {
	if slot, ok := ex.ptrSlot[c]; ok {
		return slot, nil
	}
	col := strings.ToLower(c.Column)
	if c.Table != "" {
		if slot, ok := ex.cols[strings.ToLower(c.Table)+"\x00"+col]; ok {
			return slot, nil
		}
	} else if slot, ok := ex.unq[col]; ok {
		return slot, nil
	}
	// Not seen during resolution: resolve it now (validates against
	// the schemas and caches the result).
	return ex.resolveColumn(c)
}

// resolveOrderKey resolves an ORDER BY expression, tolerating
// references to output aliases (resolved later against the items).
func (ex *execution) resolveOrderKey(e Expr) error {
	if c, ok := e.(*ColumnExpr); ok && c.Table == "" {
		for _, it := range ex.stmt.Items {
			if strings.EqualFold(it.OutputName(), c.Column) {
				return nil // alias reference; resolved against output
			}
		}
	}
	return ex.resolve(e)
}

// classifyWhere splits the WHERE conjunction into per-table pushdown
// filters, equi-join edges and residual predicates.
func (ex *execution) classifyWhere() error {
	for _, c := range Conjuncts(ex.stmt.Where) {
		if b, ok := c.(*BinaryExpr); ok && b.Op == OpEq {
			lc, lok := b.L.(*ColumnExpr)
			rc, rok := b.R.(*ColumnExpr)
			if lok && rok {
				ls, err := ex.slotOf(lc)
				if err != nil {
					return err
				}
				rs, err := ex.slotOf(rc)
				if err != nil {
					return err
				}
				if ls.tbl != rs.tbl {
					ex.joins = append(ex.joins, joinEdge{
						lt: ls.tbl, rt: rs.tbl,
						li: ls.idx, ri: rs.idx,
					})
					continue
				}
			}
		}
		tbls := map[string]bool{}
		for _, col := range ColumnsOf(c) {
			s, err := ex.slotOf(col)
			if err != nil {
				return err
			}
			tbls[s.tbl] = true
		}
		if len(tbls) == 1 {
			for t := range tbls {
				ex.pushdown[t] = append(ex.pushdown[t], c)
			}
			continue
		}
		ex.residual = append(ex.residual, c)
	}
	return nil
}

func (ex *execution) collectAggs() {
	record := func(x *AggExpr) {
		key := x.String()
		if i, ok := ex.aggIdx[key]; ok {
			ex.aggPtr[x] = i
			return
		}
		i := len(ex.aggs)
		ex.aggs = append(ex.aggs, x)
		ex.aggIdx[key] = i
		ex.aggPtr[x] = i
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *AggExpr:
			record(x)
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *NegExpr:
			walk(x.X)
		case *NotExpr:
			walk(x.X)
		case *BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *LikeExpr:
			walk(x.X)
		case *IsNullExpr:
			walk(x.X)
		}
	}
	for _, it := range ex.stmt.Items {
		walk(it.Expr)
	}
	walk(ex.stmt.Having)
	for _, k := range ex.stmt.OrderBy {
		walk(k.Expr)
	}
}

// aggPos maps an aggregate node to its accumulator slot. Clones of
// registered aggregates resolve through their canonical rendering.
func (ex *execution) aggPos(x *AggExpr) (int, bool) {
	if i, ok := ex.aggPtr[x]; ok {
		return i, true
	}
	i, ok := ex.aggIdx[x.String()]
	if ok {
		ex.aggPtr[x] = i
	}
	return i, ok
}

const cancelCheckEvery = 4096

// chargeTicks adds n ticks in one step — the vectorized stages charge
// a whole batch's cost at once where the oracle's checkCtx charges
// one per row — and polls ctx whenever the charge crosses a
// cancelCheckEvery boundary, preserving checkCtx's polling cadence.
func chargeTicks(ctx context.Context, ticks *int, n int) error {
	if n <= 0 {
		return nil
	}
	before := *ticks
	*ticks = before + n
	if before/cancelCheckEvery != (before+n)/cancelCheckEvery {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

func (ex *execution) outputColumns() []string {
	cols := make([]string, len(ex.stmt.Items))
	for i, it := range ex.stmt.Items {
		cols[i] = it.OutputName()
	}
	return cols
}

// group accumulates one hash-aggregation bucket. Its representative
// input row is rep (the oracle's wide row) or, when rep is nil, the
// join result's tuple number tuple (the vector engine's).
type group struct {
	rep   Row
	tuple int32
	accs  []aggAcc
}

type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	isFlt bool
	minV  Value
	maxV  Value
	has   bool
	seen  map[string]bool // for DISTINCT
}

func (a *aggAcc) add(v Value, distinct bool) {
	if v.Null {
		return
	}
	if distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		k := v.GroupKey()
		if a.seen[k] {
			return
		}
		a.seen[k] = true
	}
	a.count++
	switch v.Typ {
	case TFloat:
		a.isFlt = true
		a.sumF += v.F
	case TInt:
		a.sumI += v.I
	}
	if !a.has {
		a.minV, a.maxV, a.has = v, v, true
		return
	}
	if c, err := Compare(v, a.minV); err == nil && c < 0 {
		a.minV = v
	}
	if c, err := Compare(v, a.maxV); err == nil && c > 0 {
		a.maxV = v
	}
}

func (a *aggAcc) final(fn AggFn) Value {
	switch fn {
	case AggCount:
		return NewInt(a.count)
	case AggMin:
		if !a.has {
			return NewNull(TUnknown)
		}
		return a.minV
	case AggMax:
		if !a.has {
			return NewNull(TUnknown)
		}
		return a.maxV
	case AggSum:
		if a.count == 0 {
			return NewNull(TUnknown)
		}
		if a.isFlt {
			return NewFloat(a.sumF + float64(a.sumI))
		}
		return NewInt(a.sumI)
	case AggAvg:
		if a.count == 0 {
			return NewNull(TUnknown)
		}
		return NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	default:
		return NewNull(TUnknown)
	}
}

// finalizeGroups evaluates HAVING and the select list per group, in
// first-seen order, and assembles the result. The vector engine and
// the oracle (oracle_test.go) share it verbatim, so the per-group
// semantics (the empty-input null-result corner, HAVING filtering,
// item evaluation against the representative row) cannot drift
// between them. tp is the join result a group's representative tuple
// indexes (nil for the oracle); each such tuple is materialized as a
// wide row only while its group is evaluated, into one reused row.
func (ex *execution) finalizeGroups(groups []group, inputRows int, tp *tuples) (*Result, error) {
	res := &Result{Columns: ex.outputColumns()}
	// SQL corner case: ungrouped aggregation over empty input yields
	// one row; the paper's pipeline treats it as a null result.
	if len(ex.stmt.GroupBy) == 0 && inputRows == 0 {
		groups = append(groups, group{rep: make(Row, ex.width), accs: make([]aggAcc, len(ex.aggs))})
		res.aggEmptyInput = true
	}

	aggVals := make([]Value, len(ex.aggs))
	var wide Row
	for gi := range groups {
		grp := &groups[gi]
		rep := grp.rep
		if rep == nil {
			wide = tp.wideInto(wide[:0], grp.tuple)
			rep = wide
		}
		for i, ag := range ex.aggs {
			aggVals[i] = grp.accs[i].final(ag.Fn)
		}
		if ex.stmt.Having != nil {
			ok, err := ex.evalBool(ex.stmt.Having, rep, aggVals)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(Row, len(ex.stmt.Items))
		for i, it := range ex.stmt.Items {
			v, err := ex.eval(it.Expr, rep, aggVals)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	if res.aggEmptyInput && len(res.Rows) == 0 {
		// Having filtered away the null row: genuinely empty.
		res.aggEmptyInput = false
	}
	return res, nil
}

// matchOutputColumn finds the select-list position an order key refers
// to, or -1.
func (ex *execution) matchOutputColumn(e Expr) int {
	if c, ok := e.(*ColumnExpr); ok && c.Table == "" {
		for i, it := range ex.stmt.Items {
			if strings.EqualFold(it.OutputName(), c.Column) {
				return i
			}
		}
	}
	es := e.String()
	for i, it := range ex.stmt.Items {
		if it.Expr.String() == es {
			return i
		}
		if c, ok := e.(*ColumnExpr); ok {
			if ic, ok2 := it.Expr.(*ColumnExpr); ok2 && strings.EqualFold(ic.Column, c.Column) &&
				(c.Table == "" || strings.EqualFold(ic.Table, c.Table)) {
				return i
			}
		}
	}
	return -1
}

// eval evaluates a scalar expression against a wide row; aggVals is
// non-nil when evaluating post-aggregation (items/having), positioned
// parallel to ex.aggs.
func (ex *execution) eval(e Expr, row Row, aggVals []Value) (Value, error) {
	switch x := e.(type) {
	case *ColumnExpr:
		slot, err := ex.slotOf(x)
		if err != nil {
			return Value{}, fmt.Errorf("unresolved column %s: %w", x, err)
		}
		return row[slot.idx], nil
	case *LiteralExpr:
		return x.Val, nil
	case *NegExpr:
		v, err := ex.eval(x.X, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		return Neg(v)
	case *AggExpr:
		if aggVals == nil {
			return Value{}, fmt.Errorf("aggregate %s outside grouping context", x)
		}
		i, ok := ex.aggPos(x)
		if !ok {
			return Value{}, fmt.Errorf("unregistered aggregate %s", x)
		}
		return aggVals[i], nil
	case *BinaryExpr:
		switch x.Op {
		case OpAnd, OpOr:
			return ex.evalLogic(x, row, aggVals)
		case OpAdd, OpSub, OpMul, OpDiv:
			l, err := ex.eval(x.L, row, aggVals)
			if err != nil {
				return Value{}, err
			}
			r, err := ex.eval(x.R, row, aggVals)
			if err != nil {
				return Value{}, err
			}
			switch x.Op {
			case OpAdd:
				return Add(l, r)
			case OpSub:
				return Sub(l, r)
			case OpMul:
				return Mul(l, r)
			default:
				return Div(l, r)
			}
		default: // comparison
			l, err := ex.eval(x.L, row, aggVals)
			if err != nil {
				return Value{}, err
			}
			r, err := ex.eval(x.R, row, aggVals)
			if err != nil {
				return Value{}, err
			}
			if l.Null || r.Null {
				return NewNull(TBool), nil
			}
			c, err := Compare(l, r)
			if err != nil {
				return Value{}, err
			}
			var b bool
			switch x.Op {
			case OpEq:
				b = c == 0
			case OpNe:
				b = c != 0
			case OpLt:
				b = c < 0
			case OpLe:
				b = c <= 0
			case OpGt:
				b = c > 0
			case OpGe:
				b = c >= 0
			}
			return NewBool(b), nil
		}
	case *NotExpr:
		v, err := ex.eval(x.X, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		if v.Null {
			return NewNull(TBool), nil
		}
		return NewBool(!v.Bool()), nil
	case *BetweenExpr:
		v, err := ex.eval(x.X, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		lo, err := ex.eval(x.Lo, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		hi, err := ex.eval(x.Hi, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		if v.Null || lo.Null || hi.Null {
			return NewNull(TBool), nil
		}
		c1, err := Compare(v, lo)
		if err != nil {
			return Value{}, err
		}
		c2, err := Compare(v, hi)
		if err != nil {
			return Value{}, err
		}
		return NewBool(c1 >= 0 && c2 <= 0), nil
	case *LikeExpr:
		v, err := ex.eval(x.X, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		if v.Null {
			return NewNull(TBool), nil
		}
		if v.Typ != TText {
			return Value{}, fmt.Errorf("like on non-text value (%s)", v.Typ)
		}
		m := LikeMatch(x.Pattern, v.S)
		if x.Not {
			m = !m
		}
		return NewBool(m), nil
	case *IsNullExpr:
		v, err := ex.eval(x.X, row, aggVals)
		if err != nil {
			return Value{}, err
		}
		b := v.Null
		if x.Not {
			b = !b
		}
		return NewBool(b), nil
	default:
		return Value{}, fmt.Errorf("unsupported expression node %T", e)
	}
}

// evalLogic implements three-valued AND/OR.
func (ex *execution) evalLogic(x *BinaryExpr, row Row, aggVals []Value) (Value, error) {
	l, err := ex.eval(x.L, row, aggVals)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit where the outcome is decided.
	if !l.Null {
		if x.Op == OpAnd && !l.Bool() {
			return NewBool(false), nil
		}
		if x.Op == OpOr && l.Bool() {
			return NewBool(true), nil
		}
	}
	r, err := ex.eval(x.R, row, aggVals)
	if err != nil {
		return Value{}, err
	}
	if x.Op == OpAnd {
		if !r.Null && !r.Bool() {
			return NewBool(false), nil
		}
		if l.Null || r.Null {
			return NewNull(TBool), nil
		}
		return NewBool(true), nil
	}
	if !r.Null && r.Bool() {
		return NewBool(true), nil
	}
	if l.Null || r.Null {
		return NewNull(TBool), nil
	}
	return NewBool(false), nil
}

// evalBool evaluates a predicate; NULL counts as false (WHERE/HAVING
// semantics).
func (ex *execution) evalBool(e Expr, row Row, aggVals []Value) (bool, error) {
	v, err := ex.eval(e, row, aggVals)
	if err != nil {
		return false, err
	}
	return !v.Null && v.Bool(), nil
}
