package eqcequiv

import (
	"fmt"
	"sort"
	"strings"

	"unmasque/internal/sqldb"
	"unmasque/internal/xdata"
)

// The instance enumerator materializes every canonical database of up
// to k rows per table over the "interesting" value domains derived
// from the two queries' constraint analyses. Canonical means: row
// multisets are generated in one fixed order (no permutations of the
// same multiset), primary keys are unique, and foreign keys reference
// rows that exist — databases violating the schema's integrity
// constraints are never visited, and neither are two databases that
// differ only by row order.

// maxTemplatesPerTable caps the per-table row-template space. When the
// cartesian product of column domains exceeds it, the tail is dropped
// and the enumeration can no longer prove equivalence (only find
// counterexamples), which the checker reports as Exhausted.
const maxTemplatesPerTable = 512

type fkEdge struct {
	colIdx    int // column index in the child table
	parentTab int // index into enumerator.tables
	parentCol int // column index in the parent table
}

type tableEnum struct {
	schema    sqldb.TableSchema
	templates [][]sqldb.Value
	pk        []int // column indexes of the primary key
	fks       []fkEdge

	// required marks tables in BOTH queries' from clauses. An
	// instance leaving such a table empty makes both inner-join
	// queries unpopulated — they trivially agree — so the enumeration
	// prunes the whole subtree without evaluating anything.
	required bool
}

type enumerator struct {
	tables []tableEnum // foreign-key topological order: parents first
	bound  int
	capped bool // template space truncated: proofs impossible
}

// colDomain classifies a column and returns its value domain. hints
// carries extra must-include values (aggregate boundaries from having
// clauses) that the predicate analysis alone cannot see. capped
// reports that the domain was truncated to maxVals — interesting
// values were dropped, so an enumeration over it can still find
// counterexamples but can no longer prove equivalence.
func colDomain(ref sqldb.ColRef, def sqldb.Column, analyses []*xdata.Analysis, diff map[sqldb.ColRef]bool, hints []sqldb.Value, isKey bool, bound, maxVals int) (vals []sqldb.Value, capped bool, err error) {
	covering := func() []*xdata.Analysis {
		var out []*xdata.Analysis
		for _, a := range analyses {
			if _, ok := a.Schemas[ref.Table]; ok {
				out = append(out, a)
			}
		}
		return out
	}()
	if len(covering) == 0 {
		return nil, false, fmt.Errorf("eqcequiv: table %s not analyzed", ref.Table)
	}
	isJoin := false
	for _, a := range covering {
		for _, jc := range a.JoinCols() {
			if jc == ref {
				isJoin = true
			}
		}
	}
	if isJoin || isKey {
		vals = append(vals, keyDomain(def, bound)...)
	}
	switch {
	case diff[ref]:
		vals = append(vals, hints...)
		for _, a := range covering {
			bv, err := a.BoundaryValues(ref)
			if err != nil {
				return nil, false, err
			}
			vals = append(vals, bv...)
		}
		vals = dedupeValues(vals)
		if len(vals) > maxVals {
			vals = vals[:maxVals]
			capped = true
		}
	case isJoin || isKey:
		// Key domain only: enough rows to join and to violate nothing.
	default:
		v, err := covering[0].SatisfyingValue(ref, 0)
		if err != nil {
			return nil, false, err
		}
		vals = append(vals, v)
	}
	return dedupeValues(vals), capped, nil
}

// keyDomain yields bound distinct typed key values; joined columns on
// both sides of an equi-join draw from this same pool, so matching
// rows exist in the enumeration.
func keyDomain(def sqldb.Column, bound int) []sqldb.Value {
	out := make([]sqldb.Value, 0, bound)
	for i := 1; i <= bound; i++ {
		switch def.Type {
		case sqldb.TText:
			out = append(out, sqldb.NewText(fmt.Sprintf("k%d", i)))
		case sqldb.TFloat:
			out = append(out, sqldb.NewFloat(float64(i)))
		case sqldb.TDate:
			out = append(out, sqldb.NewDate(int64(i)))
		case sqldb.TBool:
			if i <= 2 {
				out = append(out, sqldb.NewBool(i == 1))
			}
		default:
			out = append(out, sqldb.NewInt(int64(i)))
		}
	}
	return out
}

// dedupeValues removes duplicates preserving first-seen order.
func dedupeValues(vals []sqldb.Value) []sqldb.Value {
	seen := map[string]bool{}
	out := vals[:0]
	for _, v := range vals {
		k := v.GroupKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// buildEnumerator derives the per-table template spaces for the union
// of both queries' from clauses.
func buildEnumerator(analyses []*xdata.Analysis, schemas []sqldb.TableSchema, diff map[sqldb.ColRef]bool, hints map[sqldb.ColRef][]sqldb.Value, opt Options) (*enumerator, error) {
	byName := map[string]sqldb.TableSchema{}
	for _, s := range schemas {
		byName[strings.ToLower(s.Name)] = s
	}
	nameSet := map[string]bool{}
	seenIn := map[string]int{}
	for _, a := range analyses {
		inThis := map[string]bool{}
		for _, t := range a.Tables {
			nameSet[t] = true
			if !inThis[t] {
				inThis[t] = true
				seenIn[t]++
			}
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	names = fkTopoOrder(names, byName)

	e := &enumerator{bound: opt.Bound}
	idxOf := map[string]int{}
	for i, n := range names {
		idxOf[n] = i
	}
	for _, n := range names {
		sch := byName[n]
		te := tableEnum{schema: sch, required: seenIn[n] == len(analyses)}
		for _, pk := range sch.PrimaryKey {
			if i := sch.ColumnIndex(pk); i >= 0 {
				te.pk = append(te.pk, i)
			}
		}
		for _, fk := range sch.ForeignKeys {
			pi, ok := idxOf[strings.ToLower(fk.RefTable)]
			if !ok {
				continue // parent not enumerated: constraint vacuous here
			}
			ci := sch.ColumnIndex(fk.Column)
			pc := byName[strings.ToLower(fk.RefTable)].ColumnIndex(fk.RefColumn)
			if ci >= 0 && pc >= 0 {
				te.fks = append(te.fks, fkEdge{colIdx: ci, parentTab: pi, parentCol: pc})
			}
		}
		isKey := map[string]bool{}
		for _, pk := range sch.PrimaryKey {
			isKey[strings.ToLower(pk)] = true
		}
		for _, fk := range sch.ForeignKeys {
			isKey[strings.ToLower(fk.Column)] = true
		}
		domains := make([][]sqldb.Value, len(sch.Columns))
		for i, col := range sch.Columns {
			ref := sqldb.ColRef{Table: n, Column: strings.ToLower(col.Name)}
			d, capped, err := colDomain(ref, col, analyses, diff, hints[ref], isKey[strings.ToLower(col.Name)], opt.Bound, opt.MaxColumnValues)
			if err != nil {
				return nil, err
			}
			if capped {
				e.capped = true
			}
			if len(d) == 0 {
				return nil, fmt.Errorf("eqcequiv: empty domain for %s.%s", n, col.Name)
			}
			domains[i] = d
		}
		te.templates = cartesian(domains, maxTemplatesPerTable)
		if full := product(domains); full > maxTemplatesPerTable {
			e.capped = true
		}
		e.tables = append(e.tables, te)
	}
	return e, nil
}

func product(domains [][]sqldb.Value) int {
	p := 1
	for _, d := range domains {
		p *= len(d)
		if p > maxTemplatesPerTable {
			return p
		}
	}
	return p
}

// cartesian expands column domains into row templates, lexicographic
// in domain index order, truncated at limit.
func cartesian(domains [][]sqldb.Value, limit int) [][]sqldb.Value {
	idx := make([]int, len(domains))
	var out [][]sqldb.Value
	for {
		row := make([]sqldb.Value, len(domains))
		for i, d := range domains {
			row[i] = d[idx[i]]
		}
		out = append(out, row)
		if len(out) >= limit {
			return out
		}
		// Odometer increment, last column fastest.
		i := len(domains) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(domains[i]) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// fkTopoOrder sorts table names parents-first along foreign-key
// edges (deterministic Kahn's algorithm; name order breaks ties).
// Cycles fall back to name order for the remainder.
func fkTopoOrder(names []string, byName map[string]sqldb.TableSchema) []string {
	inSet := map[string]bool{}
	for _, n := range names {
		inSet[n] = true
	}
	// children[p] = tables with an FK into p.
	deps := map[string]map[string]bool{} // child -> parents pending
	for _, n := range names {
		deps[n] = map[string]bool{}
		for _, fk := range byName[n].ForeignKeys {
			p := strings.ToLower(fk.RefTable)
			if inSet[p] && p != n {
				deps[n][p] = true
			}
		}
	}
	var out []string
	done := map[string]bool{}
	for len(out) < len(names) {
		progressed := false
		for _, n := range names {
			if done[n] {
				continue
			}
			ready := true
			for p := range deps[n] {
				if !done[p] {
					ready = false
					break
				}
			}
			if ready {
				out = append(out, n)
				done[n] = true
				progressed = true
			}
		}
		if !progressed {
			for _, n := range names {
				if !done[n] {
					out = append(out, n)
					done[n] = true
				}
			}
		}
	}
	return out
}

// instance is one enumerated database: per-table multisets of
// template indexes.
type instance struct {
	rows [][]int // rows[t] = chosen template indexes for table t
}

// enumerate visits canonical instances in ascending total-row order,
// calling visit for each; visit returns stop to end the walk early
// (counterexample found) and charges one unit of budget per call.
// The return reports whether the walk covered the full bounded space
// (false when stopped early, the budget ran out, or templates were
// capped).
func (e *enumerator) enumerate(budget int, visit func(db *sqldb.Database) (bool, error)) (complete bool, visited int, err error) {
	maxTotal := e.bound * len(e.tables)
	chosen := make([][]int, len(e.tables))
	stopped := false
	for total := 0; total <= maxTotal && !stopped; total++ {
		stop, err := e.compose(0, total, chosen, &budget, &visited, visit)
		if err != nil {
			return false, visited, err
		}
		if stop {
			stopped = true
		}
	}
	return !stopped && !e.capped, visited, nil
}

// compose distributes `remaining` rows over tables[t:], then visits.
func (e *enumerator) compose(t, remaining int, chosen [][]int, budget, visited *int, visit func(db *sqldb.Database) (bool, error)) (bool, error) {
	if t == len(e.tables) {
		if *budget <= 0 {
			return true, nil
		}
		*budget--
		*visited++
		return visit(e.materialize(chosen))
	}
	rest := e.bound * (len(e.tables) - t - 1)
	lo := remaining - rest
	if lo < 0 {
		lo = 0
	}
	if e.tables[t].required && lo < 1 {
		lo = 1
	}
	hi := remaining
	if hi > e.bound {
		hi = e.bound
	}
	allowed := e.allowedTemplates(t, chosen)
	for s := lo; s <= hi; s++ {
		if len(allowed) == 0 && s > 0 {
			continue
		}
		stop, err := e.chooseMultiset(t, allowed, s, 0, nil, chosen, func() (bool, error) {
			return e.compose(t+1, remaining-s, chosen, budget, visited, visit)
		})
		if err != nil || stop {
			return stop, err
		}
	}
	return false, nil
}

// allowedTemplates filters table t's templates to those whose foreign
// keys reference rows already chosen for parent tables (parents come
// earlier in topo order).
func (e *enumerator) allowedTemplates(t int, chosen [][]int) []int {
	te := e.tables[t]
	var out []int
	for i, tpl := range te.templates {
		ok := true
		for _, fk := range te.fks {
			if fk.parentTab >= t {
				continue // forward or self edge: not enforceable here
			}
			found := false
			for _, pi := range chosen[fk.parentTab] {
				pv := e.tables[fk.parentTab].templates[pi][fk.parentCol]
				if tpl[fk.colIdx].GroupKey() == pv.GroupKey() {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// chooseMultiset picks s templates for table t as a non-decreasing
// index sequence over allowed (strictly increasing when a primary key
// forbids repeated rows), rejecting primary-key collisions, then
// calls then().
func (e *enumerator) chooseMultiset(t int, allowed []int, s, startPos int, pkSeen []string, chosen [][]int, then func() (bool, error)) (bool, error) {
	if s == 0 {
		return then()
	}
	te := e.tables[t]
	for pos := startPos; pos < len(allowed); pos++ {
		idx := allowed[pos]
		var pkKey string
		if len(te.pk) > 0 {
			pk := make(sqldb.Row, len(te.pk))
			for i, ci := range te.pk {
				pk[i] = te.templates[idx][ci]
			}
			pkKey = sqldb.RowKey(pk)
			dup := false
			for _, k := range pkSeen {
				if k == pkKey {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		next := pos
		if len(te.pk) > 0 {
			next = pos + 1 // repetition would always collide on the key
		}
		chosen[t] = append(chosen[t], idx)
		seen := pkSeen
		if len(te.pk) > 0 {
			seen = append(seen, pkKey)
		}
		stop, err := e.chooseMultiset(t, allowed, s-1, next, seen, chosen, then)
		chosen[t] = chosen[t][:len(chosen[t])-1]
		if err != nil || stop {
			return stop, err
		}
	}
	return false, nil
}

// materialize builds the chosen instance as a database.
func (e *enumerator) materialize(chosen [][]int) *sqldb.Database {
	db := sqldb.NewDatabase()
	for t, te := range e.tables {
		// CreateTable cannot fail here: schemas are distinct by name.
		_ = db.CreateTable(te.schema)
		for _, idx := range chosen[t] {
			_ = db.Insert(te.schema.Name, te.templates[idx]...)
		}
	}
	return db
}
