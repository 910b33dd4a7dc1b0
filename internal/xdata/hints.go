package xdata

import (
	"sort"

	"unmasque/internal/sqldb"
)

// This file exports the pieces of the constraint analysis that the
// bounded equivalence checker (internal/analysis/eqcequiv) builds its
// instance enumerator on: which columns join, and the per-column
// "interesting" values — the predicate boundaries plus their violating
// neighbours — that partition a column's domain into the equivalence
// classes the enumeration ranges over.

// JoinCols returns every column participating in the candidate's join
// graph, in deterministic order.
func (a *Analysis) JoinCols() []sqldb.ColRef {
	out := make([]sqldb.ColRef, 0, len(a.compOf))
	for c := range a.compOf {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// BoundaryValues returns the deterministic list of interesting values
// for a column: in-range values (two distinct ones when the domain
// allows), each constraint bound itself, and the violating neighbour
// just outside each bound. Unconstrained columns get the two default
// in-range values. The list is deduplicated and order-stable, so an
// enumeration built on it is reproducible run to run.
func (a *Analysis) BoundaryValues(col sqldb.ColRef) ([]sqldb.Value, error) {
	def, err := a.Schemas[col.Table].Column(col.Column)
	if err != nil {
		return nil, err
	}
	var vals []sqldb.Value
	for variant := 0; variant < 2; variant++ {
		v, err := a.SatisfyingValue(col, variant)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	one := sqldb.NewInt(1)
	if c := a.cons[col]; c != nil {
		if c.hasLo {
			vals = append(vals, c.lo)
			if v, err := sqldb.Sub(c.lo, one); err == nil {
				vals = append(vals, coerceNumeric(def, v))
			}
		}
		if c.hasHi {
			vals = append(vals, c.hi)
			if v, err := sqldb.Add(c.hi, one); err == nil {
				vals = append(vals, coerceNumeric(def, v))
			}
		}
		if c.hasLike {
			// A near-miss for LIKE patterns: first mandatory character
			// flipped, as in the Generate boundary instances.
			if mqs := sqldb.StripPercent(c.like); len(mqs) > 0 {
				vals = append(vals, sqldb.NewText("x"+mqs[1:]))
			}
		}
		for _, s := range c.segments {
			vals = append(vals, coerceNumeric(def, s.lo), coerceNumeric(def, s.hi))
			if v, err := sqldb.Sub(s.lo, one); err == nil {
				vals = append(vals, coerceNumeric(def, v))
			}
			if v, err := sqldb.Add(s.hi, one); err == nil {
				vals = append(vals, coerceNumeric(def, v))
			}
		}
		for _, t := range c.textIn {
			vals = append(vals, sqldb.NewText(t))
		}
	}
	if v, ok, err := a.ViolatingValue(col); err == nil && ok {
		vals = append(vals, v)
	}
	return dedupeValues(vals), nil
}

// dedupeValues removes duplicates while preserving first-seen order.
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
