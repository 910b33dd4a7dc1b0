package core

import (
	"fmt"
	"math"
	"strings"

	"unmasque/internal/sqldb"
)

// extractLimit recovers l_E (Section 5.4) by generating instances
// whose pre-limit result cardinality follows a geometric progression
// (a, a·r, a·r², …): the first run returning fewer rows than
// generated reveals the limit. The progression is bounded above by
// l_max, the maximum number of distinct groups the grouping columns
// can produce under their domain and filter restrictions, and by the
// limitMax cap (beyond which the query is concluded unlimited).
func (s *Session) extractLimit() error {
	if s.ungroupedAgg && len(s.groupBy) == 0 {
		return nil // single-row results can never exhibit a limit
	}
	lmax := s.limitCeiling()
	n := limitStart
	if base := s.baseline.RowCount(); base >= n {
		n = base + 1 // a = max(4, |R_I|) in spirit: start above what we saw
	}
	for {
		if n > lmax {
			n = lmax
		}
		m, generated, err := s.limitProbe(n)
		if err != nil {
			return err
		}
		if m > 0 && m < generated {
			if m < 3 {
				return fmt.Errorf("observed cutoff %d below the EQC minimum limit of 3", m)
			}
			s.limit = int64(m)
			return nil
		}
		if n >= lmax || n >= limitMax {
			return nil // no limit within the probe ceiling
		}
		n *= limitRatio
		if n > limitMax {
			n = limitMax
		}
	}
}

// limitCeiling computes l_max: with no grouping the pre-limit
// cardinality is unbounded; with grouping it is capped by the product
// of the distinct-value capacities of the functionally independent
// grouping columns (the n1·n2·n3·… bound of Section 5.4).
func (s *Session) limitCeiling() int {
	if len(s.groupBy) == 0 {
		return limitMax
	}
	prod := 1
	for _, g := range s.groupBy {
		c := s.columnCapacity(g)
		if c <= 0 {
			c = 1
		}
		if prod >= limitMax/c {
			return limitMax
		}
		prod *= c
	}
	if prod > limitMax {
		prod = limitMax
	}
	return prod
}

// columnCapacity estimates how many distinct s-values a grouping
// column can take.
func (s *Session) columnCapacity(col sqldb.ColRef) int {
	if s.inJoinGraph(col) {
		return limitMax // keys are unbounded positive integers
	}
	def, err := s.column(col)
	if err != nil {
		return 1
	}
	switch def.Type {
	case sqldb.TBool:
		return 2
	case sqldb.TText:
		f, ok := s.filters[col]
		if ok && f.Kind == FilterTextIn {
			return len(f.InSet)
		}
		if !ok {
			// Bounded by what the s-value generator can distinctly
			// produce within the column length.
			return freshStringCapacity(def.TextMaxLen(), limitMax)
		}
		if f.Kind == FilterTextEq {
			return 1
		}
		// A '%' wildcard lets the variant marker expand within the
		// remaining length budget; a '_'-only pattern cycles through
		// 26 variants (all underscores shift together).
		for i := 0; i < len(f.Pattern); i++ {
			if f.Pattern[i] == '%' {
				headroom := def.TextMaxLen() - len(sqldb.StripPercent(f.Pattern))
				return freshStringCapacity(headroom, limitMax)
			}
		}
		if strings.ContainsRune(f.Pattern, '_') {
			return 26
		}
		return 1
	default:
		scale := numericScale(def)
		lo, hi := def.DomainMin()*scale, def.DomainMax()*scale
		if f, ok := s.filters[col]; ok {
			if f.Kind == FilterDisjRange {
				total := int64(0)
				for _, seg := range f.Segments {
					total += scaleFloat(seg.Hi.AsFloat(), scale) - scaleFloat(seg.Lo.AsFloat(), scale) + 1
					if total > int64(limitMax) {
						return limitMax
					}
				}
				return int(total)
			}
			if f.HasLo {
				lo = scaleFloat(f.Lo.AsFloat(), scale)
			}
			if f.HasHi {
				hi = scaleFloat(f.Hi.AsFloat(), scale)
			}
		}
		span := hi - lo + 1
		if span <= 0 {
			return 1
		}
		if span > int64(limitMax) {
			return limitMax
		}
		return int(span)
	}
}

// limitProbe generates an instance whose pre-limit result holds at
// least n rows and returns (observed, generated) cardinalities.
// Tables not connected by any join edge multiply the SPJ cardinality,
// so each of g disconnected table groups only needs ~n^(1/g) rows —
// without this, a cross-product query would force n² generated rows.
func (s *Session) limitProbe(n int) (int, int, error) {
	groups := s.disconnectedTableGroups()
	rowsPer := n
	if groups > 1 {
		rowsPer = int(math.Ceil(math.Pow(float64(n), 1/float64(groups))))
		if rowsPer < 2 {
			rowsPer = 2
		}
	}
	generated := 1
	for i := 0; i < groups; i++ {
		generated *= rowsPer
	}
	n = rowsPer
	d := s.newDgen()
	for _, t := range s.tables {
		d.setRows(t, n)
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i + 1)
	}
	for ci := range s.components {
		d.setComponentKeys(&s.components[ci], keys, d.rowsOfFn())
	}
	// Assign the grouping columns a mixed-radix enumeration of their
	// value spaces so every row lands in a distinct group: column j
	// takes variant (i / prod(cap_0..cap_{j-1})) mod cap_j.
	divisor := 1
	for _, g := range s.groupBy {
		if s.inJoinGraph(g) {
			continue // component keys 1..n already separate groups
		}
		cap := s.columnCapacity(g)
		if cap <= 0 {
			cap = 1
		}
		vals := make([]sqldb.Value, n)
		for i := 0; i < n; i++ {
			v, err := s.sValue(g, (i/divisor)%cap)
			if err != nil {
				return 0, 0, err
			}
			vals[i] = v
		}
		d.set(g, vals...)
		if divisor <= limitMax/cap {
			divisor *= cap
		} else {
			divisor = limitMax
		}
	}
	// With no grouping at all, vary one arbitrary free column so rows
	// are distinguishable (not required for cardinality, but keeps
	// order-by results deterministic).
	db, err := s.materialize(d)
	if err != nil {
		return 0, 0, err
	}
	res, err := s.run(nil, db)
	if err != nil {
		return 0, 0, err
	}
	if !res.Populated() {
		return 0, 0, fmt.Errorf("limit probe with %d rows lost the populated result", n)
	}
	return res.RowCount(), generated, nil
}

// disconnectedTableGroups counts the connected components of the
// extracted tables under the join graph (a table touched by no join
// column forms its own group).
func (s *Session) disconnectedTableGroups() int {
	parent := map[string]string{}
	var find func(t string) string
	find = func(t string) string {
		if parent[t] == t {
			return t
		}
		root := find(parent[t])
		parent[t] = root
		return root
	}
	for _, t := range s.tables {
		parent[t] = t
	}
	for _, comp := range s.components {
		tables := comp.tablesOf()
		var first string
		for t := range tables {
			if first == "" {
				first = t
				continue
			}
			ra, rb := find(first), find(t)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	groups := map[string]bool{}
	for _, t := range s.tables {
		groups[find(t)] = true
	}
	return len(groups)
}
