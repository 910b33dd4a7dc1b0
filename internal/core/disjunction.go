package core

import (
	"fmt"
	"sort"

	"unmasque/internal/sqldb"
)

// Disjunction extraction — the Section 9 future-work extension
// ("disjunctions ... could eventually be extracted under some
// restrictions"). After the conjunctive filter pass, every candidate
// column is re-examined:
//
//   - numeric/date columns: a fixed-resolution grid scan over the
//     domain classifies each probe point as satisfying or not; runs of
//     satisfying points become candidate intervals whose edges are
//     pinned by local binary searches between adjacent grid points of
//     opposite polarity. More than one interval replaces the
//     conjunctive range with a FilterDisjRange.
//   - text columns: the distinct values of the source column (plus
//     the D_1 value) are enumerated and probed; a satisfying set not
//     explained by the extracted equality/LIKE predicate becomes a
//     FilterTextIn.
//
// Restrictions (documented, checker-guarded): intervals narrower than
// domain/disjunctionScanPoints can escape the scan, and strings never
// observed in D_I cannot be enumerated; the checker's initial-instance
// comparison rejects extractions that miss such residuals.
func (s *Session) refineDisjunctions() error {
	if !s.cfg.ExtractDisjunction {
		return nil
	}
	for _, col := range s.allColumns() {
		if s.isKeyColumn(col) || s.inJoinGraph(col) {
			continue
		}
		def, err := s.column(col)
		if err != nil {
			return err
		}
		switch def.Type {
		case sqldb.TInt, sqldb.TDate, sqldb.TFloat:
			if err := s.refineNumericDisjunction(col, def); err != nil {
				return fmt.Errorf("column %s: %w", col, err)
			}
		case sqldb.TText:
			if err := s.refineTextDisjunction(col); err != nil {
				return fmt.Errorf("column %s: %w", col, err)
			}
		}
	}
	return nil
}

// refineNumericDisjunction scans one numeric column for interval
// unions.
func (s *Session) refineNumericDisjunction(col sqldb.ColRef, def sqldb.Column) error {
	scale := numericScale(def)
	gMin := def.DomainMin() * scale
	gMax := def.DomainMax() * scale
	points := int64(disjunctionScanPoints)
	if gMax-gMin < 2 {
		return nil // degenerate domain: nothing beyond the range pass
	}
	step := (gMax - gMin) / points
	if step < 1 {
		step = 1
	}

	// Scan the grid (always including both domain edges).
	type probePt struct {
		g   int64
		pop bool
	}
	var pts []probePt
	for g := gMin; ; g += step {
		if g > gMax {
			g = gMax
		}
		pop, err := s.valueProbe(nil, col, gridValue(def, g, scale))
		if err != nil {
			return err
		}
		pts = append(pts, probePt{g: g, pop: pop})
		if g == gMax {
			break
		}
	}

	// Collapse into satisfying runs with refined edges.
	var segments []ValueRange
	i := 0
	for i < len(pts) {
		if !pts[i].pop {
			i++
			continue
		}
		runStart, runEnd := i, i
		for runEnd+1 < len(pts) && pts[runEnd+1].pop {
			runEnd++
		}
		lo := pts[runStart].g
		if runStart > 0 {
			// The true edge lies in (pts[runStart-1].g, lo]; binary
			// search for the smallest satisfying grid value.
			g, err := s.searchLowerBound(nil, col, def, scale, pts[runStart-1].g+1, lo)
			if err != nil {
				return err
			}
			lo = g
		}
		hi := pts[runEnd].g
		if runEnd+1 < len(pts) {
			g, err := s.searchUpperBound(nil, col, def, scale, hi, pts[runEnd+1].g-1)
			if err != nil {
				return err
			}
			hi = g
		}
		segments = append(segments, ValueRange{
			Lo: gridValue(def, lo, scale),
			Hi: gridValue(def, hi, scale),
		})
		i = runEnd + 1
	}

	switch {
	case len(segments) <= 1:
		return nil // conjunctive pass already covers 0/1 intervals
	default:
		sort.Slice(segments, func(a, b int) bool {
			c, _ := sqldb.Compare(segments[a].Lo, segments[b].Lo)
			return c < 0
		})
		s.setFilter(col, FilterPredicate{Col: col, Kind: FilterDisjRange, Segments: segments})
		return nil
	}
}

// refineTextDisjunction enumerates candidate strings and replaces an
// equality with an IN-set when several distinct values satisfy.
func (s *Session) refineTextDisjunction(col sqldb.ColRef) error {
	existing, hasFilter := s.filters[col]
	base, err := s.d1Value(col)
	if err != nil || base.Null {
		return err
	}
	candidates := map[string]bool{base.S: true}
	for _, v := range s.sourceAlternatives(col, base, 24) {
		if v.Typ == sqldb.TText {
			candidates[v.S] = true
		}
	}
	var satisfying []string
	for v := range candidates {
		pop, err := s.valueProbe(nil, col, sqldb.NewText(v))
		if err != nil {
			return err
		}
		if pop {
			satisfying = append(satisfying, v)
		}
	}
	sort.Strings(satisfying)
	if len(satisfying) <= 1 {
		return nil // the conjunctive pass (eq / like / none) stands
	}
	if !hasFilter {
		// The existence probes both passed, so the column carries no
		// predicate; several satisfying candidates are expected.
		return nil
	}
	if existing.Kind == FilterLike {
		// A pattern predicate naturally admits many values; keep it
		// unless some satisfying value escapes the pattern (evidence
		// of a genuine disjunction).
		allMatch := true
		for _, v := range satisfying {
			if !sqldb.LikeMatch(existing.Pattern, v) {
				allMatch = false
				break
			}
		}
		if allMatch {
			return nil
		}
	}
	s.setFilter(col, FilterPredicate{Col: col, Kind: FilterTextIn, InSet: satisfying})
	return nil
}

// setFilter installs or replaces the predicate for a column, keeping
// filterOrder stable.
func (s *Session) setFilter(col sqldb.ColRef, f FilterPredicate) {
	if _, ok := s.filters[col]; !ok {
		s.filterOrder = append(s.filterOrder, col)
	}
	s.filters[col] = f
}
