package core

import (
	"fmt"

	"unmasque/internal/sqldb"
)

// extractOrderBy recovers the ordered result columns (Section 5.3).
// Keys are discovered left to right: at each position a candidate
// output column is tested with a pair of two-row-per-table instances,
// D_same (every free output ascends together) and D_rev (the
// candidate alone descends). Outputs already ordered (S_1) are tied
// via common argument values, so the candidate's consistency across
// both results exposes whether it drives the sort at this position,
// and in which direction.
func (s *Session) extractOrderBy() error {
	if s.ungroupedAgg && len(s.groupBy) == 0 {
		return nil // single-row results carry no observable order
	}
	// Candidates: every output whose value we can steer. Count-style
	// outputs are included via group-size steering (the paper defers
	// them to its technical report); constants cannot order anything.
	var candidates []int
	for oi, p := range s.projections {
		if p.Constant {
			continue
		}
		candidates = append(candidates, oi)
	}
	inS1 := map[int]bool{}
	for len(s.orderBy) < len(candidates) {
		if s.groupByCovered(inS1) {
			break // remaining keys cannot reorder distinct groups
		}
		found := false
		for _, oi := range candidates {
			if inS1[oi] {
				continue
			}
			desc, ok, err := s.orderProbe(oi, inS1)
			if err != nil {
				return fmt.Errorf("output %q: %w", s.projections[oi].OutputName, err)
			}
			if ok {
				s.orderBy = append(s.orderBy, OrderItem{
					OutputIndex: oi,
					OutputName:  s.projections[oi].OutputName,
					Desc:        desc,
				})
				inS1[oi] = true
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	return nil
}

// groupByCovered reports whether every group-by column is already
// determined by the ordered outputs (functional coverage), making
// further order keys unobservable and semantically redundant.
func (s *Session) groupByCovered(inS1 map[int]bool) bool {
	if len(s.groupBy) == 0 {
		return false
	}
	covered := map[sqldb.ColRef]bool{}
	for oi := range inS1 {
		p := s.projections[oi]
		if !p.IsIdentity() {
			continue // only identity outputs pin a grouping column
		}
		d := p.Deps[0]
		covered[d] = true
		if comp := s.componentOf(d); comp != nil {
			for _, c := range comp.cols {
				covered[c] = true
			}
		}
	}
	for _, g := range s.groupBy {
		if !covered[g] {
			return false
		}
	}
	return true
}

// orderProbe runs the D_same / D_rev pair for one candidate.
// Value-carrying outputs are steered through their argument columns;
// count-style outputs are steered through group sizes.
func (s *Session) orderProbe(candidate int, inS1 map[int]bool) (desc, isKey bool, err error) {
	build := s.buildOrderInstance
	if p := s.projections[candidate]; p.CountStar || p.Agg == sqldb.AggCount {
		if len(s.groupBy) == 0 {
			return false, false, nil // ungrouped count: single row, no order
		}
		build = s.buildCountOrderInstance
	}
	same, err := build(candidate, inS1, false)
	if err != nil {
		return false, false, err
	}
	if same == nil {
		return false, false, nil // construction not applicable
	}
	rev, err := build(candidate, inS1, true)
	if err != nil {
		return false, false, err
	}
	resSame, err := s.run(nil, same)
	if err != nil {
		return false, false, err
	}
	resRev, err := s.run(nil, rev)
	if err != nil {
		return false, false, err
	}
	if !resSame.Populated() || !resRev.Populated() {
		return false, false, nil
	}
	dirSame := columnDirection(resSame.Column(candidate))
	dirRev := columnDirection(resRev.Column(candidate))
	if dirSame == 0 || dirSame != dirRev {
		return false, false, nil
	}
	return dirSame < 0, true, nil
}

// columnDirection classifies a value sequence: +1 non-decreasing, -1
// non-increasing (each with at least one strict step), 0 otherwise.
func columnDirection(vals []sqldb.Value) int {
	up, down := false, false
	for i := 1; i < len(vals); i++ {
		c, err := sqldb.Compare(vals[i-1], vals[i])
		if err != nil {
			return 0
		}
		if c < 0 {
			up = true
		}
		if c > 0 {
			down = true
		}
	}
	switch {
	case up && !down:
		return 1
	case down && !up:
		return -1
	default:
		return 0
	}
}

// buildOrderInstance constructs the two-row-per-table instance. Every
// join component tied to an S_1 output carries the constant key 1;
// all other components carry keys (1,2). S_1 argument columns take a
// common value; every other output's arguments take a pair of values
// making the output ascend from row 1 to row 2 — except the
// candidate's in the reversed instance.
func (s *Session) buildOrderInstance(candidate int, inS1 map[int]bool, reverse bool) (*sqldb.Database, error) {
	d := s.newDgen()
	for _, t := range s.tables {
		d.setRows(t, 2)
	}

	// Classify join components: pinned when any S_1 output depends on
	// them; flipped when the candidate output is key-driven and this
	// is the reversed instance (component keys are the only way to
	// steer such outputs).
	pinnedComp := map[int]bool{}
	for oi := range inS1 {
		for _, dep := range s.projections[oi].Deps {
			if ci, ok := s.compOf[dep]; ok {
				pinnedComp[ci] = true
			}
		}
	}
	flipComp := -1
	if reverse {
		for _, dep := range s.projections[candidate].Deps {
			if ci, ok := s.compOf[dep]; ok && !pinnedComp[ci] {
				flipComp = ci
				break
			}
		}
	}
	for ci := range s.components {
		keys := []int64{1, 2}
		switch {
		case pinnedComp[ci]:
			keys = []int64{1, 1}
		case ci == flipComp:
			keys = []int64{2, 1}
		}
		d.setComponentKeys(&s.components[ci], keys, d.rowsOfFn())
	}

	handled := map[sqldb.ColRef]bool{}
	for _, comp := range s.components {
		for _, c := range comp.cols {
			handled[c] = true
		}
	}

	// Tie the S_1 outputs' arguments first (they must not vary), then
	// steer the candidate (so a dependency it shares with another
	// output is flipped under the candidate's control), then the
	// remaining outputs.
	for oi, p := range s.projections {
		if p.Constant || p.CountStar || !inS1[oi] {
			continue
		}
		for _, dep := range p.Deps {
			if handled[dep] {
				continue
			}
			v, err := s.sValue(dep, 0)
			if err != nil {
				return nil, err
			}
			d.setConst(dep, v, 2)
			handled[dep] = true
		}
	}
	order := append([]int{candidate}, otherIndices(len(s.projections), candidate)...)
	for _, oi := range order {
		p := s.projections[oi]
		if p.Constant || p.CountStar || inS1[oi] {
			continue
		}
		if err := s.steerOutput(d, &p, handled, reverse && oi == candidate); err != nil {
			return nil, err
		}
	}

	// Remaining free columns: a pair of distinct values keeps unseen
	// grouping columns separating the two rows.
	for _, col := range s.allColumns() {
		if handled[col] || s.inJoinGraph(col) {
			continue
		}
		if _, ok := d.vals[col]; ok {
			continue
		}
		v1, v2, ok, err := s.sValuePair(col)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // pinned: default constant applies
		}
		if c, cerr := sqldb.Compare(v1, v2); cerr == nil && c > 0 {
			v1, v2 = v2, v1
		}
		d.set(col, v1, v2)
	}
	return s.materialize(d)
}

// buildCountOrderInstance steers a count-type candidate through
// group sizes: three input rows form two groups of sizes (1,2) in
// D_same and (2,1) in D_rev, so the count column ascends in one
// instance and descends in the other unless the query genuinely sorts
// by it. The group split is driven by one free grouping column (or a
// grouped join component, in the Case-2 shape); other outputs follow
// the same two-group alignment. Returns nil when no suitable driver
// exists (all grouping columns pinned).
func (s *Session) buildCountOrderInstance(candidate int, inS1 map[int]bool, reverse bool) (*sqldb.Database, error) {
	// Pick the group-split driver: prefer a non-key grouping column.
	var driver sqldb.ColRef
	haveDriver := false
	for _, g := range s.groupBy {
		if !s.inJoinGraph(g) && !s.eqFiltered(g) {
			if _, _, ok, err := s.sValuePair(g); err == nil && ok {
				driver, haveDriver = g, true
				break
			}
		}
	}
	var comp *joinComponent
	if !haveDriver {
		for _, g := range s.groupBy {
			if c := s.componentOf(g); c != nil {
				comp = c
				break
			}
		}
		if comp == nil {
			return nil, nil
		}
	}

	d := s.newDgen()
	sizes := []int{1, 2} // group sizes in D_same
	if reverse {
		sizes = []int{2, 1}
	}
	var driverTable string
	if haveDriver {
		driverTable = driver.Table
		d.setRows(driverTable, 3)
		v1, v2, _, err := s.sValuePair(driver)
		if err != nil {
			return nil, err
		}
		vals := make([]sqldb.Value, 0, 3)
		for g, size := range sizes {
			v := v1
			if g == 1 {
				v = v2
			}
			for i := 0; i < size; i++ {
				vals = append(vals, v)
			}
		}
		d.set(driver, vals...)
	} else {
		// Case-2 shape: the component's first table carries the 3-row
		// size split via its key; connected tables carry both keys.
		driverTable = comp.cols[0].Table
		d.setRows(driverTable, 3)
		for t := range comp.tablesOf() {
			if t != driverTable {
				d.setRows(t, 2)
			}
		}
		keyPattern := []int64{1, 2, 2}
		if reverse {
			keyPattern = []int64{1, 1, 2}
		}
		for _, c := range comp.cols {
			if c.Table == driverTable {
				d.set(c, sqldb.NewInt(keyPattern[0]), sqldb.NewInt(keyPattern[1]), sqldb.NewInt(keyPattern[2]))
			} else {
				d.set(c, sqldb.NewInt(1), sqldb.NewInt(2))
			}
		}
	}

	// Align every other varying output with the two-group split so
	// any true value key sorts both instances consistently: group 1
	// gets the smaller value.
	handled := map[sqldb.ColRef]bool{}
	if haveDriver {
		handled[driver] = true
	} else {
		for _, c := range comp.cols {
			handled[c] = true
		}
	}
	rowsOf := d.rowsOfFn()
	for oi, p := range s.projections {
		if oi == candidate || p.Constant || p.CountStar || p.Agg == sqldb.AggCount {
			continue
		}
		for _, dep := range p.Deps {
			if handled[dep] || s.inJoinGraph(dep) {
				continue
			}
			n := rowsOf(dep.Table)
			if inS1[oi] {
				v, err := s.sValue(dep, 0)
				if err != nil {
					return nil, err
				}
				d.setConst(dep, v, n)
				handled[dep] = true
				continue
			}
			v1, v2, ok, err := s.sValuePair(dep)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if c, cerr := sqldb.Compare(v1, v2); cerr == nil && c > 0 {
				v1, v2 = v2, v1
			}
			vals := make([]sqldb.Value, n)
			if n == 3 && dep.Table == driverTable {
				for g, size := range sizes {
					v := v1
					if g == 1 {
						v = v2
					}
					idx := 0
					if g == 1 {
						idx = sizes[0]
					}
					for i := 0; i < size; i++ {
						vals[idx+i] = v
					}
				}
			} else {
				for i := range vals {
					if i == 0 {
						vals[i] = v1
					} else {
						vals[i] = v2
					}
				}
			}
			d.set(dep, vals...)
			handled[dep] = true
		}
	}
	return s.materialize(d)
}

// otherIndices lists 0..n-1 without skip.
func otherIndices(n, skip int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}

// steerOutput assigns the output's argument columns so its value
// ascends row1→row2 (or descends when flip is set). Only the first
// unpinned, un-handled dependency varies; the rest stay constant.
func (s *Session) steerOutput(d *dgen, p *Projection, handled map[sqldb.ColRef]bool, flip bool) error {
	varyIdx := -1
	for i, dep := range p.Deps {
		if handled[dep] {
			continue
		}
		if _, _, ok, err := s.sValuePair(dep); err == nil && ok {
			varyIdx = i
			break
		}
	}
	if varyIdx < 0 {
		// All arguments pinned or key-driven: the output follows the
		// component keys (identity over a key) or stays tied.
		for _, dep := range p.Deps {
			if handled[dep] {
				continue
			}
			v, err := s.sValue(dep, 0)
			if err != nil {
				return err
			}
			d.setConst(dep, v, 2)
			handled[dep] = true
		}
		return nil
	}
	vcol := p.Deps[varyIdx]
	v1, v2, _, err := s.sValuePair(vcol)
	if err != nil {
		return err
	}
	// Pin the other deps and compute the induced output direction.
	others := make([]sqldb.Value, len(p.Deps))
	for i, dep := range p.Deps {
		if i == varyIdx {
			continue
		}
		var v sqldb.Value
		if handled[dep] {
			v, err = s.componentProbeValue(d, dep)
		} else {
			v, err = s.sValue(dep, 0)
			if err == nil {
				d.setConst(dep, v, 2)
				handled[dep] = true
			}
		}
		if err != nil {
			return err
		}
		others[i] = v
	}
	ascFirst := v1
	ascSecond := v2
	if o1, o2, ok := pairOutputs(p, varyIdx, others, v1, v2); ok {
		if o1 > o2 {
			ascFirst, ascSecond = v2, v1
		}
	} else if c, cerr := sqldb.Compare(v1, v2); cerr == nil && c > 0 {
		ascFirst, ascSecond = v2, v1
	}
	if flip {
		ascFirst, ascSecond = ascSecond, ascFirst
	}
	d.set(vcol, ascFirst, ascSecond)
	handled[vcol] = true
	return nil
}

// componentProbeValue reports the value a handled (component) column
// already has in the instance's first row.
func (s *Session) componentProbeValue(d *dgen, col sqldb.ColRef) (sqldb.Value, error) {
	if vals, ok := d.vals[col]; ok && len(vals) > 0 {
		return vals[0], nil
	}
	return sqldb.NewInt(1), nil
}

// pairOutputs evaluates the function at the two candidate values of
// the varied argument; ok is false when any argument is non-numeric,
// in which case value ordering applies directly (identity functions
// on text/date are monotone).
func pairOutputs(p *Projection, varyIdx int, others []sqldb.Value, v1, v2 sqldb.Value) (float64, float64, bool) {
	if len(p.Coeffs) != 1<<len(p.Deps) {
		return 0, 0, false
	}
	if v1.Null || v2.Null || !v1.Typ.IsNumeric() || !v2.Typ.IsNumeric() {
		return 0, 0, false
	}
	xs := make([]float64, len(p.Deps))
	for i := range p.Deps {
		if i == varyIdx {
			continue
		}
		v := others[i]
		if v.Null || !v.Typ.IsNumeric() {
			return 0, 0, false
		}
		xs[i] = v.AsFloat()
	}
	xs[varyIdx] = v1.AsFloat()
	o1 := evalMultilinear(p.Coeffs, xs)
	xs[varyIdx] = v2.AsFloat()
	o2 := evalMultilinear(p.Coeffs, xs)
	return o1, o2, true
}
