package core

import (
	"fmt"
	"sort"

	"unmasque/internal/sqldb"
)

// mutationUnit is the atomic thing the projection module can change:
// either one join component (all of whose columns must change
// together to preserve joins) or a single non-join column.
type mutationUnit struct {
	rep  sqldb.ColRef   // deterministic representative
	cols []sqldb.ColRef // every column mutated together
	comp bool           // true when the unit is a join component
}

// mutationUnits enumerates the units in deterministic order.
func (s *Session) mutationUnits() []mutationUnit {
	var units []mutationUnit
	for i := range s.components {
		comp := &s.components[i]
		units = append(units, mutationUnit{rep: comp.cols[0], cols: comp.cols, comp: true})
	}
	for _, col := range s.allColumns() {
		if s.inJoinGraph(col) {
			continue
		}
		units = append(units, mutationUnit{rep: col, cols: []sqldb.ColRef{col}})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].rep.Less(units[j].rep) })
	return units
}

// extractProjections recovers the scalar function behind every output
// column (Section 4.5): dependency lists by single-unit mutation on
// D_1 (two rounds with re-randomized s-values to defeat coincidental
// zero-sensitivity points), then coefficient identification by
// solving a multi-linear system over grid probes.
func (s *Session) extractProjections() error {
	if s.baseline.RowCount() != 1 {
		return fmt.Errorf("E(D_1) has %d rows, want 1; the hidden query is outside EQC-H", s.baseline.RowCount())
	}
	outputs := s.baseline.Columns
	units := s.mutationUnits()

	deps := make([]map[sqldb.ColRef]mutationUnit, len(outputs))
	for i := range deps {
		deps[i] = map[sqldb.ColRef]mutationUnit{}
	}

	// Two detection rounds. Round 0 runs against D_1 as-is; round 1
	// re-randomizes every mutable column first so that a coincidental
	// value (e.g. B=0 masking O=A*B's dependence on A) cannot hide a
	// dependency in both rounds.
	for round := 0; round < 2; round++ {
		base := s.cloneD1()
		if round == 1 {
			if err := s.rerandomize(base, 17+round); err != nil {
				return err
			}
		}
		baseRes, err := s.run(nil, base)
		if err != nil {
			return err
		}
		if !baseRes.Populated() || baseRes.RowCount() != 1 {
			if round == 1 {
				continue // re-randomized instance degenerated; round 0 stands
			}
			return fmt.Errorf("baseline probe lost the populated result")
		}
		// Per-unit probes are independent (each mutates its own clone
		// of base), so they fan out over the worker pool; the probe
		// results are interpreted afterwards in unit order.
		type unitProbe struct {
			changed bool
			res     *sqldb.Result
		}
		probes := make([]unitProbe, len(units))
		err = s.parallelFor(len(units), func(pc *probeCtx, i int) error {
			mut, changed, err := s.mutateUnit(base, units[i], 29+round*13)
			if err != nil {
				return err
			}
			if !changed {
				return nil // pinned unit: cannot influence detection
			}
			res, err := s.run(pc, mut)
			if err != nil {
				return err
			}
			probes[i] = unitProbe{changed: true, res: res}
			return nil
		})
		if err != nil {
			return err
		}
		for ui, u := range units {
			pr := probes[ui]
			if !pr.changed {
				continue
			}
			if !pr.res.Populated() || pr.res.RowCount() != 1 {
				// A unit mutation must not empty the result (s-values
				// keep all predicates satisfied); joins are preserved
				// component-wise. Treat defensively as no signal.
				continue
			}
			for oi := range outputs {
				if !sqldb.ApproxEqual(pr.res.Rows[0][oi], baseRes.Rows[0][oi]) {
					deps[oi][u.rep] = u
				}
			}
		}
	}

	s.projections = make([]Projection, len(outputs))
	for oi, name := range outputs {
		var depUnits []mutationUnit
		for _, u := range deps[oi] {
			depUnits = append(depUnits, u)
		}
		sort.Slice(depUnits, func(i, j int) bool { return depUnits[i].rep.Less(depUnits[j].rep) })
		p, err := s.identifyFunction(name, oi, depUnits)
		if err != nil {
			return fmt.Errorf("output %q: %w", name, err)
		}
		s.projections[oi] = p
	}
	return nil
}

// rerandomize assigns fresh s-values to every non-join column of db
// (variant-keyed), leaving pinned columns alone.
func (s *Session) rerandomize(db *sqldb.Database, variant int) error {
	for _, col := range s.allColumns() {
		if s.inJoinGraph(col) {
			continue
		}
		v, err := s.sValue(col, variant)
		if err != nil {
			// Pinned column (single s-value): keep current value.
			continue
		}
		tbl, err := db.Table(col.Table)
		if err != nil {
			return err
		}
		if err := tbl.SetAll(col.Column, v); err != nil {
			return err
		}
	}
	return nil
}

// mutateUnit clones db and moves the unit to a different s-value;
// changed=false when the unit is pinned.
func (s *Session) mutateUnit(db *sqldb.Database, u mutationUnit, variant int) (*sqldb.Database, bool, error) {
	out := db.Clone()
	if u.comp {
		// Fresh positive key on every column of the component.
		cur, err := s.d1Value(u.rep)
		if err != nil {
			return nil, false, err
		}
		nv := int64(variant)
		if !cur.Null && cur.Typ == sqldb.TInt && cur.I == nv {
			nv++
		}
		for _, c := range u.cols {
			tbl, err := out.Table(c.Table)
			if err != nil {
				return nil, false, err
			}
			if err := tbl.SetAll(c.Column, sqldb.NewInt(nv)); err != nil {
				return nil, false, err
			}
		}
		return out, true, nil
	}
	col := u.rep
	tbl, err := out.Table(col.Table)
	if err != nil {
		return nil, false, err
	}
	cur, err := tbl.Get(0, col.Column)
	if err != nil {
		return nil, false, err
	}
	for k := 0; k < 8; k++ {
		v, err := s.sValue(col, variant+k)
		if err != nil {
			return nil, false, nil // pinned
		}
		if !sqldb.Equal(v, cur) {
			if err := tbl.SetAll(col.Column, v); err != nil {
				return nil, false, err
			}
			return out, true, nil
		}
	}
	return nil, false, nil
}

// maxFunctionArity bounds the multi-linear solver; the paper presents
// two-column functions, we extend to three.
const maxFunctionArity = 3

// identifyFunction computes the scalar function for one output.
func (s *Session) identifyFunction(name string, oi int, depUnits []mutationUnit) (Projection, error) {
	p := Projection{OutputName: name}
	if len(depUnits) == 0 {
		// Unmapped output: count(*) or a constant; the aggregation
		// module settles which.
		p.Constant = true
		p.ConstVal = s.baseline.Rows[0][oi]
		return p, nil
	}
	for _, u := range depUnits {
		p.Deps = append(p.Deps, u.rep)
	}

	// Non-numeric dependencies: only identity (text, bool) or a
	// day-offset affine (date) are in scope.
	defs := make([]sqldb.Column, len(depUnits))
	for i, u := range depUnits {
		def, err := s.column(u.rep)
		if err != nil {
			return p, err
		}
		defs[i] = def
	}
	if len(depUnits) == 1 {
		switch defs[0].Type {
		case sqldb.TText, sqldb.TBool:
			return s.identifyIdentity(p, oi, depUnits[0])
		case sqldb.TDate:
			return s.identifyDateAffine(p, oi, depUnits[0])
		}
	}
	for _, d := range defs {
		if d.Type != sqldb.TInt && d.Type != sqldb.TFloat {
			return p, fmt.Errorf("multi-column function over non-numeric column %s is outside the extractable class", d.Name)
		}
	}
	if len(depUnits) > maxFunctionArity {
		return p, fmt.Errorf("function depends on %d columns; solver supports up to %d", len(depUnits), maxFunctionArity)
	}
	return s.identifyMultilinear(p, oi, depUnits)
}

// identifyIdentity verifies O == A on two probes.
func (s *Session) identifyIdentity(p Projection, oi int, u mutationUnit) (Projection, error) {
	for k := 0; k < 2; k++ {
		db, changed, err := s.mutateUnit(s.silo, u, 41+k*7)
		if err != nil {
			return p, err
		}
		if !changed {
			break
		}
		res, err := s.run(nil, db)
		if err != nil {
			return p, err
		}
		tbl, err := db.Table(u.rep.Table)
		if err != nil {
			return p, err
		}
		v, err := tbl.Get(0, u.rep.Column)
		if err != nil {
			return p, err
		}
		if res.RowCount() != 1 || !sqldb.ApproxEqual(res.Rows[0][oi], v) {
			return p, fmt.Errorf("non-identity function over column %s is outside the extractable class", u.rep)
		}
	}
	p.Coeffs = []float64{0, 1}
	return p, nil
}

// identifyDateAffine identifies O = A + d (d in days) and verifies
// the offset on a second probe.
func (s *Session) identifyDateAffine(p Projection, oi int, u mutationUnit) (Projection, error) {
	var offset int64
	for k := 0; k < 2; k++ {
		db, changed, err := s.mutateUnit(s.silo, u, 43+k*11)
		if err != nil {
			return p, err
		}
		if !changed {
			if k == 0 {
				return p, fmt.Errorf("date column %s is pinned; cannot identify function", u.rep)
			}
			break
		}
		res, err := s.run(nil, db)
		if err != nil {
			return p, err
		}
		tbl, err := db.Table(u.rep.Table)
		if err != nil {
			return p, err
		}
		v, err := tbl.Get(0, u.rep.Column)
		if err != nil {
			return p, err
		}
		o := res.Rows[0][oi]
		if o.Null || o.Typ != sqldb.TDate || v.Null {
			return p, fmt.Errorf("non-affine date function on %s is outside the extractable class", u.rep)
		}
		d := o.I - v.I
		if k == 0 {
			offset = d
		} else if d != offset {
			return p, fmt.Errorf("inconsistent date offsets (%d vs %d) on %s", offset, d, u.rep)
		}
	}
	p.Coeffs = []float64{float64(offset), 1}
	return p, nil
}

// identifyMultilinear solves for the 2^n multi-linear coefficients
// over a full {v0,v1}^n probe grid; the tensor-product structure
// guarantees linear independence, realizing the paper's "four
// linearly independent vectors" requirement deterministically.
func (s *Session) identifyMultilinear(p Projection, oi int, depUnits []mutationUnit) (Projection, error) {
	n := len(depUnits)
	pairs := make([][2]sqldb.Value, n)
	for i, u := range depUnits {
		v1, v2, ok, err := s.sValuePair(u.rep)
		if err != nil {
			return p, err
		}
		if !ok {
			return p, fmt.Errorf("dependency %s is pinned; cannot identify coefficients", u.rep)
		}
		pairs[i] = [2]sqldb.Value{v1, v2}
	}

	// The 2^n corner probes are independent (each builds its own D_1
	// clone), so the grid fans out over the worker pool; the system is
	// assembled positionally, so the solve sees the same matrix for
	// every worker count.
	rows := 1 << n
	matrix := make([][]float64, rows)
	rhs := make([]float64, rows)
	err := s.parallelFor(rows, func(pc *probeCtx, corner int) error {
		db := s.cloneD1()
		xs := make([]float64, n)
		for i, u := range depUnits {
			v := pairs[i][(corner>>i)&1]
			xs[i] = v.AsFloat()
			for _, c := range u.cols {
				tbl, err := db.Table(c.Table)
				if err != nil {
					return err
				}
				if err := tbl.SetAll(c.Column, v); err != nil {
					return err
				}
			}
		}
		res, err := s.run(pc, db)
		if err != nil {
			return err
		}
		if res.RowCount() != 1 {
			return fmt.Errorf("function probe returned %d rows, want 1", res.RowCount())
		}
		o := res.Rows[0][oi]
		if o.Null || !o.Typ.IsNumeric() {
			return fmt.Errorf("output %q is not numeric under numeric dependencies", p.OutputName)
		}
		rhs[corner] = o.AsFloat()
		row := make([]float64, rows)
		for mask := 0; mask < rows; mask++ {
			term := 1.0
			for bit := 0; bit < n; bit++ {
				if mask&(1<<bit) != 0 {
					term *= xs[bit]
				}
			}
			row[mask] = term
		}
		matrix[corner] = row
		return nil
	})
	if err != nil {
		return p, err
	}
	coeffs, err := solveLinearSystem(matrix, rhs)
	if err != nil {
		return p, fmt.Errorf("coefficient solve: %w", err)
	}
	snapCoefficients(coeffs)
	p.Coeffs = coeffs
	return p, nil
}
