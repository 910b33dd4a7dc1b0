package core

import (
	"fmt"
	"strings"

	"unmasque/internal/sqldb"
)

// assemble combines the extracted elements into the canonical Q_E
// statement (the paper's final pipeline module before checking).
func (s *Session) assemble() (*Extraction, error) {
	stmt := &sqldb.SelectStmt{}

	// Projections, preserving the application's output column order
	// and names.
	for _, p := range s.projections {
		item := sqldb.SelectItem{Expr: p.ItemExpr()}
		natural := naturalName(item.Expr)
		if !strings.EqualFold(natural, p.OutputName) {
			item.Alias = strings.ToLower(p.OutputName)
		}
		stmt.Items = append(stmt.Items, item)
	}

	// From: the detected tables in database order.
	stmt.From = append(stmt.From, s.tables...)

	// Where: join predicates then filters, in deterministic order.
	var conjuncts []sqldb.Expr
	for _, e := range s.joinEdges {
		conjuncts = append(conjuncts, sqldb.Bin(sqldb.OpEq,
			sqldb.Col(e.A.Table, e.A.Column), sqldb.Col(e.B.Table, e.B.Column)))
	}
	for _, col := range s.filterOrder {
		conjuncts = append(conjuncts, s.filters[col].Expr())
	}
	stmt.Where = sqldb.AndAll(conjuncts)

	// Group by.
	for _, g := range s.groupBy {
		stmt.GroupBy = append(stmt.GroupBy, sqldb.Col(g.Table, g.Column))
	}

	// Having.
	var havingConj []sqldb.Expr
	for _, h := range s.having {
		havingConj = append(havingConj, h.Expr())
	}
	stmt.Having = sqldb.AndAll(havingConj)

	// Order by: reference output columns by their (aliased) names.
	for _, o := range s.orderBy {
		stmt.OrderBy = append(stmt.OrderBy, sqldb.OrderKey{
			Expr: &sqldb.ColumnExpr{Column: strings.ToLower(o.OutputName)},
			Desc: o.Desc,
		})
	}
	stmt.Limit = s.limit

	if err := s.validateAssembly(stmt); err != nil {
		return nil, err
	}

	return &Extraction{
		Query:          stmt,
		SQL:            stmt.String(),
		Tables:         append([]string(nil), s.tables...),
		JoinPredicates: append([]sqldb.SchemaEdge(nil), s.joinEdges...),
		Filters:        s.filterList(),
		Projections:    append([]Projection(nil), s.projections...),
		GroupBy:        append([]sqldb.ColRef(nil), s.groupBy...),
		Having:         append([]HavingPredicate(nil), s.having...),
		OrderBy:        append([]OrderItem(nil), s.orderBy...),
		Limit:          s.limit,
		UngroupedAgg:   s.ungroupedAgg,
	}, nil
}

// filterList flattens the filter map in extraction order.
func (s *Session) filterList() []FilterPredicate {
	out := make([]FilterPredicate, 0, len(s.filterOrder))
	for _, col := range s.filterOrder {
		out = append(out, s.filters[col])
	}
	return out
}

// naturalName is the output name an expression would get without an
// alias.
func naturalName(e sqldb.Expr) string {
	return sqldb.SelectItem{Expr: e}.OutputName()
}

// validateAssembly executes Q_E against the minimized database and
// compares with the application baseline — a cheap smoke test before
// the full checker.
func (s *Session) validateAssembly(stmt *sqldb.SelectStmt) error {
	got, err := s.executeStmt(stmt, s.silo)
	if err != nil {
		return fmt.Errorf("assembled query does not execute: %w", err)
	}
	if !got.EqualUnordered(s.baseline) {
		return fmt.Errorf("assembled query disagrees with the application on D_1:\napp: %v\nQ_E: %v", s.baseline.Rows, got.Rows)
	}
	return nil
}

// executeStmt runs an assembled statement under execTimeout.
func (s *Session) executeStmt(stmt *sqldb.SelectStmt, db *sqldb.Database) (*sqldb.Result, error) {
	ctx, cancel := probeContext(execTimeout)
	defer cancel()
	return db.Execute(ctx, stmt)
}
