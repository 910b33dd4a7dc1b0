package core

import (
	"fmt"
	"strconv"
	"strings"

	"unmasque/internal/sqldb"
)

// assemble combines the extracted elements into the canonical Q_E
// statement (the paper's final pipeline module before checking).
func (s *Session) assemble() (*Extraction, error) {
	stmt := &sqldb.SelectStmt{
		Items:   s.selectItems(),
		From:    append([]string(nil), s.tables...), // database order
		Where:   sqldb.AndAll(append(s.joinConjuncts(), s.filterConjuncts()...)),
		GroupBy: s.groupByExprs(),
		Having:  sqldb.AndAll(s.havingConjuncts()),
		OrderBy: s.orderKeys(),
		Limit:   s.limit,
	}
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

// selectItems renders the projections as select items, preserving the
// application's output column order and names.
func (s *Session) selectItems() []sqldb.SelectItem {
	var out []sqldb.SelectItem
	for _, p := range s.projections {
		item := sqldb.SelectItem{Expr: p.ItemExpr()}
		if !strings.EqualFold(naturalName(item.Expr), p.OutputName) {
			item.Alias = strings.ToLower(p.OutputName)
		}
		out = append(out, item)
	}
	return out
}

// joinConjuncts renders the join edges as equality predicates.
func (s *Session) joinConjuncts() []sqldb.Expr {
	var out []sqldb.Expr
	for _, e := range s.joinEdges {
		out = append(out, sqldb.Bin(sqldb.OpEq,
			sqldb.Col(e.A.Table, e.A.Column), sqldb.Col(e.B.Table, e.B.Column)))
	}
	return out
}

// filterConjuncts renders the filters in extraction order.
func (s *Session) filterConjuncts() []sqldb.Expr {
	var out []sqldb.Expr
	for _, col := range s.filterOrder {
		out = append(out, s.filters[col].Expr())
	}
	return out
}

func (s *Session) groupByExprs() []sqldb.Expr {
	var out []sqldb.Expr
	for _, g := range s.groupBy {
		out = append(out, sqldb.Col(g.Table, g.Column))
	}
	return out
}

func (s *Session) havingConjuncts() []sqldb.Expr {
	var out []sqldb.Expr
	for _, h := range s.having {
		out = append(out, h.Expr())
	}
	return out
}

// orderKeys references output columns by their (aliased) names.
func (s *Session) orderKeys() []sqldb.OrderKey {
	var out []sqldb.OrderKey
	for _, o := range s.orderBy {
		out = append(out, sqldb.OrderKey{
			Expr: &sqldb.ColumnExpr{Column: strings.ToLower(o.OutputName)},
			Desc: o.Desc,
		})
	}
	return out
}

// phaseClause renders what a pipeline phase extracted as the SQL
// fragment it contributes to Q_E — "where customer.c_mktsegment =
// 'BUILDING'" for the filters — so that a job's trace shows each
// clause without a debug build. It is "" when the phase found nothing,
// and ok is false for phases that extract no clause.
func (s *Session) phaseClause(phase string) (clause string, ok bool) {
	var parts []string
	add := func(keyword, body string) {
		if body != "" {
			parts = append(parts, keyword+" "+body)
		}
	}
	switch phase {
	case "from-clause":
		add("from", strings.Join(s.tables, ", "))
	case "join-graph":
		add("where", joinStrings(s.joinConjuncts(), " and "))
	case "filters", "disjunctions":
		add("where", joinStrings(s.filterConjuncts(), " and "))
	case "filters+having":
		add("where", joinStrings(s.filterConjuncts(), " and "))
		add("having", joinStrings(s.havingConjuncts(), " and "))
	case "projection", "aggregation":
		add("select", joinStrings(s.selectItems(), ", "))
	case "group-by":
		add("group by", joinStrings(s.groupByExprs(), ", "))
	case "order-by":
		add("order by", joinStrings(s.orderKeys(), ", "))
	case "limit":
		if s.limit > 0 {
			add("limit", strconv.FormatInt(s.limit, 10))
		}
	default:
		return "", false
	}
	return strings.Join(parts, " "), true
}

// joinStrings renders each element and joins them with sep.
func joinStrings[T fmt.Stringer](xs []T, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, sep)
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
