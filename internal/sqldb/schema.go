package sqldb

import (
	"fmt"
	"strings"
	"time"
)

// Column describes one column of a table, including the domain
// metadata the extractor's filter probing needs (value spread for
// numerics/dates, precision for fixed-point floats, and maximum length
// for character data).
type Column struct {
	Name string
	Type Type

	// Precision is the number of decimal digits for TFloat columns
	// (fixed-precision numeric, as in the paper). Zero means the
	// engine default of 2.
	Precision int

	// MaxLen bounds TText values; zero means the default of 64.
	MaxLen int

	// MinInt/MaxInt give the domain spread [i_min, i_max] for TInt,
	// TFloat (integral part) and TDate (days since epoch) columns.
	// Zero values fall back to engine-wide defaults.
	MinInt int64
	MaxInt int64
}

// Engine-wide domain defaults, chosen wide enough for every workload
// while keeping binary searches short.
const (
	DefaultMinInt    = -1 << 40
	DefaultMaxInt    = 1 << 40
	DefaultPrecision = 2
	DefaultMaxLen    = 64
)

// defaultDateMinDays/defaultDateMaxDays bound the default date domain
// [1900-01-01, 2099-12-31] in days since the Unix epoch. They are
// computed from calendar arithmetic at init, so the library path
// through DomainMin/DomainMax carries no panic (lint rule GL001).
var (
	defaultDateMinDays = epochDays(1900, time.January, 1)
	defaultDateMaxDays = epochDays(2099, time.December, 31)
)

// epochDays converts a calendar date to days since the Unix epoch.
func epochDays(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(dateEpoch) / (24 * time.Hour))
}

// DomainMin returns the lower end of the column's value spread.
func (c Column) DomainMin() int64 {
	if c.MinInt == 0 && c.MaxInt == 0 {
		if c.Type == TDate {
			return defaultDateMinDays
		}
		return DefaultMinInt
	}
	return c.MinInt
}

// DomainMax returns the upper end of the column's value spread.
func (c Column) DomainMax() int64 {
	if c.MinInt == 0 && c.MaxInt == 0 {
		if c.Type == TDate {
			return defaultDateMaxDays
		}
		return DefaultMaxInt
	}
	return c.MaxInt
}

// FloatPrecision returns the effective decimal precision.
func (c Column) FloatPrecision() int {
	if c.Precision <= 0 {
		return DefaultPrecision
	}
	return c.Precision
}

// TextMaxLen returns the effective maximum text length.
func (c Column) TextMaxLen() int {
	if c.MaxLen <= 0 {
		return DefaultMaxLen
	}
	return c.MaxLen
}

// ForeignKey records one key-connecting edge of the schema graph: a
// column in the owning table referencing a column of another table.
// Both PK-FK and FK-FK linkages are expressed this way.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// TableSchema is the full definition of one table.
type TableSchema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
}

// Clone returns a deep copy of the schema.
func (s TableSchema) Clone() TableSchema {
	out := TableSchema{Name: s.Name}
	out.Columns = append([]Column(nil), s.Columns...)
	out.PrimaryKey = append([]string(nil), s.PrimaryKey...)
	out.ForeignKeys = append([]ForeignKey(nil), s.ForeignKeys...)
	return out
}

// ColumnIndex returns the index of the named column, or -1.
func (s TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column definition.
func (s TableSchema) Column(name string) (Column, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, fmt.Errorf("table %s has no column %s", s.Name, name)
	}
	return s.Columns[i], nil
}

// IsKey reports whether the named column participates in the primary
// key or any foreign-key linkage of this table.
func (s TableSchema) IsKey(name string) bool {
	for _, k := range s.PrimaryKey {
		if strings.EqualFold(k, name) {
			return true
		}
	}
	for _, fk := range s.ForeignKeys {
		if strings.EqualFold(fk.Column, name) {
			return true
		}
	}
	return false
}

// ColRef names a column of a specific table; the schema graph and the
// extractor's join graph both use this as the vertex identity.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// Less imposes a deterministic ordering on column references.
func (c ColRef) Less(o ColRef) bool {
	if c.Table != o.Table {
		return c.Table < o.Table
	}
	return c.Column < o.Column
}

// SchemaEdge is one undirected key-connecting edge of the schema
// graph.
type SchemaEdge struct {
	A, B ColRef
}

// Canonical returns the edge with endpoints in deterministic order.
func (e SchemaEdge) Canonical() SchemaEdge {
	if e.B.Less(e.A) {
		return SchemaEdge{A: e.B, B: e.A}
	}
	return e
}

func (e SchemaEdge) String() string { return e.A.String() + "=" + e.B.String() }

// SchemaGraph is the column-granularity graph of all semantically
// valid key linkages (PK-FK edges declared on tables, plus the FK-FK
// edges they imply: two foreign keys referencing the same column are
// joinable with each other).
type SchemaGraph struct {
	Edges []SchemaEdge
}

// BuildSchemaGraph derives the schema graph from a set of table
// schemas. FK-FK edges are added between any two columns referencing
// the same target column, as the paper's join scope includes them.
func BuildSchemaGraph(schemas []TableSchema) SchemaGraph {
	var g SchemaGraph
	seen := map[string]bool{}
	add := func(a, b ColRef) {
		e := SchemaEdge{A: a, B: b}.Canonical()
		if a == b || seen[e.String()] {
			return
		}
		seen[e.String()] = true
		g.Edges = append(g.Edges, e)
	}
	// Group all columns that reference (directly) a given target;
	// together with the target itself they form a joinable cluster.
	clusters := map[ColRef][]ColRef{}
	for _, s := range schemas {
		for _, fk := range s.ForeignKeys {
			target := ColRef{Table: strings.ToLower(fk.RefTable), Column: strings.ToLower(fk.RefColumn)}
			src := ColRef{Table: strings.ToLower(s.Name), Column: strings.ToLower(fk.Column)}
			clusters[target] = append(clusters[target], src)
		}
	}
	for target, srcs := range clusters {
		for i, a := range srcs {
			add(a, target)
			for _, b := range srcs[i+1:] {
				add(a, b)
			}
		}
	}
	return g
}

// EdgesWithin returns the edges of the graph whose endpoints both lie
// in tables from the given set (lower-cased names).
func (g SchemaGraph) EdgesWithin(tables map[string]bool) []SchemaEdge {
	var out []SchemaEdge
	for _, e := range g.Edges {
		if tables[e.A.Table] && tables[e.B.Table] {
			out = append(out, e)
		}
	}
	return out
}
