package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
	"unmasque/internal/storage"
	"unmasque/internal/workloads/registry"
)

// JobSpec describes one extraction job. Exactly one of the two modes
// must be used:
//
//   - Workload mode: App names a registered application
//     ("tpch/Q3", "enki/posts_by_tag", …) whose executable and
//     database the workload registry builds.
//   - Inline mode: Tables carries the schema and rows of the database
//     instance and SQL the hidden query, which is wrapped in an
//     app.SQLExecutable (obfuscated at rest, like every other hidden
//     query in the repo).
type JobSpec struct {
	// App is the registered application name (workload mode).
	App string `json:"app,omitempty"`

	// Name labels an inline job (defaults to "inline").
	Name string `json:"name,omitempty"`
	// Tables is the inline database instance.
	Tables []TableSpec `json:"tables,omitempty"`
	// SQL is the inline hidden query.
	SQL string `json:"sql,omitempty"`

	// Seed drives data generation and extraction randomness
	// (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Having selects the Section 7 pipeline. Registered applications
	// that registry.Entry.Having marks run it regardless.
	Having bool `json:"having,omitempty"`
	// Workers overrides the per-extraction probe worker pool (0 =
	// pipeline default).
	Workers int `json:"workers,omitempty"`
}

// TableSpec is one inline table: schema plus row data.
type TableSpec struct {
	Name        string       `json:"name"`
	Columns     []ColumnSpec `json:"columns"`
	PrimaryKey  []string     `json:"primary_key,omitempty"`
	ForeignKeys []FKSpec     `json:"foreign_keys,omitempty"`
	// Rows are field strings in the engine's CSV literal syntax,
	// parsed against the column types (sqldb.ParseValue).
	Rows [][]string `json:"rows,omitempty"`
}

// ColumnSpec is one inline column definition.
type ColumnSpec struct {
	Name string `json:"name"`
	// Type is int, float, text, date or bool.
	Type string `json:"type"`
	// Min/Max bound the probing domain for int/float/date columns
	// (zero = engine default).
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// MaxLen bounds text values (zero = engine default).
	MaxLen int `json:"max_len,omitempty"`
	// Precision is the decimal-digit count of float columns.
	Precision int `json:"precision,omitempty"`
}

// FKSpec is one inline foreign-key edge.
type FKSpec struct {
	Column    string `json:"column"`
	RefTable  string `json:"ref_table"`
	RefColumn string `json:"ref_column"`
}

// DisplayName is the label the job is reported under: the registered
// application name, or the inline name.
func (sp JobSpec) DisplayName() string {
	if sp.App != "" {
		return sp.App
	}
	if sp.Name != "" {
		return sp.Name
	}
	return "inline"
}

// CacheKey is the durable probe-cache namespace of the job: two specs
// share a namespace exactly when they run the same executable against
// the same generated-data seed, so a fingerprint hit is guaranteed to
// describe the same (E, database) pair. Workload jobs key on the
// registered application name plus seed; inline jobs on a digest of
// their table payload and hidden SQL plus seed. Knobs that change how
// the extraction is driven but not what E computes — Name, Workers,
// Having — deliberately do not contribute: jobs differing only in
// those reuse each other's probe outcomes.
func (sp JobSpec) CacheKey() string {
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	if sp.App != "" {
		return storage.AppNamespace(sp.App, seed)
	}
	// Specs are built from decoded JSON, so re-encoding cannot fail;
	// appending the SQL separately keeps the executable's identity in
	// the key even if it somehow did.
	enc, _ := json.Marshal(struct {
		Tables []TableSpec `json:"tables"`
		SQL    string      `json:"sql"`
	}{sp.Tables, sp.SQL})
	sum := sha256.Sum256(append(enc, sp.SQL...))
	return fmt.Sprintf("inline/%x#seed=%d", sum[:12], seed)
}

// Validate checks the spec for structural errors without building
// anything: a bad spec must be rejected at admission, not discovered
// by a worker.
func (sp JobSpec) Validate() error {
	inline := len(sp.Tables) > 0 || sp.SQL != ""
	switch {
	case sp.App == "" && !inline:
		return fmt.Errorf("spec: either app or tables+sql required")
	case sp.App != "" && inline:
		return fmt.Errorf("spec: app and inline tables/sql are mutually exclusive")
	case sp.App != "":
		if _, ok := registry.Lookup(sp.App); !ok {
			return fmt.Errorf("spec: unknown application %q", sp.App)
		}
		return nil
	}
	if len(sp.Tables) == 0 {
		return fmt.Errorf("spec: inline job has no tables")
	}
	if strings.TrimSpace(sp.SQL) == "" {
		return fmt.Errorf("spec: inline job has no hidden sql")
	}
	for _, t := range sp.Tables {
		if t.Name == "" {
			return fmt.Errorf("spec: table with empty name")
		}
		if len(t.Columns) == 0 {
			return fmt.Errorf("spec: table %s has no columns", t.Name)
		}
		for _, c := range t.Columns {
			if _, err := columnType(c.Type); err != nil {
				return fmt.Errorf("spec: table %s column %s: %w", t.Name, c.Name, err)
			}
		}
		for i, r := range t.Rows {
			if len(r) != len(t.Columns) {
				return fmt.Errorf("spec: table %s row %d has %d fields, want %d",
					t.Name, i, len(r), len(t.Columns))
			}
		}
	}
	return nil
}

// Materialize builds the executable and database instance the job
// extracts from. The spec must have passed Validate.
func (sp JobSpec) Materialize() (app.Executable, *sqldb.Database, error) {
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	if sp.App != "" {
		return registry.Build(sp.App, seed)
	}
	db := sqldb.NewDatabase()
	for _, t := range sp.Tables {
		schema, err := t.schema()
		if err != nil {
			return nil, nil, err
		}
		if err := db.CreateTable(schema); err != nil {
			return nil, nil, fmt.Errorf("spec: table %s: %w", t.Name, err)
		}
		for i, r := range t.Rows {
			vals := make([]sqldb.Value, len(r))
			for j, field := range r {
				v, err := sqldb.ParseValue(schema.Columns[j].Type, field)
				if err != nil {
					return nil, nil, fmt.Errorf("spec: table %s row %d column %s: %w",
						t.Name, i, schema.Columns[j].Name, err)
				}
				vals[j] = v
			}
			if err := db.Insert(t.Name, vals...); err != nil {
				return nil, nil, fmt.Errorf("spec: table %s row %d: %w", t.Name, i, err)
			}
		}
	}
	exe, err := app.NewSQLExecutable(sp.DisplayName(), sp.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("spec: hidden sql: %w", err)
	}
	return exe, db, nil
}

// schema converts the inline table spec to an engine schema.
func (t TableSpec) schema() (sqldb.TableSchema, error) {
	out := sqldb.TableSchema{Name: t.Name, PrimaryKey: t.PrimaryKey}
	for _, c := range t.Columns {
		typ, err := columnType(c.Type)
		if err != nil {
			return sqldb.TableSchema{}, err
		}
		out.Columns = append(out.Columns, sqldb.Column{
			Name:      c.Name,
			Type:      typ,
			MinInt:    c.Min,
			MaxInt:    c.Max,
			MaxLen:    c.MaxLen,
			Precision: c.Precision,
		})
	}
	for _, fk := range t.ForeignKeys {
		out.ForeignKeys = append(out.ForeignKeys, sqldb.ForeignKey{
			Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn,
		})
	}
	return out, nil
}

// columnType parses the wire column-type name.
func columnType(name string) (sqldb.Type, error) {
	switch strings.ToLower(name) {
	case "int":
		return sqldb.TInt, nil
	case "float":
		return sqldb.TFloat, nil
	case "text":
		return sqldb.TText, nil
	case "date":
		return sqldb.TDate, nil
	case "bool":
		return sqldb.TBool, nil
	default:
		return 0, fmt.Errorf("unknown column type %q (want int|float|text|date|bool)", name)
	}
}
