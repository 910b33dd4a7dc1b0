package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrNoSuchTable is returned (wrapped) when a query or API call
// references a table that does not exist. The extractor's from-clause
// probe relies on this error being raised immediately.
var ErrNoSuchTable = errors.New("no such table")

// Database is an in-memory collection of named tables plus the schema
// graph over them. All access is guarded by a single RW mutex; the
// workloads and extractor are sequential, so contention is not a
// concern, but the lock keeps concurrent benches safe.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string // creation order, for deterministic iteration

	estats *EngineStats // engine counters, shared with every clone
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: map[string]*Table{}, estats: &EngineStats{}}
}

// newLike creates an empty database sharing db's engine counters —
// the base of every clone flavour. Clones never inherit build-side
// state: each table starts with an empty cache.
func (db *Database) newLike() *Database {
	return &Database{tables: map[string]*Table{}, estats: db.estats}
}

// CreateTable adds a new empty table.
func (db *Database) CreateTable(schema TableSchema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := strings.ToLower(schema.Name)
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("table %s already exists", name)
	}
	schema = schema.Clone()
	schema.Name = name
	for i := range schema.Columns {
		schema.Columns[i].Name = strings.ToLower(schema.Columns[i].Name)
	}
	db.tables[name] = NewTable(schema)
	db.order = append(db.order, name)
	return nil
}

// DropTable removes a table.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	name = strings.ToLower(name)
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	delete(db.tables, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return nil
}

// RenameTable renames a table — the primitive behind from-clause
// probing (rename t to temp, run E, observe the error).
func (db *Database) RenameTable(oldName, newName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	oldName, newName = strings.ToLower(oldName), strings.ToLower(newName)
	t, ok := db.tables[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, oldName)
	}
	if _, ok := db.tables[newName]; ok {
		return fmt.Errorf("table %s already exists", newName)
	}
	delete(db.tables, oldName)
	t.Schema.Name = newName
	db.tables[newName] = t
	for i, n := range db.order {
		if n == oldName {
			db.order[i] = newName
			break
		}
	}
	return nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// HasTable reports whether the table exists.
func (db *Database) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[strings.ToLower(name)]
	return ok
}

// TableNames lists tables in creation order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}

// TableNamesBySize lists tables ordered by decreasing row count (ties
// by name), as used by sampling preprocessing and the halving policy.
func (db *Database) TableNamesBySize() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := append([]string(nil), db.order...)
	sort.SliceStable(names, func(i, j int) bool {
		ri, rj := len(db.tables[names[i]].Rows), len(db.tables[names[j]].Rows)
		if ri != rj {
			return ri > rj
		}
		return names[i] < names[j]
	})
	return names
}

// Schemas returns a copy of every table schema, in creation order.
func (db *Database) Schemas() []TableSchema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableSchema, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n].Schema.Clone())
	}
	return out
}

// SchemaGraph builds the key-linkage graph over all tables.
func (db *Database) SchemaGraph() SchemaGraph {
	return BuildSchemaGraph(db.Schemas())
}

// Clone deep-copies the whole database. The extractor uses this to
// create its silo; referential-integrity enforcement does not exist in
// this engine, matching the paper's "drop all RI constraints in the
// silo" step.
func (db *Database) Clone() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.newLike()
	for _, n := range db.order {
		out.tables[n] = db.tables[n].Clone()
		out.order = append(out.order, n)
	}
	return out
}

// CloneSchema copies only the table definitions (empty tables).
func (db *Database) CloneSchema() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.newLike()
	for _, n := range db.order {
		out.tables[n] = NewTable(db.tables[n].Schema)
		out.order = append(out.order, n)
	}
	return out
}

// CloneTables copies the schema of every table but the rows of only
// the named subset; other tables stay empty. The extractor uses this
// to carve the relevant part of D_I into the silo cheaply: each listed
// table gets a fresh row slice over the receiver's own Row values, so
// row-set operations on the clone (SetRows, Sample, KeepRange,
// DeleteRow, Truncate) leave the receiver intact, while value writes
// (Set, SetAll, NegateColumn) would write through to it. Take a Clone
// before changing values.
func (db *Database) CloneTables(withRows map[string]bool) *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.newLike()
	for _, n := range db.order {
		if t := db.tables[n]; withRows[n] {
			out.tables[n] = &Table{Schema: t.Schema.Clone(), Rows: CopyRows(t.Rows)}
		} else {
			out.tables[n] = NewTable(t.Schema)
		}
		out.order = append(out.order, n)
	}
	return out
}

// TotalRows sums row counts over all tables.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += len(t.Rows)
	}
	return n
}

// Insert appends a row to the named table.
func (db *Database) Insert(table string, vals ...Value) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return t.Insert(vals...)
}
