// Package registry exposes the repository's workloads as a named
// catalogue of opaque applications. Every entry pairs a black-box
// executable (obfuscated SQL or imperative code) with a builder for
// the database instance it runs on, keyed "workload/app" — e.g.
// tpch/Q3, enki/posts_by_tag, wilos/concrete_activities.
//
// The catalogue used to live inside cmd/unmasque; it is a package of
// its own so every serving surface — the one-shot CLI, the extraction
// daemon (internal/service), benchmarks — resolves application names
// identically.
package registry

import (
	"fmt"
	"sort"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/enki"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/rubis"
	"unmasque/internal/workloads/tpcds"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/workloads/wilos"
)

// Entry lazily builds the database and executable of one registered
// application. Building is deferred because instantiating a workload
// database is costly and most callers touch a single entry.
type Entry struct {
	// Having marks the Section 7 applications, whose hidden query
	// filters groups with HAVING: the CLI and the daemon extract them
	// with the having pipeline.
	Having bool

	build func(seed int64) (app.Executable, *sqldb.Database, error)
}

// Build materializes the application: its executable and a fresh
// database instance generated from seed.
func (e Entry) Build(seed int64) (app.Executable, *sqldb.Database, error) {
	return e.build(seed)
}

// catalogue is assembled once; entries are stateless builders, so the
// map is safe for concurrent readers.
var catalogue = buildCatalogue()

func buildCatalogue() map[string]Entry {
	reg := map[string]Entry{}

	addSQL := func(prefix string, queries map[string]string, having bool, mkDB func(seed int64, q map[string]string) (*sqldb.Database, error)) {
		for name, sql := range queries {
			name, sql := name, sql
			reg[prefix+"/"+name] = Entry{Having: having, build: func(seed int64) (app.Executable, *sqldb.Database, error) {
				db, err := mkDB(seed, map[string]string{name: sql})
				if err != nil {
					return nil, nil, err
				}
				exe, err := app.NewSQLExecutable(prefix+"/"+name, sql)
				return exe, db, err
			}}
		}
	}
	tpchDB := func(seed int64, q map[string]string) (*sqldb.Database, error) {
		db := tpch.NewDatabase(tpch.ScaleTiny*8, seed)
		return db, tpch.PlantWitnesses(db, q)
	}
	addSQL("tpch", tpch.HiddenQueries(), false, tpchDB)
	addSQL("tpch", tpch.HavingQueries(), true, tpchDB)
	addSQL("tpcds", tpcds.HiddenQueries(), false, func(seed int64, q map[string]string) (*sqldb.Database, error) {
		db := tpcds.NewDatabase(tpcds.ScaleTiny, seed)
		return db, tpcds.PlantWitnesses(db, q)
	})
	addSQL("job", job.HiddenQueries(), false, func(seed int64, q map[string]string) (*sqldb.Database, error) {
		db := job.NewDatabase(job.ScaleTiny, seed)
		return db, job.PlantWitnesses(db, q)
	})

	for _, c := range enki.Commands() {
		c := c
		reg["enki/"+c.Name] = Entry{build: func(seed int64) (app.Executable, *sqldb.Database, error) {
			return c.Exe, enki.NewDatabase(seed), nil
		}}
	}
	for _, f := range wilos.Functions() {
		f := f
		reg["wilos/"+f.Name] = Entry{build: func(seed int64) (app.Executable, *sqldb.Database, error) {
			return f.Exe, wilos.NewDatabase(seed), nil
		}}
	}
	for _, s := range rubis.Servlets() {
		s := s
		reg["rubis/"+s.Name] = Entry{build: func(seed int64) (app.Executable, *sqldb.Database, error) {
			return s.Exe, rubis.NewDatabase(seed), nil
		}}
	}
	return reg
}

// Names lists every registered application, sorted.
func Names() []string {
	out := make([]string, 0, len(catalogue))
	for n := range catalogue {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a registered application by name.
func Lookup(name string) (Entry, bool) {
	e, ok := catalogue[name]
	return e, ok
}

// Build materializes a registered application by name.
func Build(name string, seed int64) (app.Executable, *sqldb.Database, error) {
	e, ok := catalogue[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown application %q", name)
	}
	return e.Build(seed)
}

// AdhocDatabase builds a bare workload database instance for an
// ad-hoc hidden query, returning the instance plus the witness
// planter to call with the queries it must produce rows for (a no-op
// for the imperative workloads, whose generators are already
// witness-rich).
func AdhocDatabase(workload string, seed int64) (*sqldb.Database, func(map[string]string) error, error) {
	switch workload {
	case "tpch":
		db := tpch.NewDatabase(tpch.ScaleTiny*8, seed)
		return db, func(q map[string]string) error { return tpch.PlantWitnesses(db, q) }, nil
	case "tpcds":
		db := tpcds.NewDatabase(tpcds.ScaleTiny, seed)
		return db, func(q map[string]string) error { return tpcds.PlantWitnesses(db, q) }, nil
	case "job":
		db := job.NewDatabase(job.ScaleTiny, seed)
		return db, func(q map[string]string) error { return job.PlantWitnesses(db, q) }, nil
	case "enki":
		return enki.NewDatabase(seed), func(map[string]string) error { return nil }, nil
	case "wilos":
		return wilos.NewDatabase(seed), func(map[string]string) error { return nil }, nil
	case "rubis":
		return rubis.NewDatabase(seed), func(map[string]string) error { return nil }, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
}
