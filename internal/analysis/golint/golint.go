// Package golint implements the project's custom Go linter on top of
// the standard library's go/ast, go/parser and go/types packages —
// deliberately no golang.org/x/tools dependency, so the analysis layer
// stays as self-contained as the rest of the reproduction.
//
// The project-specific invariants enforced (IDs are stable and
// catalogued in DESIGN.md §6):
//
//	GL001 — library packages do not panic. The extraction pipeline is
//	        a long-running probe loop; a panic in sqldb/core/sqlparser
//	        aborts a whole extraction instead of failing one probe.
//	        Exempt: Must*-named wrappers (eager-validation helpers for
//	        statically known inputs), package main, workload
//	        generators under internal/workloads, and test files
//	        (which are not loaded at all).
//	GL002 — internal/core treats the source database D_I as
//	        non-invasively as the paper requires: mutating methods of
//	        *sqldb.Database may not be called through the Session's
//	        source field, except RenameTable when the enclosing
//	        function also performs the restoring rename (>= 2 calls).
//	        Deep clones (D_1, probe locals) are free to mutate. The
//	        silo is not one until the minimizer ends: CloneTables
//	        shares D_I's Row values, so before then only its row sets
//	        may change. The rule cannot see that; a test compares
//	        D_I's fingerprint around whole extractions.
//	GL003 — fmt.Errorf calls that pass an error argument must wrap it
//	        with %w so module boundaries stay errors.Is/As-friendly.
//	GL004 — only internal/sqldb touches sqldb.Table row storage: the
//	        Rows field is off-limits elsewhere (use SnapshotRows /
//	        SetRows / RowCount / Get / Set). internal/workloads is
//	        exempt — its imperative executables model opaque
//	        application code outside the extractor's discipline.
//	GL005 — internal/core and internal/sqldb never print to the
//	        process streams: fmt.Print*/log.Print* are forbidden
//	        there. Diagnostics flow through internal/obs (spans,
//	        ledger events, metrics) or returned errors; a stray
//	        Println would corrupt -trace/-stats consumers of stdout.
//	GL006 — internal/service entry points are cancellable: an exported
//	        function there that performs I/O (os/net/http calls,
//	        *os.File methods) or spawns a goroutine must take a
//	        context.Context as its first parameter. Exempt: ServeHTTP
//	        (signature fixed by http.Handler; the request carries its
//	        own context) and Close (io.Closer convention).
//	GL007 — the deterministic tiers (internal/core, internal/xdata and
//	        everything under internal/analysis) never consult ambient
//	        nondeterminism: calling time.Now/time.Since or any
//	        top-level math/rand function is forbidden there. Time is
//	        injected through core.Config.Clock, randomness through a
//	        seeded *rand.Rand — so the extraction transcript, the
//	        checker's instance suites and the bounded-equivalence
//	        verdicts are byte-identical across runs and worker
//	        counts. Constructing a seeded generator (rand.New,
//	        rand.NewSource) is allowed, as is referencing time.Now as
//	        a value (the default Clock).
//	GL008 — internal/sqldb never allocates a map with sqldb.Value
//	        payloads inside a loop — elements of type Value, []Value
//	        or Row alike. Per-row map[string]Value was the dominant
//	        allocation cost of the pre-vectorized executor, and the
//	        vectorized aggregation/sort paths tempt the slice-valued
//	        variants; hot paths must hoist and reuse such maps or use
//	        positional slices keyed by resolved slots.
//	GL009 — telemetry primitives are bound once, in internal/obs: no
//	        other package imports log, log/slog or expvar directly.
//	        Loggers obtained from internal/obs carry job_id/phase
//	        correlation and honor the daemon's level flag; metrics
//	        registered through obs.Metrics appear in the Prometheus
//	        exposition of /metrics. Direct stdlib use bypasses all of
//	        that. Exempt: internal/obs itself (and
//	        subpackages) and the opaque application simulations
//	        (internal/workloads, examples/).
//	GL010 — file I/O lives in the storage tiers: no library package
//	        imports "os" except internal/storage (the durable probe
//	        cache — durability is its charter) and
//	        internal/service (the durable job log). Everything else
//	        takes io.Reader/io.Writer or goes through those tiers, so
//	        fsync discipline and crash recovery stay in one audited
//	        place. Exempt: package main (flags and exit codes live
//	        there) and the linter itself (it reads source trees).
//
// The entry point is LintDir, which loads and typechecks every
// non-test package under a module root using a minimal module-aware
// loader (stdlib imports are resolved with the source importer;
// module-internal imports are typechecked in dependency order).
package golint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Rule IDs.
const (
	RulePanic        = "GL001"
	RuleSourceMut    = "GL002"
	RuleErrWrap      = "GL003"
	RuleTableAccess  = "GL004"
	RuleDirectPrint  = "GL005"
	RuleServiceCtx   = "GL006"
	RuleDeterminism  = "GL007"
	RuleBatchAlloc   = "GL008"
	RuleObsConstruct = "GL009"
	RuleFileIO       = "GL010"
)

// Finding is one lint violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// pkg is one loaded, typechecked package.
type pkg struct {
	importPath string // module-qualified import path
	dir        string
	files      []*ast.File
	tpkg       *types.Package
	info       *types.Info
}

// LintDir loads every non-test package under root (a module root
// containing go.mod) and runs all analyzers. Findings are sorted by
// position. A non-nil error means the tree could not be loaded or
// typechecked — not that findings exist.
func LintDir(root string) ([]Finding, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := loadPackages(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	if err := typecheck(fset, pkgs); err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, checkPanic(fset, p)...)
		findings = append(findings, checkSourceMutation(fset, p)...)
		findings = append(findings, checkErrWrap(fset, p)...)
		findings = append(findings, checkTableAccess(fset, p)...)
		findings = append(findings, checkDirectPrint(fset, p)...)
		findings = append(findings, checkServiceContext(fset, p)...)
		findings = append(findings, checkDeterminism(fset, p)...)
		findings = append(findings, checkBatchAlloc(fset, p)...)
		findings = append(findings, checkObsConstruct(fset, p)...)
		findings = append(findings, checkFileIO(fset, p)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("golint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("golint: no module directive in %s", gomod)
}

// loadPackages walks the module tree and parses every directory that
// contains non-test Go files. Vendored, hidden and testdata
// directories are skipped.
func loadPackages(fset *token.FileSet, root, modPath string) ([]*pkg, error) {
	var pkgs []*pkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, fn), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("golint: parse: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, &pkg{importPath: ip, dir: path, files: files})
		return nil
	})
	return pkgs, err
}

// moduleImporter resolves module-internal imports from the loaded set
// and everything else (the standard library) from source.
type moduleImporter struct {
	std  types.Importer
	done map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// typecheck runs the type checker over all packages in dependency
// order (module-internal imports must be checked before importers).
func typecheck(fset *token.FileSet, pkgs []*pkg) error {
	byPath := map[string]*pkg{}
	for _, p := range pkgs {
		byPath[p.importPath] = p
	}
	imp := &moduleImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		done: map[string]*types.Package{},
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[string]int{}
	var visit func(p *pkg) error
	visit = func(p *pkg) error {
		switch state[p.importPath] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("golint: import cycle through %s", p.importPath)
		}
		state[p.importPath] = grey
		for _, f := range p.files {
			for _, spec := range f.Imports {
				dep := strings.Trim(spec.Path.Value, `"`)
				if dp, ok := byPath[dep]; ok {
					if err := visit(dp); err != nil {
						return err
					}
				}
			}
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.importPath, fset, p.files, p.info)
		if err != nil {
			return fmt.Errorf("golint: typecheck %s: %w", p.importPath, err)
		}
		p.tpkg = tp
		imp.done[p.importPath] = tp
		state[p.importPath] = black
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return err
		}
	}
	return nil
}
