package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// sqldbPathSuffix identifies the storage package by import-path
// suffix, so the rules also apply inside seeded test modules with a
// different module name.
const sqldbPathSuffix = "internal/sqldb"

// isWorkloadPkg reports whether the package holds workload/data
// generators, which are allowed to panic on impossible inputs.
func isWorkloadPkg(importPath string) bool {
	return strings.Contains(importPath, "internal/workloads")
}

// isAppSimulation reports whether the package models opaque
// application code (workload executables and runnable examples),
// which reads the database without the extractor's discipline.
func isAppSimulation(importPath string) bool {
	return isWorkloadPkg(importPath) || strings.Contains(importPath, "/examples/")
}

// isSqldbPkg reports whether the package is the storage engine.
func isSqldbPkg(importPath string) bool {
	return importPath == sqldbPathSuffix || strings.HasSuffix(importPath, "/"+sqldbPathSuffix)
}

// isCorePkg reports whether the package is the extraction pipeline.
func isCorePkg(importPath string) bool {
	return importPath == "internal/core" || strings.HasSuffix(importPath, "/internal/core")
}

// isServicePkg reports whether the package is (under) the serving
// tier, whose exported entry points must be cancellable.
func isServicePkg(importPath string) bool {
	return strings.Contains(importPath, "internal/service")
}

// funcsOf walks every function body in the package, handing the
// enclosing declaration to fn. Bodies of methods and plain functions
// both included; init and anonymous functions appear under their
// lexical parent.
func funcsOf(p *pkg, fn func(decl *ast.FuncDecl)) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// --- GL001: no panic in library packages ---------------------------

func checkPanic(fset *token.FileSet, p *pkg) []Finding {
	if p.tpkg.Name() == "main" || isWorkloadPkg(p.importPath) {
		return nil
	}
	var out []Finding
	funcsOf(p, func(fd *ast.FuncDecl) {
		if strings.HasPrefix(fd.Name.Name, "Must") {
			return // eager-validation wrapper; the panic is its contract
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if obj, ok := p.info.Uses[id].(*types.Builtin); !ok || obj.Name() != "panic" {
				return true // shadowed identifier, not the builtin
			}
			out = append(out, Finding{
				Pos:  fset.Position(call.Pos()),
				Rule: RulePanic,
				Msg: fmt.Sprintf("panic in library function %s; return an error (only Must* wrappers, "+
					"package main and internal/workloads may panic)", fd.Name.Name),
			})
			return true
		})
	})
	return out
}

// --- GL002: core must not mutate the source database ---------------

// databaseMutators are the *sqldb.Database methods that change
// database state observable by the application.
var databaseMutators = map[string]bool{
	"CreateTable": true,
	"DropTable":   true,
	"RenameTable": true,
	"Insert":      true,
}

func checkSourceMutation(fset *token.FileSet, p *pkg) []Finding {
	if !isCorePkg(p.importPath) {
		return nil
	}
	var out []Finding
	funcsOf(p, func(fd *ast.FuncDecl) {
		type mutation struct {
			pos    token.Pos
			method string
		}
		var muts []mutation
		renames := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !databaseMutators[sel.Sel.Name] {
				return true
			}
			if !isSourceField(p, sel.X) || !isDatabaseType(p.info.Types[sel.X].Type) {
				return true
			}
			if sel.Sel.Name == "RenameTable" {
				renames++
			}
			muts = append(muts, mutation{pos: call.Pos(), method: sel.Sel.Name})
			return true
		})
		for _, m := range muts {
			if m.method == "RenameTable" && renames >= 2 {
				continue // rename paired with its restoring rename
			}
			out = append(out, Finding{
				Pos:  fset.Position(m.pos),
				Rule: RuleSourceMut,
				Msg: fmt.Sprintf("%s called on the session's source database in %s; "+
					"mutate a clone, or pair RenameTable with its restore in the same function",
					m.method, fd.Name.Name),
			})
		}
	})
	return out
}

// isSourceField matches a selector ending in the field name "source"
// (the Session's handle on D_I). Clones and locals have other names.
func isSourceField(p *pkg, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "source" {
		return false
	}
	s, ok := p.info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// isDatabaseType matches *sqldb.Database (possibly through pointers).
func isDatabaseType(t types.Type) bool {
	return isSqldbNamed(t, "Database")
}

// isSqldbNamed reports whether t (after stripping pointers) is the
// named type internal/sqldb.<name>.
func isSqldbNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && isSqldbPkg(obj.Pkg().Path())
}

// --- GL003: fmt.Errorf must wrap error arguments with %w -----------

func checkErrWrap(fset *token.FileSet, p *pkg) []Finding {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if !isPkgFunc(p, call.Fun, "fmt", "Errorf") {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true // dynamic format string: out of scope
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := p.info.Types[arg].Type
				if t == nil {
					continue
				}
				if types.Implements(t, errType) {
					out = append(out, Finding{
						Pos:  fset.Position(call.Pos()),
						Rule: RuleErrWrap,
						Msg:  "fmt.Errorf passes an error without %w; wrap it so errors.Is/As see the cause",
					})
					break
				}
			}
			return true
		})
	}
	return out
}

// isPkgFunc matches a call target of the form <pkg>.<name> where
// <pkg> resolves to the named standard package.
func isPkgFunc(p *pkg, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// --- GL005: no direct console output in the pipeline packages ------

// printFuncs are the fmt/log functions that write straight to the
// process streams.
var printFuncs = map[string][]string{
	"fmt": {"Print", "Printf", "Println"},
	"log": {"Print", "Printf", "Println"},
}

// checkDirectPrint forbids fmt.Print*/log.Print* inside internal/core
// and internal/sqldb. Those packages run under the probe scheduler
// and inside library callers; anything worth reporting belongs in the
// observability layer (internal/obs spans, ledger events, metrics) or
// in a returned error — a stray Println corrupts -trace/-stats output
// on stdout and is invisible to trace consumers. Writing to an
// injected io.Writer or fmt.Fprintf is fine; only the implicit
// process-stream forms are flagged.
func checkDirectPrint(fset *token.FileSet, p *pkg) []Finding {
	if !isCorePkg(p.importPath) && !isSqldbPkg(p.importPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for pkgPath, names := range printFuncs {
				for _, name := range names {
					if isPkgFunc(p, call.Fun, pkgPath, name) {
						out = append(out, Finding{
							Pos:  fset.Position(call.Pos()),
							Rule: RuleDirectPrint,
							Msg: fmt.Sprintf("%s.%s writes to the process streams from %s; "+
								"report through internal/obs (span/ledger/metrics) or return an error",
								pkgPath, name, p.importPath),
						})
						return true
					}
				}
			}
			return true
		})
	}
	return out
}

// --- GL004: Table row storage is private to internal/sqldb ---------

func checkTableAccess(fset *token.FileSet, p *pkg) []Finding {
	// internal/workloads and examples/ are exempt: their imperative
	// executables stand in for opaque third-party application code,
	// which reads the database however it likes — the rule protects
	// the extractor's invariants, not the application simulations.
	if isSqldbPkg(p.importPath) || isAppSimulation(p.importPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Rows" {
				return true
			}
			s, ok := p.info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true // qualified identifiers, methods, other packages' Rows
			}
			if !isSqldbNamed(s.Recv(), "Table") {
				return true // e.g. sqldb.Result.Rows is public API
			}
			out = append(out, Finding{
				Pos:  fset.Position(sel.Pos()),
				Rule: RuleTableAccess,
				Msg: "direct access to sqldb.Table.Rows outside internal/sqldb; " +
					"use SnapshotRows/SetRows/RowCount/Get/Set",
			})
			return true
		})
	}
	return out
}

// --- GL006: service entry points take a context --------------------

// blockingFuncs are package-level functions whose call marks the
// enclosing function as doing I/O or network work.
var blockingFuncs = map[string][]string{
	"os":       {"Create", "Open", "OpenFile", "ReadFile", "WriteFile", "Remove", "RemoveAll", "Rename", "Truncate", "Mkdir", "MkdirAll"},
	"net":      {"Listen", "Dial", "DialTimeout"},
	"net/http": {"ListenAndServe", "ListenAndServeTLS", "Get", "Post", "Head"},
}

// fileMethods are *os.File methods that touch the file system.
var fileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Truncate": true, "Seek": true,
}

// checkServiceContext enforces GL006: inside internal/service, an
// exported function or method whose body performs I/O (os/net/http
// calls, *os.File methods) or spawns a goroutine must take a
// context.Context as its first parameter — the daemon's entry points
// must be cancellable end to end, and a context bolted on later never
// reaches the blocking call it was meant to bound. Exempt: ServeHTTP
// (http.Handler fixes its signature; the request context is inside r)
// and Close (the io.Closer convention).
func checkServiceContext(fset *token.FileSet, p *pkg) []Finding {
	if !isServicePkg(p.importPath) {
		return nil
	}
	var out []Finding
	funcsOf(p, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() || fd.Name.Name == "ServeHTTP" || fd.Name.Name == "Close" {
			return
		}
		if hasCtxFirst(p, fd) {
			return
		}
		reason := blockingWork(p, fd.Body)
		if reason == "" {
			return
		}
		out = append(out, Finding{
			Pos:  fset.Position(fd.Pos()),
			Rule: RuleServiceCtx,
			Msg: fmt.Sprintf("exported service function %s %s but has no context.Context first parameter; "+
				"daemon entry points must be cancellable (GL006)", fd.Name.Name, reason),
		})
	})
	return out
}

// hasCtxFirst reports whether the function's first parameter is a
// context.Context.
func hasCtxFirst(p *pkg, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	t := p.info.Types[params.List[0].Type].Type
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// blockingWork scans a function body (closures included — work a
// closure does still runs under the entry point) for goroutine
// launches and I/O calls, returning a description of the first one
// found, or "".
func blockingWork(p *pkg, body *ast.BlockStmt) string {
	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			reason = "spawns a goroutine"
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for pkgPath, names := range blockingFuncs {
			for _, name := range names {
				if isPkgFunc(p, call.Fun, pkgPath, name) {
					reason = fmt.Sprintf("calls %s.%s", pkgPath, name)
					return false
				}
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fileMethods[sel.Sel.Name] {
			if s, ok := p.info.Selections[sel]; ok && isOSFile(s.Recv()) {
				reason = fmt.Sprintf("performs file I/O (os.File.%s)", sel.Sel.Name)
				return false
			}
		}
		return true
	})
	return reason
}

// --- GL007: deterministic tiers stay deterministic ------------------

// isDeterministicPkg reports whether the package belongs to the
// deterministic tiers: the extraction pipeline, the checker's instance
// generator and the static-analysis layer (which includes the bounded
// equivalence checker). Their outputs must be reproducible bit for
// bit, so ambient clocks and global randomness are off-limits.
func isDeterministicPkg(importPath string) bool {
	return isCorePkg(importPath) ||
		strings.Contains(importPath, "internal/xdata") ||
		strings.Contains(importPath, "internal/analysis")
}

// seededRandCtors are the math/rand functions that build an explicitly
// seeded generator — the sanctioned way to get randomness into the
// deterministic tiers.
var seededRandCtors = map[string]bool{
	"New":       true,
	"NewSource": true,
}

// checkDeterminism enforces GL007: no time.Now/time.Since calls and no
// top-level math/rand calls (other than the seeded constructors)
// inside the deterministic tiers. Only *calls* are flagged — assigning
// time.Now as a value (core.Config's default Clock) keeps the call
// site injectable and is allowed.
func checkDeterminism(fset *token.FileSet, p *pkg) []Finding {
	if !isDeterministicPkg(p.importPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, name := range []string{"Now", "Since"} {
				if isPkgFunc(p, call.Fun, "time", name) {
					out = append(out, Finding{
						Pos:  fset.Position(call.Pos()),
						Rule: RuleDeterminism,
						Msg: fmt.Sprintf("time.%s called in deterministic package %s; "+
							"inject the clock (core.Config.Clock) instead", name, p.importPath),
					})
					return true
				}
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && !seededRandCtors[sel.Sel.Name] {
				if isPkgFunc(p, call.Fun, "math/rand", sel.Sel.Name) {
					out = append(out, Finding{
						Pos:  fset.Position(call.Pos()),
						Rule: RuleDeterminism,
						Msg: fmt.Sprintf("top-level math/rand.%s called in deterministic package %s; "+
							"use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", sel.Sel.Name, p.importPath),
					})
					return true
				}
			}
			return true
		})
	}
	return out
}

// --- GL008: no per-row Value-map allocation in the storage engine ---

// checkBatchAlloc enforces GL008: inside internal/sqldb, no map with
// sqldb.Value elements may be allocated inside a loop. Per-row
// map[string]Value (or map[*AggExpr]Value) allocations were the
// dominant cost of the pre-vectorized executor — one map per row per
// probe, millions per extraction — and the columnar engine exists to
// avoid them. Hoist the allocation out of the loop and reuse it, or
// use positional slices keyed by resolved slots.
func checkBatchAlloc(fset *token.FileSet, p *pkg) []Finding {
	if !isSqldbPkg(p.importPath) {
		return nil
	}
	var out []Finding
	flagAllocs := func(loop ast.Node, body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			var t types.Type
			switch x := n.(type) {
			case *ast.CallExpr:
				id, ok := x.Fun.(*ast.Ident)
				if !ok || id.Name != "make" {
					return true
				}
				if b, ok := p.info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
					return true
				}
				t = p.info.Types[x].Type
			case *ast.CompositeLit:
				t = p.info.Types[x].Type
			default:
				return true
			}
			if !isValueMap(t) {
				return true
			}
			out = append(out, Finding{
				Pos:  fset.Position(n.Pos()),
				Rule: RuleBatchAlloc,
				Msg: "map with sqldb.Value elements allocated inside a loop; " +
					"hoist and reuse it, or use a positional slice (GL008)",
			})
			return true
		})
	}
	funcsOf(p, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				flagAllocs(x, x.Body)
				return false // inner loops are covered by the outer walk
			case *ast.RangeStmt:
				flagAllocs(x, x.Body)
				return false
			}
			return true
		})
	})
	return out
}

// --- GL009: telemetry primitives live behind internal/obs -----------

// obsOnlyImports are the standard-library telemetry packages that the
// rest of the tree must reach through internal/obs instead of
// importing directly.
var obsOnlyImports = map[string]string{
	"log":      "obs.Logger",
	"log/slog": "obs.Logger",
	"expvar":   "obs.Metrics",
}

// isObsPkg reports whether the package is (under) the observability
// layer, the one place allowed to bind to the standard telemetry
// packages.
func isObsPkg(importPath string) bool {
	return strings.Contains(importPath, "internal/obs")
}

// checkObsConstruct enforces GL009: outside internal/obs (and the
// opaque application simulations), no package imports log, log/slog
// or expvar directly. The observability layer owns the process's
// telemetry surface — loggers carry job/phase correlation attrs,
// metrics export through one registry with a single exposition
// encoder — and a stray slog.Info or expvar.NewInt bypasses all of
// it: uncorrelated records, metrics invisible to /metrics. The
// import is flagged rather than individual calls: any use requires
// it, and types smuggled out of these packages are as binding as
// calls.
func checkObsConstruct(fset *token.FileSet, p *pkg) []Finding {
	if isObsPkg(p.importPath) || isAppSimulation(p.importPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			repl, ok := obsOnlyImports[path]
			if !ok {
				continue
			}
			out = append(out, Finding{
				Pos:  fset.Position(spec.Pos()),
				Rule: RuleObsConstruct,
				Msg: fmt.Sprintf("package %s imports %q directly; route telemetry through internal/obs (%s) "+
					"so records stay correlated and metrics stay scrapeable (GL009)", p.importPath, path, repl),
			})
		}
	}
	return out
}

// --- GL010: file I/O lives in the storage tiers ---------------------

// isStoragePkg reports whether the package is the storage tier — the
// durable probe cache — where file I/O is the charter.
func isStoragePkg(importPath string) bool {
	return strings.Contains(importPath, "internal/storage")
}

// isLinterPkg reports whether the package is the linter itself, which
// reads source trees off disk by nature.
func isLinterPkg(importPath string) bool {
	return strings.Contains(importPath, "internal/analysis/golint")
}

// checkFileIO enforces GL010: outside package main, internal/storage,
// internal/service and the linter itself, no package imports "os".
// Durability has sharp edges — fsync ordering, torn-tail truncation,
// crash recovery — and keeping every file handle inside two audited
// tiers is what lets the rest of the tree stay deterministic and
// testable against io.Reader/io.Writer. As with GL009 the import is
// flagged, not individual calls: any use requires it.
func checkFileIO(fset *token.FileSet, p *pkg) []Finding {
	if p.tpkg.Name() == "main" || isStoragePkg(p.importPath) ||
		isServicePkg(p.importPath) || isLinterPkg(p.importPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.files {
		for _, spec := range f.Imports {
			if strings.Trim(spec.Path.Value, `"`) != "os" {
				continue
			}
			out = append(out, Finding{
				Pos:  fset.Position(spec.Pos()),
				Rule: RuleFileIO,
				Msg: fmt.Sprintf("package %s imports \"os\"; file I/O is confined to internal/storage and "+
					"internal/service — take an io.Reader/io.Writer or go through those tiers (GL010)", p.importPath),
			})
		}
	}
	return out
}

// isValueMap matches maps carrying sqldb.Value payloads after
// stripping named types: map[K]Value, and — equally hot in the
// aggregation/sort paths — map[K][]Value and map[K]Row, whose per-row
// allocation costs a slice header plus the map insert on every group
// probe.
func isValueMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	elem := m.Elem()
	if isSqldbNamed(elem, "Value") || isSqldbNamed(elem, "Row") {
		return true
	}
	if s, ok := elem.Underlying().(*types.Slice); ok {
		return isSqldbNamed(s.Elem(), "Value")
	}
	return false
}

// isOSFile matches *os.File (possibly through pointers).
func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
