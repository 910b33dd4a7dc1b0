// Command unmasque extracts the hidden query of a registered opaque
// application and prints the recovered SQL.
//
// The repository's workloads act as the application registry: each
// hosts black-box executables (obfuscated SQL or imperative code)
// over its own database.
//
// Usage:
//
//	unmasque -list                          # list all applications
//	unmasque -app tpch/Q3                   # unmask one application
//	unmasque -app enki/posts_by_tag -stats  # with the timing profile
//	unmasque -app tpch/H1                   # Section 7 pipeline (tpch/H1-H3)
//	unmasque -app tpch/Q3 -trace out.jsonl  # record the probe trace
//	unmasque -app tpch/Q3 -metrics          # print the metrics as Prometheus text
//	unmasque -app tpch/Q3 -chrome t.json    # Chrome trace-event export
//	unmasque -to-chrome out.jsonl           # convert a recorded trace
//	unmasque -validate-trace out.jsonl      # schema-check a trace file
//	unmasque -validate-prom scrape.prom     # check a /metrics scrape or -metrics output
//	unmasque -validate-stream capture.sse   # check an SSE stream capture
//	unmasque -app tpch/Q3 -cache-dir d      # durable cross-run probe cache
//
// The -chrome / -to-chrome outputs open directly in about://tracing
// and https://ui.perfetto.dev.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr server
	"os"
	"path/filepath"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/obs/telemetry"
	"unmasque/internal/storage"
	"unmasque/internal/workloads/registry"
)

// obsFlags holds the observability command-line surface.
type obsFlags struct {
	tracePath  string // -trace: write the JSONL probe trace here
	chromePath string // -chrome: write the Chrome trace-event export here
	metrics    bool   // -metrics: print the metrics registry after extraction
	ledger     *obs.Ledger
	registry   *obs.Metrics
}

// attach wires the requested observability hooks into the pipeline
// config. The metrics registry is a view of the trace: -metrics
// records one too and folds each probe event into the registry as it
// lands.
func (o *obsFlags) attach(cfg *core.Config) {
	if o.tracePath != "" || o.chromePath != "" || o.metrics {
		cfg.Tracer = obs.NewTracer("extract")
		o.ledger = obs.NewLedger()
		cfg.Ledger = o.ledger
	}
	if o.metrics {
		o.registry = obs.NewMetrics()
		o.ledger.SetSink(o.registry.RecordProbe)
	}
}

// finish persists the trace and prints the metrics. It runs on failed
// extractions too — a trace of a failed run (open spans, the probes up
// to the fault) is exactly what debugging needs — so ext may be nil.
func (o *obsFlags) finish(appName string, cfg core.Config, ext *core.Extraction) error {
	header := obs.RunHeader{App: appName, Workers: cfg.Workers, Seed: cfg.Seed}
	var spans []obs.SpanEvent
	if ext != nil {
		spans, header.Workers = ext.Trace, ext.Stats.Workers
	} else {
		spans = cfg.Tracer.Events() // the tree up to the failure
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteTrace(f, header, spans, o.ledger); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("-- trace: %d spans, %d probe events -> %s\n", len(spans), o.ledger.Len(), o.tracePath)
	}
	if o.chromePath != "" {
		f, err := os.Create(o.chromePath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteCatapult(f, header, spans, o.ledger.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("-- chrome trace -> %s (open in about://tracing or ui.perfetto.dev)\n", o.chromePath)
	}
	if o.metrics {
		o.registry.RecordPhases(spans)
		if ext != nil {
			o.registry.Counter("engine_join_builds_reused").Add(ext.Stats.JoinBuildsReused)
			o.registry.Counter("engine_vector_batches").Add(ext.Stats.VectorBatches)
		}
		fmt.Println("-- metrics:")
		if err := telemetry.WritePrometheus(os.Stdout, o.registry); err != nil {
			return err
		}
	}
	return nil
}

// startDebugServer serves pprof (/debug/pprof) for the lifetime of
// the extraction. The returned stop function shuts the server down
// gracefully; startup errors (a busy port, a malformed address)
// surface on stderr rather than being silently dropped with the
// goroutine.
func startDebugServer(addr string) (stop func()) {
	srv := &http.Server{Addr: addr, Handler: http.DefaultServeMux}
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
		}
		errc <- err
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "debug server shutdown: %v\n", err)
		}
		<-errc // wait for ListenAndServe to return before exiting
	}
}

// validateTrace schema-checks a recorded trace file and prints its
// summary.
func validateTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := obs.Validate(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid (%s)\n", path, sum)
	return nil
}

// validatePromFile checks a captured /metrics scrape, or the
// exposition -metrics prints, against the exposition-format
// invariants.
func validatePromFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fams, err := telemetry.ParsePromText(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var samples int
	for _, fam := range fams {
		samples += len(fam.Samples)
	}
	fmt.Printf("%s: valid (%d families, %d samples)\n", path, len(fams), samples)
	return nil
}

// validateStreamFile checks a captured SSE trace stream (or raw JSONL
// frame log) against the live-frame schema.
func validateStreamFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := obs.ValidateStream(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid (%s)\n", path, sum)
	return nil
}

// traceToChrome converts a recorded JSONL trace into Chrome
// trace-event JSON at outPath (default: inPath + ".chrome.json").
func traceToChrome(inPath, outPath string) error {
	if outPath == "" {
		outPath = inPath + ".chrome.json"
	}
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := telemetry.CatapultFromTrace(out, in); err != nil {
		out.Close()
		return fmt.Errorf("%s: %w", inPath, err)
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("%s -> %s (open in about://tracing or ui.perfetto.dev)\n", inPath, outPath)
	return nil
}

// attachCache opens the durable probe cache in cacheDir (-cache-dir)
// and attaches it to cfg under the namespace ns. Without a directory
// it does nothing. The returned close must run after the extraction
// finishes.
func attachCache(cacheDir string, cfg *core.Config, ns string) (func(), error) {
	if cacheDir == "" {
		return func() {}, nil
	}
	pc, err := storage.OpenProbeCache(filepath.Join(cacheDir, "probecache.log"))
	if err != nil {
		return nil, fmt.Errorf("opening probe cache: %w", err)
	}
	cfg.SharedCache = pc.Namespace(ns)
	return func() {
		if err := pc.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "probe cache: %v\n", err)
		}
	}, nil
}

// runApp unmasks one registered application.
func runApp(appName string, entry registry.Entry, seed int64, having, noChecker, stats bool, cacheDir string, ob *obsFlags) error {
	exe, db, err := entry.Build(seed)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ExtractHaving = having || entry.Having
	cfg.SkipChecker = noChecker
	closeCache, err := attachCache(cacheDir, &cfg, storage.AppNamespace(appName, seed))
	if err != nil {
		return err
	}
	defer closeCache()
	ob.attach(&cfg)

	ext, err := core.Extract(exe, db, cfg)
	if ferr := ob.finish(appName, cfg, ext); ferr != nil {
		fmt.Fprintf(os.Stderr, "observability: %v\n", ferr)
	}
	if err != nil {
		return fmt.Errorf("extraction failed: %w", err)
	}
	fmt.Printf("-- unmasked query of %s (%s)\n%s\n", appName, ext.Summary(), ext.SQL)
	if ext.CheckerVerified {
		fmt.Println("-- extraction verified by randomized and targeted instance checks")
	}
	if stats {
		fmt.Printf("-- profile: %s\n", ext.Stats.String())
	}
	return nil
}

// runAdhoc hides an arbitrary user query inside an executable over
// the chosen workload database and unmasks it — a self-demo of the
// full loop on any EQC query the user types.
func runAdhoc(workload, sql string, seed int64, having, noChecker, stats bool, cacheDir string, ob *obsFlags) error {
	db, plant, err := registry.AdhocDatabase(workload, seed)
	if err != nil {
		return err
	}
	if err := plant(map[string]string{"adhoc": sql}); err != nil {
		return fmt.Errorf("witness planting: %w (does the query have satisfiable predicates?)", err)
	}
	exe, err := app.NewSQLExecutable("adhoc", sql)
	if err != nil {
		return fmt.Errorf("hidden query does not parse: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ExtractHaving = having
	cfg.SkipChecker = noChecker
	// The cache namespace must identify the executable; ad-hoc SQL is
	// the executable, so its digest (plus the workload whose generated
	// instance it runs over) is the identity.
	sum := sha256.Sum256([]byte(sql))
	ns := storage.AppNamespace(fmt.Sprintf("adhoc/%s/%x", workload, sum[:12]), seed)
	closeCache, err := attachCache(cacheDir, &cfg, ns)
	if err != nil {
		return err
	}
	defer closeCache()
	ob.attach(&cfg)
	ext, err := core.Extract(exe, db, cfg)
	if ferr := ob.finish(exe.Name(), cfg, ext); ferr != nil {
		fmt.Fprintf(os.Stderr, "observability: %v\n", ferr)
	}
	if err != nil {
		return fmt.Errorf("extraction failed: %w", err)
	}
	fmt.Printf("-- unmasked (%s)\n%s\n", ext.Summary(), ext.SQL)
	if stats {
		fmt.Printf("-- profile: %s\n", ext.Stats.String())
	}
	return nil
}

func main() {
	var (
		appName    = flag.String("app", "", "registered application to unmask, e.g. tpch/Q3")
		adhocSQL   = flag.String("sql", "", "ad-hoc hidden query to extract against -workload")
		workload   = flag.String("workload", "tpch", "database for -sql (tpch|tpcds|job|enki|wilos|rubis)")
		list       = flag.Bool("list", false, "list registered applications")
		stats      = flag.Bool("stats", false, "print the per-module timing profile")
		having     = flag.Bool("having", false, "use the Section 7 pipeline (having extraction)")
		seed       = flag.Int64("seed", 1, "data generation / extraction seed")
		noChecker  = flag.Bool("no-checker", false, "skip the final verification module")
		cacheDir   = flag.String("cache-dir", "", "durable probe-cache directory; repeat extractions of the same app+seed reuse recorded application outcomes")
		tracePath  = flag.String("trace", "", "write the probe trace (run header, spans, ledger) as JSONL to this file")
		chromePath = flag.String("chrome", "", "write the Chrome trace-event export to this file (with -app/-sql, or as -to-chrome output)")
		metrics    = flag.Bool("metrics", false, "print the metrics registry after extraction")
		debugAddr  = flag.String("debug-addr", "", "serve pprof on this address during extraction, e.g. localhost:6060")
		checkFile  = flag.String("validate-trace", "", "schema-check a previously recorded trace file and exit")
		promFile   = flag.String("validate-prom", "", "check a captured Prometheus /metrics scrape and exit")
		streamFile = flag.String("validate-stream", "", "check a captured SSE trace stream and exit")
		toChrome   = flag.String("to-chrome", "", "convert a recorded JSONL trace to Chrome trace-event JSON and exit")
	)
	flag.Parse()

	if *checkFile != "" || *promFile != "" || *streamFile != "" || *toChrome != "" {
		fail := func(err error) {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		if *checkFile != "" {
			if err := validateTrace(*checkFile); err != nil {
				fail(err)
			}
		}
		if *promFile != "" {
			if err := validatePromFile(*promFile); err != nil {
				fail(err)
			}
		}
		if *streamFile != "" {
			if err := validateStreamFile(*streamFile); err != nil {
				fail(err)
			}
		}
		if *toChrome != "" {
			if err := traceToChrome(*toChrome, *chromePath); err != nil {
				fail(err)
			}
		}
		return
	}
	if *debugAddr != "" {
		stop := startDebugServer(*debugAddr)
		defer stop()
	}
	ob := &obsFlags{tracePath: *tracePath, chromePath: *chromePath, metrics: *metrics}

	if *adhocSQL != "" {
		if err := runAdhoc(*workload, *adhocSQL, *seed, *having, *noChecker, *stats, *cacheDir, ob); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list || *appName == "" {
		fmt.Println("registered opaque applications:")
		for _, n := range registry.Names() {
			fmt.Println("  " + n)
		}
		if *appName == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nusage: unmasque -app <name> [-stats] [-having]")
			os.Exit(2)
		}
		return
	}

	entry, ok := registry.Lookup(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown application %q (try -list)\n", *appName)
		os.Exit(2)
	}
	if err := runApp(*appName, entry, *seed, *having, *noChecker, *stats, *cacheDir, ob); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}
