package core_test

// Extraction-level tests of the observability layer: the probe
// ledger's worker-count byte-identity (golden file), the ledger/stats
// count invariant, the span tree on Extraction.Trace, and the cache
// accounting of Stats.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedExtract runs one extraction with full observability and
// returns the extraction plus its serialized trace.
func tracedExtract(t *testing.T, sql string, workers int) (*core.Extraction, *obs.Ledger, []byte) {
	t.Helper()
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Workers = workers
	cfg.Tracer = obs.NewTracer("extract")
	cfg.Ledger = obs.NewLedger()
	exe := app.MustSQLExecutable("golden", sql)
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v\nquery: %s", workers, err, sql)
	}
	var buf bytes.Buffer
	header := obs.RunHeader{App: exe.Name(), Workers: workers, Seed: cfg.Seed}
	if err := obs.WriteTrace(&buf, header, ext.Trace, cfg.Ledger); err != nil {
		t.Fatal(err)
	}
	return ext, cfg.Ledger, buf.Bytes()
}

// TestProbeLedgerGoldenAcrossWorkers: the full trace of an extraction
// — run header, span tree, probe ledger — strips to byte-identical
// JSONL for 1 and 8 workers, and matches the checked-in golden file.
// Regenerate with `go test ./internal/core -run Golden -update`.
func TestProbeLedgerGoldenAcrossWorkers(t *testing.T) {
	sql := concurrencyQueries[1] // joins + filters: exercises every probe kind
	_, _, trace1 := tracedExtract(t, sql, 1)
	_, _, trace8 := tracedExtract(t, sql, 8)

	strip := func(raw []byte) []byte {
		out, err := obs.StripVolatile(raw)
		if err != nil {
			t.Fatalf("trace does not strip: %v", err)
		}
		return out
	}
	s1, s8 := strip(trace1), strip(trace8)
	if !bytes.Equal(s1, s8) {
		t.Fatalf("stripped traces differ between 1 and 8 workers:\n%s", firstDiff(s1, s8))
	}

	checkGolden(t, filepath.Join("testdata", "ledger_golden.jsonl"), s1)
}

// checkGolden compares got with the golden file at path, rewriting
// the file first when the test runs with -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s deviates from the golden file (run with -update if the pipeline changed):\n%s",
			path, firstDiff(got, want))
	}
}

// firstDiff renders the first differing line of two text blobs,
// numbering lines from 1.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n%s\nvs\n%s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line counts differ (%d vs %d)", len(la), len(lb))
}

// TestProbeSpansNumberedPerPhase: probe spans are numbered across all
// fan-outs of their phase, so sibling probe spans carry the distinct
// seqs 0..n-1, a probe event's index names the probe span it ran in,
// and the numbering does not depend on the worker count. The
// from-clause runs one fan-out per group-testing step and every one
// of its probes in a fan-out, so its events and spans pair up exactly.
func TestProbeSpansNumberedPerPhase(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		ext, ledger, trace := tracedExtract(t, concurrencyQueries[1], workers)
		phaseOf := map[int]string{}
		for _, sp := range ext.Trace {
			if sp.Parent == ext.Trace[0].ID {
				phaseOf[sp.ID] = sp.Name
			}
		}
		seqs := map[string][]int{}
		for _, sp := range ext.Trace {
			if sp.Name == "probe" {
				phase := phaseOf[sp.Parent]
				seqs[phase] = append(seqs[phase], sp.Seq)
			}
		}
		if n := len(seqs["from-clause"]); n < 2 {
			t.Fatalf("workers=%d: from-clause has %d probe spans, want two fan-outs or more", workers, n)
		}
		for phase, ss := range seqs {
			sort.Ints(ss)
			for i, seq := range ss {
				if seq != i {
					t.Errorf("workers=%d: %s probe span seqs %v, want 0..%d", workers, phase, ss, len(ss)-1)
					break
				}
			}
		}
		var renames []int
		for _, ev := range ledger.Events() {
			if n := len(seqs[ev.Phase]); ev.Probe >= n && !(n == 0 && ev.Probe == 0) {
				t.Errorf("workers=%d: %s event has probe index %d, phase has %d probe spans",
					workers, ev.Phase, ev.Probe, n)
			}
			if ev.Phase == "from-clause" {
				renames = append(renames, ev.Probe)
			}
		}
		sort.Ints(renames)
		if fmt.Sprint(renames) != fmt.Sprint(seqs["from-clause"]) {
			t.Errorf("workers=%d: from-clause event indices %v, probe span seqs %v",
				workers, renames, seqs["from-clause"])
		}
		stripped, err := obs.StripVolatile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = stripped
		} else if !bytes.Equal(first, stripped) {
			t.Fatalf("workers=%d: stripped trace differs from 1 worker:\n%s", workers, firstDiff(first, stripped))
		}
	}
}

// TestLedgerCountInvariant: the ledger records exactly one event per
// executable invocation plus one per cache hit, and the trace
// validates against the schema with matching tallies.
func TestLedgerCountInvariant(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ext, ledger, trace := tracedExtract(t, concurrencyQueries[3], workers)
		wantProbes := ext.Stats.AppInvocations + ext.Stats.CacheHits
		if got := int64(ledger.Len()); got != wantProbes {
			t.Errorf("workers=%d: ledger has %d events, want invocations+hits = %d+%d = %d",
				workers, got, ext.Stats.AppInvocations, ext.Stats.CacheHits, wantProbes)
		}
		sum, err := obs.Validate(bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("workers=%d: trace does not validate: %v", workers, err)
		}
		if int64(sum.Probes) != wantProbes {
			t.Errorf("workers=%d: validator counted %d probes, want %d", workers, sum.Probes, wantProbes)
		}
		if int64(sum.Executed()) != ext.Stats.AppInvocations {
			t.Errorf("workers=%d: validator counted %d executions, want %d",
				workers, sum.Executed(), ext.Stats.AppInvocations)
		}
		if int64(sum.Hits) != ext.Stats.CacheHits {
			t.Errorf("workers=%d: validator counted %d hits, want %d", workers, sum.Hits, ext.Stats.CacheHits)
		}
	}
}

// TestExtractionTrace: Extract returns the finished span tree — one
// span per pipeline phase under the root — and none when no tracer is
// configured.
func TestExtractionTrace(t *testing.T) {
	ext, _, _ := tracedExtract(t, concurrencyQueries[0], 2)
	if len(ext.Trace) == 0 {
		t.Fatal("no trace on the extraction")
	}
	root := ext.Trace[0]
	if root.Name != "extract" || root.Parent != 0 || root.Open {
		t.Fatalf("root span wrong: %+v", root)
	}
	phases := map[string]bool{}
	for _, ev := range ext.Trace {
		if ev.Parent == root.ID {
			phases[ev.Name] = true
		}
		if ev.Open {
			t.Errorf("span %q still open on a completed extraction", ev.Name)
		}
	}
	for _, want := range []string{"from-clause", "minimizer", "join-graph", "filters", "projection", "assemble", "checker", "eqc-verify"} {
		if !phases[want] {
			t.Errorf("phase span %q missing (have %v)", want, phases)
		}
	}

	// Without a tracer the extraction carries no trace.
	db := warehouseDB(t, 25, 50, 160)
	plain, err := core.Extract(app.MustSQLExecutable("plain", concurrencyQueries[0]), db, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("untraced extraction carries %d spans", len(plain.Trace))
	}
}

// TestMetricsMatchStats: a registry folded from the ledger through its
// sink agrees with the extraction's Stats.
func TestMetricsMatchStats(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Ledger = obs.NewLedger()
	m := obs.NewMetrics()
	cfg.Ledger.SetSink(m.RecordProbe)
	ext, err := core.Extract(app.MustSQLExecutable("m", concurrencyQueries[0]), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("probes_total").Value(); got != int64(cfg.Ledger.Len()) {
		t.Errorf("probes_total metric %d, ledger %d", got, cfg.Ledger.Len())
	}
	if got := m.Counter("app_invocations").Value(); got != ext.Stats.AppInvocations {
		t.Errorf("app_invocations metric %d, stats %d", got, ext.Stats.AppInvocations)
	}
	if got := m.Counter("cache_hit").Value(); got != ext.Stats.CacheHits {
		t.Errorf("cache_hit metric %d, stats %d", got, ext.Stats.CacheHits)
	}
	if got := m.Histogram("probe_latency_ms").Count(); got != ext.Stats.AppInvocations {
		t.Errorf("latency histogram has %d observations, want one per invocation (%d)",
			got, ext.Stats.AppInvocations)
	}
}

// TestStatsCacheAccounting: the hit rate is well-defined with no
// traffic, and the profile always carries the run cache's hits over
// its eligible probes.
func TestStatsCacheAccounting(t *testing.T) {
	var zero core.Stats
	if rate := zero.CacheHitRate(); rate != 0 {
		t.Errorf("hit rate with no traffic = %v, want 0 (not NaN)", rate)
	}
	if !strings.Contains(zero.String(), " cache 0/0 ") {
		t.Errorf("cache section missing with no traffic: %s", zero.String())
	}

	db := warehouseDB(t, 25, 50, 160)
	ext, err := core.Extract(app.MustSQLExecutable("on", concurrencyQueries[0]), db, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	st := ext.Stats
	want := fmt.Sprintf(" cache %d/%d ", st.CacheHits, st.CacheHits+st.CacheMisses)
	if st.CacheHits == 0 || !strings.Contains(st.String(), want) {
		t.Errorf("profile %q lacks %q (hits must be > 0)", st.String(), want)
	}
	if strings.Contains(st.String(), "disk=") {
		t.Errorf("disk hits reported without a shared cache: %s", st.String())
	}
}

// TestPhaseHistogramsAndEngineBridge: folding the span export of an
// extraction lands exactly one observation per pipeline phase in its
// phase_ms.<name> histogram, and Stats carries the engine counters a
// registry keeper bridges into engine_* (the service does; its test
// checks the bridge).
func TestPhaseHistogramsAndEngineBridge(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Tracer = obs.NewTracer("extract")
	ext, err := core.Extract(app.MustSQLExecutable("ph", concurrencyQueries[0]), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	m.RecordPhases(ext.Trace)
	phases := []string{
		"from-clause", "minimizer", "join-graph", "filters", "disjunctions",
		"projection", "group-by", "aggregation", "order-by", "limit",
		"assemble", "checker", "eqc-verify",
	}
	for _, phase := range phases {
		if got := m.Histogram("phase_ms." + phase).Count(); got != 1 {
			t.Errorf("phase_ms.%s has %d observations, want 1", phase, got)
		}
	}
	if got := len(m.Export().Histograms); got != len(phases) {
		t.Errorf("%d phase histograms, want %d", got, len(phases))
	}
	if ext.Stats.VectorBatches == 0 {
		t.Error("vector engine reported zero batches — bridge has nothing to measure")
	}
}

// TestPhaseInstrumentationNilSafe: an extraction with no tracer and no
// ledger still succeeds (all record sites are nil-safe).
func TestPhaseInstrumentationNilSafe(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	if _, err := core.Extract(app.MustSQLExecutable("nil", concurrencyQueries[0]), db, defaultCfg()); err != nil {
		t.Fatal(err)
	}
}
