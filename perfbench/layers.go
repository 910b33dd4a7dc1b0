package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/service"
	"unmasque/internal/workloads/registry"
)

// perLayer lists the per-layer metrics a traced run reports, with their
// units. A layer a workload leaves idle reports 0.
var perLayer = []struct{ name, unit string }{
	{"invocations_per_job", "count"},
	{"workloads.build_ms", "ms"},
	{"cli.process_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"core.total_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.phase.from_clause_ms", "ms"},
	{"core.phase.sampling_ms", "ms"},
	{"core.phase.partitioning_ms", "ms"},
	{"core.phase.join_graph_ms", "ms"},
	{"core.phase.filters_ms", "ms"},
	{"core.phase.projection_ms", "ms"},
	{"core.phase.group_by_ms", "ms"},
	{"core.phase.aggregation_ms", "ms"},
	{"core.phase.order_by_ms", "ms"},
	{"core.phase.limit_ms", "ms"},
	{"core.phase.having_ms", "ms"},
	{"core.phase.checker_ms", "ms"},
	{"core.probes_per_job", "count"},
	{"core.parallel_probes_per_job", "count"},
	{"core.mem_cache_hit_rate", "ratio"},
	{"core.rows_initial", "rows"},
	{"core.rows_final", "rows"},
	{"app.exec_ms_per_job", "ms"},
	{"app.exec_us_p50", "us"},
	{"sqldb.index_builds_per_job", "count"},
	{"sqldb.index_hits_per_job", "count"},
	{"sqldb.range_builds_per_job", "count"},
	{"sqldb.range_hits_per_job", "count"},
	{"sqldb.join_builds_reused_per_job", "count"},
	{"sqldb.vector_batches_per_job", "count"},
	{"sqldb.index_hit_ratio", "ratio"},
	{"storage.disk_hits_per_job", "count"},
	{"storage.disk_hit_rate", "ratio"},
	{"storage.get_us_p50", "us"},
	{"storage.get_ms_per_job", "ms"},
	{"storage.log_bytes_per_job", "B"},
	{"obs.spans_per_job", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_job", "MiB"},
}

// layerJob is everything a traced run learned about one job.
type layerJob struct {
	jobObs
	stats     core.Stats
	ledger    []obs.ProbeEvent
	progSpans int     // spans of the program's own trace
	buildMS   float64 // registry.Build: D_I generation and witness planting
	extractMS float64 // core.ExtractContext wall time (in-process runs)
}

// layerValues computes the per-layer metrics the program's counters
// and ledger give, and checks per job that the ledger accounts for
// every probe: events = app_invocations + cache_hits + disk_cache_hits.
func layerValues(jobs []layerJob) (map[string]float64, []string) {
	v := map[string]float64{}
	var problems []string
	var execUS, diskUS []float64
	var eligible, memHits, diskHits, idxHits, idxBuilds float64
	n := float64(len(jobs))
	for _, j := range jobs {
		s := j.stats
		if want := s.AppInvocations + s.CacheHits + s.DiskCacheHits; int64(len(j.ledger)) != want {
			problems = append(problems, fmt.Sprintf("%s seed %d: %d ledger events, want invocations+hits+disk = %d",
				j.App, j.Seed, len(j.ledger), want))
		}
		var busy []interval
		for _, e := range j.ledger {
			iv := interval{e.TSUS - e.DurUS, e.TSUS}
			switch e.Cache {
			case obs.CacheHit:
				continue
			case obs.CacheDisk:
				diskUS = append(diskUS, float64(e.DurUS))
			default:
				execUS = append(execUS, float64(e.DurUS))
			}
			busy = append(busy, iv)
		}
		total := float64(s.Total.Microseconds())
		v["core.self_ms"] += (total - float64(covered(busy, interval{-1 << 62, 1 << 62}))) / 1e3
		v["invocations_per_job"] += float64(s.AppInvocations)
		v["core.total_ms"] += total / 1e3
		for name, d := range phases(&s) {
			v["core.phase."+name+"_ms"] += float64(d.Microseconds()) / 1e3
		}
		v["core.probes_per_job"] += float64(len(j.ledger))
		v["core.parallel_probes_per_job"] += float64(s.ParallelProbes)
		v["core.rows_initial"] += float64(s.RowsInitial)
		v["core.rows_final"] += float64(s.RowsFinal)
		v["sqldb.index_builds_per_job"] += float64(s.IndexBuilds)
		v["sqldb.index_hits_per_job"] += float64(s.IndexHits)
		v["sqldb.range_builds_per_job"] += float64(s.RangeBuilds)
		v["sqldb.range_hits_per_job"] += float64(s.RangeHits)
		v["sqldb.join_builds_reused_per_job"] += float64(s.JoinBuildsReused)
		v["sqldb.vector_batches_per_job"] += float64(s.VectorBatches)
		v["storage.disk_hits_per_job"] += float64(s.DiskCacheHits)
		v["obs.spans_per_job"] += float64(j.progSpans)
		v["workloads.build_ms"] += j.buildMS
		eligible += float64(s.CacheHits + s.DiskCacheHits + s.CacheMisses)
		memHits += float64(s.CacheHits)
		diskHits += float64(s.DiskCacheHits)
		idxHits += float64(s.IndexHits)
		idxBuilds += float64(s.IndexBuilds)
	}
	for k := range v {
		v[k] /= n
	}
	v["app.exec_ms_per_job"] = sum(execUS) / 1e3 / n
	v["app.exec_us_p50"] = orZero(median(execUS))
	v["storage.get_ms_per_job"] = sum(diskUS) / 1e3 / n
	v["storage.get_us_p50"] = orZero(median(diskUS))
	v["core.mem_cache_hit_rate"] = ratio(memHits, eligible)
	v["storage.disk_hit_rate"] = ratio(diskHits, eligible)
	v["sqldb.index_hit_ratio"] = ratio(idxHits, idxHits+idxBuilds)
	return v, problems
}

// phases maps the core.Stats phase timers onto metric names.
func phases(s *core.Stats) map[string]time.Duration {
	return map[string]time.Duration{
		"from_clause": s.FromClause, "sampling": s.Sampling, "partitioning": s.Partitioning,
		"join_graph": s.JoinGraph, "filters": s.Filters, "projection": s.Projection,
		"group_by": s.GroupBy, "aggregation": s.Aggregation, "order_by": s.OrderBy,
		"limit": s.Limit, "having": s.Having, "checker": s.Checker,
	}
}

// sameInvocations checks that two phases over the same jobs invoked the
// application equally often, job by job.
func sameInvocations(plain, traced []layerJob) []string {
	var problems []string
	for i := range traced {
		if i >= len(plain) || plain[i].job != traced[i].job {
			return append(problems, "traced and untraced phases ran different jobs")
		}
		if a, b := plain[i].stats.AppInvocations, traced[i].stats.AppInvocations; a != b {
			problems = append(problems, fmt.Sprintf("%s seed %d: %d invocations untraced, %d traced",
				traced[i].App, traced[i].Seed, a, b))
		}
	}
	return problems
}

// layerReport assembles the traced run's report: the per-layer values,
// the run-specific extras, the gate over every observation, and the
// cross-check problems.
func layerReport(b *bench, all []jobObs, g gateResult, v map[string]float64, problems []string) *report {
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
		delete(v, m.name)
	}
	for name := range v {
		problems = append(problems, "unlisted per-layer metric "+name)
	}
	g.problems = append(g.problems, problems...)
	return summarize(all, g, out)
}

// latencyOverheadPct is the tracing overhead: how much longer the mean
// job took in the traced phase than in the untraced one.
func latencyOverheadPct(plain, traced []jobObs) float64 {
	lat := func(os []jobObs) float64 {
		var xs []float64
		for _, o := range os {
			xs = append(xs, o.LatencyMS)
		}
		return mean(xs)
	}
	return 100 * (lat(traced) - lat(plain)) / lat(plain)
}

// runtimeSample is a reading of the Go runtime's GC CPU and allocation
// totals next to the process's CPU time.
type runtimeSample struct {
	gcCPU, procCPU time.Duration
	allocBytes     float64
}

// readRuntime samples this process's runtime.
func readRuntime() runtimeSample {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSample{
		gcCPU:      time.Duration(ms[0].Value.Float64() * float64(time.Second)),
		allocBytes: float64(ms[1].Value.Uint64()),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// plus adds the counts of d to r.
func (r runtimeSample) plus(d runtimeSample) runtimeSample {
	return runtimeSample{r.gcCPU + d.gcCPU, r.procCPU + d.procCPU, r.allocBytes + d.allocBytes}
}

// minus is the change from an earlier sample to r.
func (r runtimeSample) minus(earlier runtimeSample) runtimeSample {
	return runtimeSample{r.gcCPU - earlier.gcCPU, r.procCPU - earlier.procCPU, r.allocBytes - earlier.allocBytes}
}

// setRuntime stores the GC share of CPU and the allocation per job of
// a change between two samples.
func setRuntime(v map[string]float64, d runtimeSample, jobs int) {
	v["runtime.gc_cpu_frac"] = ratio(float64(d.gcCPU), float64(d.procCPU))
	v["runtime.alloc_mb_per_job"] = d.allocBytes / float64(jobs) / (1 << 20)
}

// tracedCLI is the traced variant of cli-sql. It extracts in-process,
// calling registry.Build and core.ExtractContext as the CLI does: each
// job once untraced, then once traced, with the executable wrapped and
// the program's tracer and ledger attached. Every job then runs once
// more as a real CLI process, for the process overhead.
func tracedCLI(ctx context.Context, b *bench) (*report, error) {
	jobs := b.workload.schedule(b.seed, 1)[0]
	tr := newTracer()
	var plain, traced []layerJob
	var rt runtimeSample
	for i, j := range jobs {
		rt0 := readRuntime()
		lj, err := inProcess(ctx, []job{j}, nil, i)
		if err != nil {
			return nil, err
		}
		rt = rt.plus(readRuntime().minus(rt0))
		plain = append(plain, lj...)
		if lj, err = inProcess(ctx, []job{j}, tr, i); err != nil {
			return nil, err
		}
		traced = append(traced, lj...)
	}
	var child []jobObs
	var processMS []float64
	for i, j := range jobs {
		o, _, err := cliJob(ctx, b.bin, j)
		if err != nil {
			return nil, err
		}
		child = append(child, o)
		processMS = append(processMS, o.LatencyMS-plain[i].buildMS-plain[i].extractMS)
	}

	v, problems := layerValues(traced)
	problems = append(problems, sameInvocations(plain, traced)...)
	for _, j := range traced {
		if calls := tr.count("app.exec", j.ID); int64(calls) != j.stats.AppInvocations {
			problems = append(problems, fmt.Sprintf("%s seed %d: %d executable calls, %d invocations counted",
				j.App, j.Seed, calls, j.stats.AppInvocations))
		}
	}
	v["cli.process_ms"] = mean(processMS)
	setRuntime(v, rt, len(plain))
	v["bench.trace_overhead_pct"] = latencyOverheadPct(observations(plain), observations(traced))
	all := append(append(observations(plain), observations(traced)...), child...)
	b.meta["self_ms_per_job"] = perJob(tr.selfUS(), len(traced))
	b.meta["conditions"] = "in-process registry.Build + core.ExtractContext with the CLI's default config, " +
		"each job untraced then traced; then every job once more as a real CLI process"
	if err := writeSpans(b, tr); err != nil {
		return nil, err
	}
	return layerReport(b, all, gate(ctx, all), v, problems), nil
}

// inProcess runs jobs the way cmd/unmasque does, without a process per
// job. With a tracer it records job, workloads.build, core.extract and
// app.exec spans and attaches the program's tracer and ledger. firstID
// numbers the jobs.
func inProcess(ctx context.Context, jobs []job, tr *tracer, firstID int) ([]layerJob, error) {
	out := make([]layerJob, 0, len(jobs))
	for i, j := range jobs {
		id := int64(firstID + i + 1)
		root := tr.begin()
		start := time.Now()
		exe, db, err := registry.Build(j.App, j.Seed)
		built := time.Now()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", j.App, err)
		}
		cfg := cliConfig(j.App, j.Seed)
		extractID := tr.begin()
		if tr != nil {
			cfg.Tracer = obs.NewTracer("extract")
			cfg.Ledger = obs.NewLedger()
			exe = &tracedExe{inner: exe, tr: tr, parent: extractID, job: id}
		}
		ext, err := core.ExtractContext(ctx, exe, db, cfg)
		end := time.Now()
		tr.add(span{Name: "workloads.build", Parent: root, Job: id}, start, built)
		tr.addAs(extractID, span{Name: "core.extract", Parent: root, Job: id}, built, end)
		tr.addAs(root, span{Name: "job", Job: id}, start, end)
		lj := layerJob{
			jobObs:    jobObs{job: j, ID: id, LatencyMS: ms(end.Sub(start))},
			buildMS:   ms(built.Sub(start)),
			extractMS: ms(end.Sub(built)),
		}
		if err != nil {
			lj.Err = err.Error()
		} else {
			lj.OK, lj.SQL, lj.stats = true, ext.SQL, ext.Stats
			lj.progSpans = len(ext.Trace)
		}
		if cfg.Ledger != nil {
			lj.ledger = cfg.Ledger.Events()
		}
		out = append(out, lj)
	}
	return out, nil
}

func observations(ljs []layerJob) []jobObs {
	out := make([]jobObs, len(ljs))
	for i, lj := range ljs {
		out[i] = lj.jobObs
	}
	return out
}

// perJob turns summed microseconds into milliseconds per job.
func perJob(us map[string]int64, jobs int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range us {
		out[k] = float64(v) / 1e3 / float64(jobs)
	}
	return out
}

func tracedDaemonCold(ctx context.Context, b *bench) (*report, error) {
	plainCache, err := b.scratchDir("plain-cache")
	if err != nil {
		return nil, err
	}
	tracedCache, err := b.scratchDir("traced-cache")
	if err != nil {
		return nil, err
	}
	return tracedDaemon(ctx, b, plainCache, tracedCache, nil)
}

func tracedDaemonWarm(ctx context.Context, b *bench) (*report, error) {
	cache, err := b.scratchDir("cache")
	if err != nil {
		return nil, err
	}
	fill, err := fillCache(ctx, b, cache)
	if err != nil {
		return nil, err
	}
	return tracedDaemon(ctx, b, cache, cache, fill)
}

// tracedDaemon is the traced variant of the daemon workloads. The same
// jobs run first on an untraced daemon on the probe cache plainCache,
// then on a daemon on tracedCache that also serves pprof, with client-side spans around the
// HTTP endpoints. Afterwards it reads each job's status, trace and
// ledger over HTTP, its core.Stats from the job store, and the Go
// runtime's counters through pprof.
func tracedDaemon(ctx context.Context, b *bench, plainCache, tracedCache string, fill []jobObs) (*report, error) {
	jobs := b.workload.schedule(b.seed, 1)[0]
	plainDir, err := b.scratchDir("plain")
	if err != nil {
		return nil, err
	}
	tracedDir, err := b.scratchDir("traced")
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemon(ctx, b.bin, plainDir, plainCache)
	if err != nil {
		return nil, err
	}
	plain, err := d.measure(ctx, jobs, nil)
	d.stop()
	if err != nil {
		return nil, err
	}

	logPath := filepath.Join(tracedCache, "probecache.log")
	log0 := fileSize(logPath)
	if d, _, err = startDaemon(ctx, b.bin, tracedDir, tracedCache, "-pprof"); err != nil {
		return nil, err
	}
	defer d.stop()
	tr := newTracer()
	rt0, err := d.runtime()
	if err != nil {
		return nil, err
	}
	traced, err := d.measure(ctx, jobs, tr)
	if err != nil {
		return nil, err
	}
	rt1, err := d.runtime()
	if err != nil {
		return nil, err
	}
	ljs, queueMS, runMS, err := d.collect(ctx, traced.obs)
	if err != nil {
		return nil, err
	}
	d.stop()
	log1 := fileSize(logPath)

	plainStats, err := storeStats(plainDir)
	if err != nil {
		return nil, err
	}
	tracedStats, err := storeStats(tracedDir)
	if err != nil {
		return nil, err
	}
	plainJobs := make([]layerJob, len(plain.obs))
	for i, o := range plain.obs {
		plainJobs[i] = layerJob{jobObs: o, stats: deref(plainStats[o.ID])}
	}
	for i := range ljs {
		ljs[i].stats = deref(tracedStats[ljs[i].ID])
	}
	all := append(append(fill, plain.obs...), traced.obs...)
	g := gate(ctx, all)
	var submitMS, overheadMS []float64
	for i := range ljs {
		ljs[i].buildMS = g.buildMS[ljs[i].job]
		submitMS = append(submitMS, float64(tr.durUS("service.submit", ljs[i].ID))/1e3)
		overheadMS = append(overheadMS, ljs[i].LatencyMS-ms(ljs[i].stats.Total)-ljs[i].buildMS)
	}
	v, problems := layerValues(ljs)
	problems = append(problems, sameInvocations(plainJobs, ljs)...)
	v["service.submit_ms"] = mean(submitMS)
	v["service.queue_wait_ms"] = mean(queueMS)
	v["service.run_ms"] = mean(runMS)
	v["service.overhead_ms"] = mean(overheadMS)
	v["storage.log_bytes_per_job"] = float64(log1-log0) / float64(len(ljs))
	v["bench.trace_overhead_pct"] = latencyOverheadPct(plain.obs, traced.obs)
	setRuntime(v, rt1.minus(rt0), len(ljs))
	b.meta["self_ms_per_job"] = perJob(tr.selfUS(), len(ljs))
	b.meta["conditions"] = daemonConditions + "; traced phase adds -pprof and client-side spans"
	if err := writeSpans(b, tr); err != nil {
		return nil, err
	}
	return layerReport(b, all, g, v, problems), nil
}

// collect reads, after the clock has stopped, each job's status
// timestamps and its trace (program spans and probe ledger).
func (d *daemon) collect(ctx context.Context, jobs []jobObs) ([]layerJob, []float64, []float64, error) {
	var queueMS, runMS []float64
	out := make([]layerJob, len(jobs))
	for i, o := range jobs {
		out[i].jobObs = o
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d", d.base, o.ID), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		var view service.View
		if err := doJSON(req, http.StatusOK, &view); err != nil {
			return nil, nil, nil, fmt.Errorf("status of job %d: %w", o.ID, err)
		}
		sub, err1 := time.Parse(time.RFC3339Nano, view.Submitted)
		sta, err2 := time.Parse(time.RFC3339Nano, view.Started)
		fin, err3 := time.Parse(time.RFC3339Nano, view.Finished)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, nil, fmt.Errorf("job %d: bad timestamps in %+v", o.ID, view)
		}
		queueMS = append(queueMS, ms(sta.Sub(sub)))
		runMS = append(runMS, ms(fin.Sub(sta)))
		if out[i].progSpans, out[i].ledger, err = d.jobTrace(ctx, o.ID); err != nil {
			return nil, nil, nil, err
		}
	}
	return out, queueMS, runMS, nil
}

// jobTrace downloads GET /jobs/{id}/trace: the run header, the
// program's spans and the probe ledger.
func (d *daemon) jobTrace(ctx context.Context, id int64) (int, []obs.ProbeEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d/trace", d.base, id), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("trace of job %d: %s", id, resp.Status)
	}
	spans := 0
	var ledger []obs.ProbeEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var e obs.ProbeEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return 0, nil, fmt.Errorf("trace of job %d: %w", id, err)
		}
		switch e.Type {
		case obs.TypeSpan:
			spans++
		case obs.TypeProbe:
			ledger = append(ledger, e)
		}
	}
	return spans, ledger, sc.Err()
}

// runtime reads the daemon's Go runtime counters from the pprof heap
// profile's MemStats block. GC CPU is GCCPUFraction times the CPU
// available since start (GOMAXPROCS × uptime), so that it can be set
// against the process's CPU time.
func (d *daemon) runtime() (runtimeSample, error) {
	resp, err := httpClient.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return runtimeSample{}, err
	}
	defer resp.Body.Close()
	uptime := time.Since(d.started)
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if k, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = "); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				vals[k] = f
			}
		}
	}
	if err := sc.Err(); err != nil {
		return runtimeSample{}, err
	}
	frac, ok1 := vals["GCCPUFraction"]
	alloc, ok2 := vals["TotalAlloc"]
	if !ok1 || !ok2 {
		return runtimeSample{}, fmt.Errorf("pprof heap profile has no MemStats block")
	}
	cpu, err := d.cpu()
	if err != nil {
		return runtimeSample{}, err
	}
	available := float64(runtime.NumCPU()) * float64(uptime)
	return runtimeSample{gcCPU: time.Duration(frac * available), procCPU: cpu, allocBytes: alloc}, nil
}

// storeStats reads the core.Stats of every completed job from the job
// store in dir, keyed by job id.
func storeStats(dir string) (map[int64]*core.Stats, error) {
	f, err := os.Open(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[int64]*core.Stats{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec service.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("job store: %w", err)
		}
		if rec.Stats != nil {
			out[rec.ID] = rec.Stats
		}
	}
	return out, sc.Err()
}

func deref(s *core.Stats) core.Stats {
	if s == nil {
		return core.Stats{}
	}
	return *s
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if x != x { // NaN: no samples
		return 0
	}
	return x
}
