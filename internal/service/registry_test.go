package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/service"
	"unmasque/internal/workloads/registry"
)

// TestRegistryIsLedgerView: the manager's metrics registry holds no
// probe or phase fact of its own. After a done job, a failed one
// (tpch/H3), one cancelled while running and a repeat served from
// the durable cache, every probe counter and histogram count equals
// the tally of the jobs' own traces, engine_* equals the sum over the
// done jobs' Stats, and the manager's lifecycle records
// are the only log: a done job's carries its time and invocations, a
// failed job's error names its phase.
func TestRegistryIsLedgerView(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	service.BlockJobsNamed(t, "slow")
	ctx := context.Background()
	met := obs.NewMetrics()
	var logBuf bytes.Buffer
	mgr, err := service.Start(ctx, service.Config{
		Workers:    1,
		QueueDepth: 8,
		CacheDir:   t.TempDir(),
		Metrics:    met,
		Logger:     obs.NewLogger(&logBuf, obs.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec service.JobSpec) int64 {
		t.Helper()
		v, err := mgr.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	want := map[int64]service.State{}
	done := submit(service.JobSpec{App: "enki/posts_by_tag"})
	want[done] = service.StateDone
	waitTerminal(t, mgr, done)
	want[submit(service.JobSpec{App: "tpch/H3"})] = service.StateFailed
	slow := submit(inlineSpec("slow"))
	want[slow] = service.StateCancelled
	waitState(t, mgr, slow, func(s service.State) bool { return s == service.StateRunning }, "running")
	if _, err := mgr.Cancel(ctx, slow); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, slow)
	repeat := submit(service.JobSpec{App: "enki/posts_by_tag"})
	want[repeat] = service.StateDone
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	counters := map[string]int64{"jobs_submitted": int64(len(want))}
	hists := map[string]int64{"job_latency_ms": int64(len(want))}
	results := map[int64]service.Result{}
	for id, state := range want {
		res, err := mgr.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != state {
			t.Fatalf("job %d (%s) ended %s (%s), want %s", id, res.Name, res.State, res.Error, state)
		}
		results[id] = res
		counters["jobs_"+string(state)]++
		if state == service.StateDone {
			counters["engine_join_builds_reused"] += res.JoinBuildsReused
			counters["engine_vector_batches"] += res.VectorBatches
		}
		var trace bytes.Buffer
		if err := mgr.WriteTrace(id, &trace); err != nil {
			t.Fatal(err)
		}
		err = obs.Decode(&trace, func(f obs.Frame) error {
			switch {
			case f.Type == obs.TypeSpan && f.Span.Parent == 1:
				hists["phase_ms."+f.Span.Name]++
			case f.Type == obs.TypeProbe:
				p := f.Probe
				counters["probes_total"]++
				counters["cache_"+p.Cache]++
				counters["phase_probes."+p.Phase]++
				if p.Cache != obs.CacheHit && p.Cache != obs.CacheDisk {
					counters["app_invocations"]++
					hists["probe_latency_ms"]++
				}
				if p.Err != "" {
					counters["probe_errors"]++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if r := results[repeat]; r.AppInvocations != 0 || r.DiskCacheHits == 0 {
		t.Errorf("repeat job was not served from disk: invocations=%d disk=%d", r.AppInvocations, r.DiskCacheHits)
	}
	if counters["cache_disk"] == 0 || counters["cache_hit"] == 0 || counters["probe_errors"] == 0 {
		t.Errorf("job set misses a probe outcome it should cover: %v", counters)
	}

	snap := met.Export()
	if !maps.Equal(snap.Counters, counters) {
		t.Errorf("counters are not the traces' tally:\nregistry %v\ntraces   %v", snap.Counters, counters)
	}
	got := map[string]int64{}
	for name, h := range snap.Histograms {
		got[name] = h.Count
	}
	if !maps.Equal(got, hists) {
		t.Errorf("histogram counts are not the traces' tally:\nregistry %v\ntraces   %v", got, hists)
	}

	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg         string   `json:"msg"`
			JobID       int64    `json:"job_id"`
			TotalMS     *float64 `json:"total_ms"`
			Invocations *int64   `json:"invocations"`
			Err         string   `json:"err"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line: %s", line)
		}
		res := results[rec.JobID]
		switch rec.Msg {
		case "job submitted", "job started", "job cancelled":
		case "job done":
			if rec.TotalMS == nil || rec.Invocations == nil ||
				int64(*rec.TotalMS) != res.TotalMS || *rec.Invocations != res.AppInvocations {
				t.Errorf("job done record %s, want total_ms %d and invocations %d", line, res.TotalMS, res.AppInvocations)
			}
		case "job failed":
			if !strings.Contains(rec.Err, "projection") {
				t.Errorf("failed job's record does not name its phase: %s", line)
			}
		default:
			t.Errorf("unexpected log record: %s", line)
		}
	}
}

// TestHavingAppsExtractThroughDaemon: a job that names a Section 7
// application runs the having pipeline without asking for it, and
// returns the SQL of the CLI's extraction (the entry's own having
// flag, the default config).
func TestHavingAppsExtractThroughDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	mgr, err := service.Start(ctx, service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Drain(ctx)
	for _, name := range []string{"tpch/H1", "tpch/H2"} {
		v, err := mgr.Submit(ctx, service.JobSpec{App: name})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminal(t, mgr, v.ID); v.State != service.StateDone {
			t.Fatalf("%s ended %s (%s), want done", name, v.State, v.Error)
		}
		res, err := mgr.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		entry, _ := registry.Lookup(name)
		exe, db, err := entry.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.ExtractHaving = entry.Having
		ext, err := core.Extract(exe, db, cfg)
		if err != nil {
			t.Fatalf("%s through the CLI's config: %v", name, err)
		}
		if res.SQL != ext.SQL {
			t.Errorf("%s: daemon SQL\n%s\nCLI SQL\n%s", name, res.SQL, ext.SQL)
		}
	}
}
