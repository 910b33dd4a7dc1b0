package service_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"unmasque/internal/obs"
	"unmasque/internal/service"
)

// inlineSpec is a small single-table job that extracts in tens of
// milliseconds — the unit of work for manager tests.
func inlineSpec(name string) service.JobSpec {
	var rows [][]string
	for i := 1; i <= 12; i++ {
		rows = append(rows, []string{strconv.Itoa(i), strconv.Itoa(i * 10)})
	}
	return service.JobSpec{
		Name: name,
		Tables: []service.TableSpec{{
			Name: "t",
			Columns: []service.ColumnSpec{
				{Name: "a", Type: "int", Min: 1, Max: 1000},
				{Name: "b", Type: "int", Min: 1, Max: 1000},
			},
			PrimaryKey: []string{"a"},
			Rows:       rows,
		}},
		SQL:  "select a, b from t where b <= 60",
		Seed: 1,
	}
}

func waitState(t *testing.T, m *service.Manager, id int64, pred func(service.State) bool, what string) service.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if pred(v.State) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d never became %s", id, what)
	return service.View{}
}

func waitTerminal(t *testing.T, m *service.Manager, id int64) service.View {
	t.Helper()
	return waitState(t, m, id, service.State.Terminal, "terminal")
}

// TestManagerConcurrentJobs is the acceptance scenario: 32 jobs
// submitted concurrently against a 4-worker pool all complete, IDs
// are dense and monotonic, and the per-job ledger invariant
// (ledger events == app invocations + cache hits) holds for each.
func TestManagerConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	met := obs.NewMetrics()
	mgr, err := service.Start(ctx, service.Config{
		Workers:    4,
		QueueDepth: 64,
		StorePath:  filepath.Join(t.TempDir(), "jobs.jsonl"),
		Metrics:    met,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	ids := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := mgr.Submit(ctx, inlineSpec(fmt.Sprintf("job-%02d", i)))
			ids[i], errs[i] = v.ID, err
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d rejected: %v", i, errs[i])
		}
		if ids[i] < 1 || ids[i] > n || seen[ids[i]] {
			t.Fatalf("submit %d got id %d, want unique in [1,%d]", i, ids[i], n)
		}
		seen[ids[i]] = true
	}

	for id := int64(1); id <= n; id++ {
		if v := waitTerminal(t, mgr, id); v.State != service.StateDone {
			t.Fatalf("job %d state %s (%s), want done", id, v.State, v.Error)
		}
		res, err := mgr.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.SQL == "" {
			t.Errorf("job %d has no extracted SQL", id)
		}
		if res.LedgerEvents == 0 || res.LedgerEvents != res.AppInvocations+res.CacheHits {
			t.Errorf("job %d ledger invariant broken: events %d, invocations %d + hits %d",
				id, res.LedgerEvents, res.AppInvocations, res.CacheHits)
		}
	}

	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := met.Counter("jobs_done").Value(); got != n {
		t.Errorf("jobs_done = %d, want %d", got, n)
	}
	if got := met.Counter("jobs_submitted").Value(); got != n {
		t.Errorf("jobs_submitted = %d, want %d", got, n)
	}
	if got := met.Gauge("jobs_running").Value(); got != 0 {
		t.Errorf("jobs_running gauge = %d after drain", got)
	}
	if got := met.Histogram("job_latency_ms").Snapshot().Count; got != n {
		t.Errorf("latency histogram has %d observations, want %d", got, n)
	}
}

// TestManagerBackpressureAndCancel drives the admission-control and
// cancellation paths with a single worker: a job that blocks until
// cancelled occupies the pool, a filler fills the depth-1 queue, the
// next submission bounces with ErrQueueFull; the queued filler cancels
// in place, the running job cancels via its context, and the manager
// keeps serving afterwards until drain.
func TestManagerBackpressureAndCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	service.BlockJobsNamed(t, "slow")
	ctx := context.Background()
	met := obs.NewMetrics()
	mgr, err := service.Start(ctx, service.Config{Workers: 1, QueueDepth: 1, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}

	slow, err := mgr.Submit(ctx, inlineSpec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, mgr, slow.ID, func(s service.State) bool { return s == service.StateRunning }, "running")

	if _, err := mgr.Result(slow.ID); !errors.Is(err, service.ErrNotFinished) {
		t.Fatalf("result of running job: %v, want ErrNotFinished", err)
	}

	filler, err := mgr.Submit(ctx, inlineSpec("filler"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(ctx, inlineSpec("rejected")); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	if got := met.Counter("jobs_rejected").Value(); got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}

	// Cancel the queued filler: terminal immediately, no worker involved.
	v, err := mgr.Cancel(ctx, filler.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateCancelled {
		t.Fatalf("cancelled queued job state %s", v.State)
	}
	if _, err := mgr.Cancel(ctx, filler.ID); !errors.Is(err, service.ErrTerminal) {
		t.Fatalf("re-cancel: %v, want ErrTerminal", err)
	}

	// Cancel the running job: its extraction context unwinds the
	// pipeline between probes.
	if _, err := mgr.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, mgr, slow.ID); v.State != service.StateCancelled || v.Error == "" {
		t.Fatalf("cancelled running job: state %s error %q", v.State, v.Error)
	}

	// The worker pool survives cancellations.
	after, err := mgr.Submit(ctx, inlineSpec("after-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, mgr, after.ID); v.State != service.StateDone {
		t.Fatalf("post-cancel job state %s (%s)", v.State, v.Error)
	}

	if _, err := mgr.Get(999); !errors.Is(err, service.ErrUnknownJob) {
		t.Fatalf("unknown id: %v, want ErrUnknownJob", err)
	}

	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := mgr.Submit(ctx, inlineSpec("too-late")); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	if got := met.Counter("jobs_cancelled").Value(); got != 2 {
		t.Errorf("jobs_cancelled = %d, want 2", got)
	}
}

// TestManagerRecovery restarts the manager over an existing log:
// terminal jobs come back as history, interrupted jobs re-queue and
// run to completion, and fresh IDs continue above the recovered
// maximum.
func TestManagerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")

	// Seed the log as a crashed daemon would have left it: job 3
	// finished, job 7 was mid-extraction.
	st, _, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	doneSpec := inlineSpec("finished-before-crash")
	runSpec := inlineSpec("interrupted-by-crash")
	seed := []service.Record{
		{ID: 3, State: service.StateQueued, Spec: &doneSpec},
		{ID: 3, State: service.StateRunning},
		{ID: 3, State: service.StateDone, SQL: "select a, b from t where b <= 60"},
		{ID: 7, State: service.StateQueued, Spec: &runSpec},
		{ID: 7, State: service.StateRunning},
	}
	for _, r := range seed {
		if err := st.Append(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mgr, err := service.Start(ctx, service.Config{Workers: 2, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}

	// Recovered history is served.
	if v, err := mgr.Get(3); err != nil || v.State != service.StateDone {
		t.Fatalf("recovered job 3: %+v, %v", v, err)
	}
	res, err := mgr.Result(3)
	if err != nil || res.SQL != "select a, b from t where b <= 60" {
		t.Fatalf("recovered result: %+v, %v", res, err)
	}
	// Traces are process-local: a recovered job has none.
	if err := mgr.WriteTrace(3, nil); !errors.Is(err, service.ErrUnknownJob) {
		t.Fatalf("trace of recovered job: %v, want wrapped ErrUnknownJob", err)
	}

	// The interrupted job was re-queued and completes for real now.
	if v := waitTerminal(t, mgr, 7); v.State != service.StateDone {
		t.Fatalf("re-queued job state %s (%s)", v.State, v.Error)
	}
	if res, err := mgr.Result(7); err != nil || res.SQL == "" {
		t.Fatalf("re-run result: %+v, %v", res, err)
	}

	// New IDs continue above the recovered maximum.
	v, err := mgr.Submit(ctx, inlineSpec("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 8 {
		t.Fatalf("post-restart id %d, want 8", v.ID)
	}
	waitTerminal(t, mgr, v.ID)
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// A second restart finds only terminal jobs: nothing to re-queue.
	mgr2, err := service.Start(ctx, service.Config{Workers: 2, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if d := mgr2.QueueDepth(); d != 0 {
		t.Errorf("clean restart re-queued %d jobs", d)
	}
	counts := mgr2.Counts()
	if counts[service.StateDone] != 3 || counts[service.StateQueued] != 0 || counts[service.StateRunning] != 0 {
		t.Errorf("clean restart counts: %v", counts)
	}
	if err := mgr2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestManagerHardDrain: a drain whose context expires cancels the
// jobs still in flight instead of waiting for them.
func TestManagerHardDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	service.BlockJobsNamed(t, "slow")
	ctx := context.Background()
	mgr, err := service.Start(ctx, service.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := mgr.Submit(ctx, inlineSpec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, mgr, slow.ID, func(s service.State) bool { return s == service.StateRunning }, "running")

	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := mgr.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard drain: %v, want DeadlineExceeded", err)
	}
	v, err := mgr.Get(slow.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateCancelled {
		t.Fatalf("after hard drain job is %s, want cancelled", v.State)
	}
}

// checkGauges compares the queued and running gauges with a recount
// from Counts. Transitions run concurrently with the check, so it
// retries until Counts reads the same on both sides of the gauge reads:
// every transition changes Counts and sets the gauges under the lock
// Counts takes.
func checkGauges(t *testing.T, m *service.Manager, met *obs.Metrics, when string) {
	t.Helper()
	for attempt := 0; attempt < 1000; attempt++ {
		before := m.Counts()
		queued, running := met.Gauge("jobs_queued").Value(), met.Gauge("jobs_running").Value()
		if !maps.Equal(before, m.Counts()) {
			continue
		}
		if queued != int64(before[service.StateQueued]) || running != int64(before[service.StateRunning]) {
			t.Fatalf("%s: gauges queued=%d running=%d, recount %v", when, queued, running, before)
		}
		return
	}
	t.Fatalf("%s: jobs never held still for a gauge check", when)
}

// TestGaugesTrackTransitions drives a random mix of job transitions —
// restart requeue, submit, start, terminal, cancel while queued or
// running, and drain cancel — and checks the queued and running
// gauges against a recount after every step.
func TestGaugesTrackTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	// A crashed daemon's log: jobs 1-4 never finished, so Start
	// requeues them.
	st, _, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := inlineSpec("interrupted")
	var ids []int64
	for id := int64(1); id <= 4; id++ {
		recs := []service.Record{{ID: id, State: service.StateQueued, Spec: &interrupted}}
		if id%2 == 0 {
			recs = append(recs, service.Record{ID: id, State: service.StateRunning})
		}
		for _, r := range recs {
			if err := st.Append(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	met := obs.NewMetrics()
	mgr, err := service.Start(ctx, service.Config{Workers: 1, QueueDepth: 64, StorePath: path, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	checkGauges(t, mgr, met, "after restart")
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 40; step++ {
		switch id := ids[rng.Intn(len(ids))]; rng.Intn(4) {
		case 0:
			if _, err := mgr.Cancel(ctx, id); err != nil && !errors.Is(err, service.ErrTerminal) {
				t.Fatalf("cancel %d: %v", id, err)
			}
		case 1:
			waitTerminal(t, mgr, id)
		default:
			v, err := mgr.Submit(ctx, inlineSpec(fmt.Sprintf("step-%d", step)))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		checkGauges(t, mgr, met, fmt.Sprintf("step %d", step))
	}
	// A drain whose context has already expired cancels the backlog.
	dctx, cancel := context.WithCancel(ctx)
	cancel()
	mgr.Drain(dctx)
	checkGauges(t, mgr, met, "after drain")
	if q, r := met.Gauge("jobs_queued").Value(), met.Gauge("jobs_running").Value(); q != 0 || r != 0 {
		t.Fatalf("after drain: queued=%d running=%d, want 0", q, r)
	}
}
