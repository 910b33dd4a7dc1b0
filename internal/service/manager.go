package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/obs/telemetry"
	"unmasque/internal/storage"
	"unmasque/internal/workloads/registry"
)

// Config tunes the Manager.
type Config struct {
	// Workers is the extraction worker-pool size: at most this many
	// jobs run concurrently (default 2). Each job additionally fans
	// its probes out over its own core scheduler pool (JobSpec.Workers).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with ErrQueueFull (default 64).
	QueueDepth int
	// StorePath is the durable JSONL job log; empty runs ephemeral
	// (no recovery across restarts).
	StorePath string
	// CacheDir holds the daemon's durable probe cache
	// (<CacheDir>/probecache.log): application-run outcomes keyed by
	// database fingerprint, shared across every job and surviving
	// restarts. A repeat of an identical job on a warm cache invokes
	// the application zero times. Empty disables the durable tier (the
	// per-job in-memory cache still runs).
	CacheDir string
	// Metrics receives service-level metrics — queue depth, jobs by
	// state, the job latency histogram — plus a view of every extraction's
	// own records: its probe counters, folded in from its ledger as
	// each probe lands, its phase_ms histograms from its span tree at
	// the terminal transition, and the engine_* counters of a done
	// job's Stats. Nil disables metrics.
	Metrics *obs.Metrics
	// Logger receives structured job-lifecycle records (submitted,
	// started, terminal transitions) with job_id correlation attrs.
	// Nil disables logging.
	Logger *obs.Logger
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// Manager multiplexes extraction jobs over a bounded worker pool with
// admission control: a fixed-depth queue, reject-on-full, per-job
// cancellation, durable state transitions and graceful drain.
type Manager struct {
	cfg        Config
	store      *Store
	probeCache *storage.ProbeCache // nil without Config.CacheDir
	metrics    *obs.Metrics
	logger     *obs.Logger

	mu       sync.Mutex
	jobs     map[int64]*Job
	order    []int64 // IDs in submission order
	nextID   int64
	queue    chan *Job
	draining bool
	// queued and running count the jobs in those states, updated at
	// every transition so the gauges cost O(1) however long the
	// history.
	queued, running int64

	workers sync.WaitGroup
}

// Start opens (and replays) the durable store, re-queues jobs that
// were queued or running when the previous process died, and spawns
// the worker pool. The context bounds both startup I/O and the
// workers' extractions: cancelling it aborts every running job.
func Start(ctx context.Context, cfg Config) (*Manager, error) {
	cfg.normalize()
	m := &Manager{
		cfg:     cfg,
		metrics: cfg.Metrics,
		logger:  cfg.Logger,
		jobs:    map[int64]*Job{},
		nextID:  1,
	}
	if cfg.CacheDir != "" {
		pc, err := storage.OpenProbeCache(filepath.Join(cfg.CacheDir, "probecache.log"))
		if err != nil {
			return nil, fmt.Errorf("service: opening probe cache: %w", err)
		}
		m.probeCache = pc
	}
	var requeue []*Job
	if cfg.StorePath != "" {
		store, rec, err := OpenStore(ctx, cfg.StorePath)
		if err != nil {
			m.probeCache.Close()
			return nil, err
		}
		m.store = store
		m.nextID = rec.MaxID + 1
		for _, rj := range rec.Jobs {
			j := &Job{
				id:        rj.ID,
				spec:      rj.Spec,
				state:     rj.State,
				submitted: time.Now(),
				sql:       rj.SQL,
				errMsg:    rj.Err,
				stats:     rj.Stats,
			}
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
			if !rj.State.Terminal() {
				// Interrupted by the crash: back to the queue.
				j.state = StateQueued
				j.stream = telemetry.NewStream(0)
				j.stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: j.id, State: string(StateQueued)})
				requeue = append(requeue, j)
			}
		}
	}
	// The queue must absorb every re-queued job even when the log
	// holds more interrupted jobs than the configured depth.
	depth := cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	m.queue = make(chan *Job, depth)
	for _, j := range requeue {
		if err := m.append(ctx, Record{ID: j.id, State: StateQueued, Spec: &j.spec}); err != nil {
			m.store.Close()
			m.probeCache.Close()
			return nil, err
		}
		m.queue <- j
	}
	m.queued = int64(len(requeue))
	m.setGauges()
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go func() {
			defer m.workers.Done()
			for j := range m.queue {
				m.runJob(ctx, j)
			}
		}()
	}
	return m, nil
}

// Submit validates and admits one job, returning its queued snapshot.
// ErrQueueFull signals backpressure (the HTTP layer answers 429);
// ErrDraining means the manager is shutting down. The admission
// lock is held across the durable append so the log's record order
// matches ID order.
func (m *Manager) Submit(ctx context.Context, spec JobSpec) (View, error) {
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return View{}, ErrDraining
	}
	if len(m.queue) == cap(m.queue) {
		m.metrics.Counter("jobs_rejected").Add(1)
		return View{}, ErrQueueFull
	}
	j := &Job{
		id:        m.nextID,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		stream:    telemetry.NewStream(0),
	}
	if err := m.append(ctx, Record{ID: j.id, State: StateQueued, Spec: &spec}); err != nil {
		return View{}, err
	}
	m.nextID++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	j.stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: j.id, State: string(StateQueued)})
	m.queue <- j // cannot block: capacity checked under the same lock
	m.queued++
	m.metrics.Counter("jobs_submitted").Add(1)
	m.setGaugesLocked()
	m.logger.WithJob(j.id).Info("job submitted", "name", spec.DisplayName())
	return j.view(), nil
}

// runJob drives one job through running to a terminal state.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	m.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue; nothing to run.
		m.mu.Unlock()
		m.setGauges()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	j.state = StateRunning
	m.queued--
	m.running++
	j.started = time.Now()
	j.cancel = cancel
	tracer := obs.NewTracer("extract")
	j.ledger = obs.NewLedger()
	// Live telemetry: every span open/close and probe record fans out
	// to the job's SSE stream as it happens, and every probe record
	// into the registry. stream is write-once at admission, so reading
	// it outside the lock is safe.
	stream := j.stream
	tracer.SetSink(func(e obs.SpanEvent) { stream.Publish(e) })
	j.ledger.SetSink(func(e obs.ProbeEvent) {
		stream.Publish(e)
		m.metrics.RecordProbe(e)
	})
	spec := j.spec
	m.setGaugesLocked()
	m.mu.Unlock()
	m.append(ctx, Record{ID: j.id, State: StateRunning})
	stream.Publish(obs.RunHeader{Type: obs.TypeRun, App: spec.DisplayName(), Workers: spec.Workers, Seed: spec.Seed})
	stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: j.id, State: string(StateRunning)})
	m.logger.WithJob(j.id).Info("job started", "name", spec.DisplayName())

	exe, db, err := materialize(spec)
	var ext *core.Extraction
	if err == nil {
		cfg := jobConfig(spec)
		cfg.Tracer = tracer
		cfg.Ledger = j.ledger
		if m.probeCache != nil {
			// The daemon-wide durable tier, scoped to this job's
			// executable identity: an identical job on a warm cache
			// re-invokes the application zero times.
			cfg.SharedCache = m.probeCache.Namespace(spec.CacheKey())
		}
		ext, err = core.ExtractContext(jctx, exe, db, cfg)
	}
	cancel()

	m.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	m.running--
	latency := j.finished.Sub(j.started)
	rec := Record{ID: j.id}
	switch {
	case err == nil:
		j.state = StateDone
		j.sql = ext.SQL
		j.summary = ext.Summary()
		j.stats = ext.Stats
		j.trace = ext.Trace
		rec.State, rec.SQL, rec.Stats = StateDone, ext.SQL, &ext.Stats
		m.metrics.Counter("jobs_done").Add(1)
		m.metrics.Counter("engine_join_builds_reused").Add(ext.Stats.JoinBuildsReused)
		m.metrics.Counter("engine_vector_batches").Add(ext.Stats.VectorBatches)
	case j.cancelRequested && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.state = StateCancelled
		j.errMsg = err.Error()
		j.trace = tracer.Events()
		rec.State, rec.Err = StateCancelled, j.errMsg
		m.metrics.Counter("jobs_cancelled").Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.trace = tracer.Events()
		rec.State, rec.Err = StateFailed, j.errMsg
		m.metrics.Counter("jobs_failed").Add(1)
	}
	// Recorded before the lock is released, so whoever reads the job as
	// terminal also reads its phases in the registry.
	m.metrics.RecordPhases(j.trace)
	state, errMsg := j.state, j.errMsg
	m.setGaugesLocked()
	m.mu.Unlock()
	m.append(ctx, rec)

	// Terminal frame, then close: late subscribers get the full replay
	// (header, spans, probes, lifecycle) and an immediate end-of-stream.
	stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: j.id, State: string(state), Err: errMsg})
	stream.Close()
	log := m.logger.WithJob(j.id).With("latency_ms", float64(latency.Microseconds())/1e3)
	if state == StateDone {
		log.Info("job done",
			"total_ms", float64(ext.Stats.Total.Microseconds())/1e3,
			"invocations", ext.Stats.AppInvocations)
	} else {
		log.Warn("job "+string(state), "err", errMsg)
	}

	m.metrics.Histogram("job_latency_ms").Observe(float64(latency.Microseconds()) / 1e3)
}

// materialize builds a job's executable and database; tests swap in a
// job that blocks until it is cancelled.
var materialize = JobSpec.Materialize

// jobConfig maps the spec's knobs onto the pipeline configuration.
func jobConfig(spec JobSpec) core.Config {
	cfg := core.DefaultConfig()
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	entry, _ := registry.Lookup(spec.App)
	cfg.ExtractHaving = spec.Having || entry.Having
	if spec.Workers > 0 {
		cfg.Workers = spec.Workers
	}
	// The service is the production surface: always verify static
	// class membership on top of the instance checker.
	cfg.VerifyEQC = true
	return cfg
}

// Cancel requests cancellation of a job: a queued job is terminally
// cancelled in place, a running job has its extraction context
// cancelled (the terminal transition is recorded by the worker when
// the pipeline unwinds). Cancelling a terminal job reports
// ErrTerminal.
func (m *Manager) Cancel(ctx context.Context, id int64) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return View{}, ErrUnknownJob
	}
	switch {
	case j.state.Terminal():
		v := j.view()
		m.mu.Unlock()
		return v, ErrTerminal
	case j.state == StateQueued:
		j.state = StateCancelled
		j.finished = time.Now()
		j.errMsg = "cancelled before start"
		j.cancelRequested = true
		m.queued--
		v := j.view()
		stream := j.stream
		m.metrics.Counter("jobs_cancelled").Add(1)
		m.setGaugesLocked()
		m.mu.Unlock()
		stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: id, State: string(StateCancelled), Err: "cancelled before start"})
		stream.Close()
		m.logger.WithJob(id).Warn("job cancelled", "err", "cancelled before start")
		m.append(ctx, Record{ID: id, State: StateCancelled, Err: j.errMsg})
		return v, nil
	default: // running
		j.cancelRequested = true
		cancel := j.cancel
		v := j.view()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return v, nil
	}
}

// Get returns the status snapshot of one job.
func (m *Manager) Get(id int64) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrUnknownJob
	}
	return j.view(), nil
}

// Result returns the outcome of a terminal job; ErrNotFinished
// otherwise.
func (m *Manager) Result(id int64) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Result{}, ErrUnknownJob
	}
	if !j.state.Terminal() {
		return Result{}, ErrNotFinished
	}
	return j.result(), nil
}

// List returns every job's snapshot in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// WriteTrace serializes the job's recorded trace — run header, span
// tree, canonical probe ledger — as JSONL. Only terminal jobs have a
// stable trace; a job cancelled before it started has the header
// alone. Traces are process-local (not recovered from the store), so
// jobs replayed from a previous daemon instance have none.
func (m *Manager) WriteTrace(id int64, w io.Writer) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	if !j.state.Terminal() {
		m.mu.Unlock()
		return ErrNotFinished
	}
	if j.stream == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: job predates this daemon instance", ErrUnknownJob)
	}
	header := obs.RunHeader{
		App:     j.spec.DisplayName(),
		Workers: j.stats.Workers,
		Seed:    j.spec.Seed,
	}
	spans := j.trace
	ledger := j.ledger
	m.mu.Unlock()
	return obs.WriteTrace(w, header, spans, ledger)
}

// TraceStream returns the job's live telemetry stream for SSE
// subscription. A terminal job's stream is closed: subscribers get
// the full replay and an immediate end-of-stream. Jobs replayed from
// a previous daemon instance carry no stream.
func (m *Manager) TraceStream(id int64) (*telemetry.Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.stream == nil {
		return nil, fmt.Errorf("%w: job predates this daemon instance", ErrUnknownJob)
	}
	return j.stream, nil
}

// Counts tallies jobs by state (for /healthz and tests).
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[State]int{}
	for _, j := range m.jobs {
		out[j.state]++
	}
	return out
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// QueueDepth reports the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int {
	return len(m.queue)
}

// Drain gracefully shuts the manager down: admission stops
// (submissions fail with ErrDraining), already-accepted jobs — queued
// and running — are completed, then the job store and the durable
// probe cache are closed. If ctx
// expires first, every remaining job's extraction is cancelled and
// Drain waits for the workers to unwind before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue) // workers finish the backlog, then exit
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.cancelRemaining()
		<-done
	}
	if cerr := m.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := m.probeCache.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// cancelRemaining aborts every non-terminal job (hard drain).
func (m *Manager) cancelRemaining() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.state.Terminal() {
			continue
		}
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		} else if j.state == StateQueued {
			j.state = StateCancelled
			m.queued--
			j.finished = time.Now()
			j.errMsg = "cancelled by drain"
			j.stream.Publish(obs.JobEvent{Type: obs.TypeJob, ID: j.id, State: string(StateCancelled), Err: j.errMsg})
			j.stream.Close()
		}
	}
	m.setGaugesLocked()
}

// append writes one store record stamped with the wall clock; a nil
// store (ephemeral manager) swallows it.
func (m *Manager) append(ctx context.Context, rec Record) error {
	rec.TSUS = time.Now().UnixMicro()
	return m.store.Append(ctx, rec)
}

// setGauges / setGaugesLocked publish the queue depth and the
// queued and running counters.
func (m *Manager) setGauges() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setGaugesLocked()
}

func (m *Manager) setGaugesLocked() {
	if m.metrics == nil {
		return
	}
	m.metrics.Gauge("queue_depth").Set(int64(len(m.queue)))
	m.metrics.Gauge("jobs_running").Set(m.running)
	m.metrics.Gauge("jobs_queued").Set(m.queued)
}
