package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// This file implements the probe scheduler, the executable-run
// memoization cache, and the observation funnel that feeds the
// obs.Ledger / obs.Metrics hooks.
//
// Scheduler: pipeline modules whose probes are mutually independent —
// from-clause rename probes (one per candidate table), filter
// extraction (one search per column), projection dependency and
// coefficient probes (one per mutation unit / grid corner) — fan out
// over a bounded worker pool of Config.Workers goroutines. Every
// probe builds its own database clone, so workers never share mutable
// state; the remaining Session fields read during a fan-out (silo,
// schemas, extracted filters) are frozen for its duration. Results
// are collected positionally and folded back in the sequential probe
// order, so the extracted SQL text is byte-identical for every worker
// count.
//
// Cache: completed executions of E are memoized under a content
// fingerprint of the probe database (sqldb.Fingerprint). Probes on
// content-identical instances — re-probes of a binary-search bound,
// the projection baseline re-run of untouched D_1, symmetric mutation
// corners — skip E.Run entirely. Only databases small enough that
// fingerprinting is far cheaper than execution are eligible
// (maxMemCacheRows); timeouts are never cached.
//
// The cache is single-flight: concurrent probes on the same
// fingerprint elect one leader that runs E while the rest wait on the
// flight and reuse its outcome. Beyond avoiding duplicate work, this
// makes the hit/miss *multiset* — and therefore the canonical probe
// ledger — identical for every worker count: each distinct
// fingerprint produces exactly one miss and k hits no matter how its
// k+1 probes interleaved (which probe was the leader is a volatile,
// stripped detail).

// probeCtx identifies one scheduled probe while it executes: which
// pool worker is running it, its fan-out index, and its span in the
// trace tree. Sequential probe sites (the minimizer's dependent
// halvings, binary-search steps, baseline runs) pass a nil probeCtx,
// which reads as worker 0 / index 0 / no span.
type probeCtx struct {
	worker int // 0 = main goroutine, 1..W = pool worker
	index  int // fan-out index within the phase
	span   *obs.Span
}

func (pc *probeCtx) workerID() int {
	if pc == nil {
		return 0
	}
	return pc.worker
}

func (pc *probeCtx) probeIndex() int {
	if pc == nil {
		return 0
	}
	return pc.index
}

// parallelFor runs fn(0..n-1) over the session's worker pool and
// returns the error of the lowest failing index (the same error the
// sequential loop would have surfaced first, keeping failure modes
// deterministic). With one worker — or a single item — it degenerates
// to the plain sequential loop. Each iteration receives a probeCtx
// carrying its worker id, its index and a per-probe trace span.
func (s *Session) parallelFor(n int, fn func(pc *probeCtx, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := s.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := s.probeStep(0, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	s.parallelProbes.Add(int64(n))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		worker := w + 1
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = s.probeStep(worker, i, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeStep wraps one fan-out iteration in its probe span. The span's
// sibling index is the fan-out index, not arrival order, so the
// exported tree is deterministic for every worker count.
//
// Cancellation is observed here, between probes: a worker about to
// start an iteration after the session context died returns ctx.Err()
// without running the probe (and without opening a span — an aborted
// fan-out must not leave phantom probe children in the trace). The
// lowest-index-error rule of parallelFor then surfaces the context
// error exactly as a sequential loop would have: probes already
// completed keep their outcomes, the first unstarted index carries
// the cancellation.
func (s *Session) probeStep(worker, i int, fn func(pc *probeCtx, i int) error) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	pc := &probeCtx{worker: worker, index: i, span: s.phaseSpan.Child("probe", i)}
	err := fn(pc, i)
	pc.span.EndErr(err)
	return err
}

// Size gates of the two memoization tiers, in total database rows.
// Fingerprinting costs time linear in the instance, so only instances
// where hashing is far cheaper than running E are memoized at all.
const (
	// maxMemCacheRows bounds the instances whose outcomes stay resident
	// in the in-session run cache: generous for the paper's
	// single-row probe databases, far below any realistic D_I.
	maxMemCacheRows = 256
	// maxDiskCacheRows bounds the instances eligible for the shared
	// persistent tier. It is deliberately far above maxMemCacheRows:
	// disk entries cost no RAM and survive the job, so even the full
	// initial instance's probe results are worth keeping.
	maxDiskCacheRows = 1_000_000
)

// runCache memoizes completed application executions by database
// fingerprint. It is shared by all workers of one Session and safe
// for concurrent use.
type runCache struct {
	mu       sync.Mutex
	entries  map[sqldb.Fingerprint]*cacheEntry
	hits     atomic.Int64
	misses   atomic.Int64
	diskHits atomic.Int64
}

// cacheEntry is one execution flight. The reserving leader runs E and
// then completes (ok=true, outcome recorded) or aborts (entry removed
// so a later probe can retry — timeouts are never cached); done is
// closed either way, releasing any waiters. Application-level errors
// are deterministic in the database content (a missing table stays
// missing), so they are cached alongside results.
type cacheEntry struct {
	done chan struct{}
	ok   bool
	res  *sqldb.Result
	err  error
}

func newRunCache() *runCache {
	return &runCache{entries: map[sqldb.Fingerprint]*cacheEntry{}}
}

// reserve returns the flight for fp, creating it (leader=true) when
// none is in progress or recorded. A non-leader must wait on done and
// check ok: a completed flight's outcome can be reused, an aborted one
// means reserve again.
func (c *runCache) reserve(fp sqldb.Fingerprint) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[fp] = e
	return e, true
}

// complete records the leader's outcome and releases the waiters.
// With retain=false the flight is withdrawn after completion: waiters
// already holding the entry still read its outcome, but the result is
// not kept resident — instances above maxMemCacheRows are only memoized
// in the persistent tier (disk, not RAM), and a later probe on the
// same fingerprint re-reserves and reads the disk tier instead.
func (c *runCache) complete(fp sqldb.Fingerprint, e *cacheEntry, res *sqldb.Result, err error, retain bool) {
	e.res, e.err, e.ok = res, err, true
	if !retain {
		c.mu.Lock()
		delete(c.entries, fp)
		c.mu.Unlock()
	}
	close(e.done)
}

// abort withdraws the flight (timeout: not a cacheable outcome) so the
// next probe on the same fingerprint starts fresh.
func (c *runCache) abort(fp sqldb.Fingerprint, e *cacheEntry) {
	c.mu.Lock()
	delete(c.entries, fp)
	c.mu.Unlock()
	close(e.done)
}

// runMemoized executes E against db with the general execution
// deadline, serving content-identical probes from the two-tier cache:
// the in-session single-flight map first, then (when a shared
// persistent cache is attached) the durable cross-job tier. Large
// databases bypass each tier independently — above maxMemCacheRows
// results are not retained in RAM, above maxDiskCacheRows the
// persistent tier is not consulted either (hashing would rival
// execution cost). Every path records exactly one ledger event: one
// per completed E invocation, one per in-memory hit, one per
// persistent-tier hit — which is what makes the ledger's event count
// equal Stats.AppInvocations + Stats.CacheHits + Stats.DiskCacheHits.
//
// Determinism note: for instances within maxMemCacheRows the flight is
// retained, so the outcome multiset per fingerprint (one miss-or-disk
// plus k hits) is identical for every worker count, exactly as
// before. For larger instances served only by the persistent tier the
// split between "hit" (waited on a flight) and "disk" (re-read the
// persistent tier) is timing-dependent; the executed count is not.
func (s *Session) runMemoized(pc *probeCtx, db *sqldb.Database) (*sqldb.Result, error) {
	if s.cache == nil {
		return s.runObserved(pc, db, obs.CacheOff, "")
	}
	rows := db.TotalRows()
	memOK := rows <= maxMemCacheRows
	diskOK := s.shared != nil && rows <= maxDiskCacheRows
	if !memOK && !diskOK {
		return s.runObserved(pc, db, obs.CacheBypass, "")
	}
	fp := db.Fingerprint()
	for {
		e, leader := s.cache.reserve(fp)
		if !leader {
			start := s.cfg.Clock()
			<-e.done
			if !e.ok {
				continue // flight aborted (timeout); retry as leader
			}
			s.cache.hits.Add(1)
			s.observe(pc, obs.ProbeEvent{Kind: obs.KindExec, FP: fp.Hex(), Cache: obs.CacheHit},
				e.res, e.err, s.cfg.Clock().Sub(start))
			return e.res.Clone(), e.err
		}
		if diskOK {
			start := s.cfg.Clock()
			if res, err, ok := s.shared.Get(fp); ok {
				s.cache.diskHits.Add(1)
				s.observe(pc, obs.ProbeEvent{Kind: obs.KindExec, FP: fp.Hex(), Cache: obs.CacheDisk},
					res, err, s.cfg.Clock().Sub(start))
				s.cache.complete(fp, e, res.Clone(), err, memOK)
				return res, err
			}
		}
		s.cache.misses.Add(1)
		res, err := s.runObserved(pc, db, obs.CacheMiss, fp.Hex())
		if errors.Is(err, app.ErrTimeout) || isCtxErr(err) {
			// Neither outcome describes the database content: a timeout
			// may succeed on retry, a cancelled run belongs to a dying
			// extraction. Withdraw the flight instead of caching it.
			s.cache.abort(fp, e)
			return res, err
		}
		if diskOK {
			s.shared.Put(fp, res, err)
		}
		s.cache.complete(fp, e, res.Clone(), err, memOK)
		return res, err
	}
}

// runObserved executes E once under the general deadline (and the
// session context) and records the invocation.
func (s *Session) runObserved(pc *probeCtx, db *sqldb.Database, cache, fp string) (*sqldb.Result, error) {
	start := s.cfg.Clock()
	res, err := app.RunCtx(s.ctx, s.exe, db, execTimeout)
	s.observe(pc, obs.ProbeEvent{Kind: obs.KindExec, FP: fp, Cache: cache}, res, err, s.cfg.Clock().Sub(start))
	return res, err
}

// isCtxErr reports whether err carries a context cancellation or
// deadline expiry — the session-context outcomes that must abort the
// pipeline rather than be folded into probe observations.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// observe fills the outcome, attribution and timing fields of one
// probe event and hands it to the session's ledger and metrics. The
// caller provides the probe identity (kind, table, fingerprint, cache
// outcome); phase attribution comes from the session's current phase,
// which only changes between fan-outs.
func (s *Session) observe(pc *probeCtx, ev obs.ProbeEvent, res *sqldb.Result, err error, dur time.Duration) {
	if s.ledger == nil && s.metrics == nil {
		return
	}
	ev.Phase = s.phaseName
	ev.PhaseSeq = s.phaseSeq
	if err != nil {
		ev.Err = err.Error()
	} else {
		ev.Digest = res.Digest().Hex()
		ev.Rows = res.RowCount()
	}
	ev.Worker = pc.workerID()
	ev.Probe = pc.probeIndex()
	ev.DurUS = dur.Microseconds()
	s.ledger.Record(ev)

	s.metrics.Counter("probes_total").Add(1)
	s.metrics.Counter("cache_" + ev.Cache).Add(1)
	s.metrics.Counter("phase_probes." + ev.Phase).Add(1)
	if ev.Cache != obs.CacheHit && ev.Cache != obs.CacheDisk {
		s.metrics.Counter("app_invocations").Add(1)
		s.metrics.Histogram("probe_latency_ms").Observe(float64(dur.Microseconds()) / 1e3)
	}
	if err != nil {
		s.metrics.Counter("probe_errors").Add(1)
	}
}
