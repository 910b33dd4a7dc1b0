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
// memoization cache, and the one probe path every run of E takes,
// which records each probe once, on the obs.Ledger.
//
// Scheduler: pipeline modules whose probes are mutually independent —
// from-clause rename probes (one per table range of a group-testing
// level), filter extraction (one search per column), projection
// dependency and coefficient probes (one per mutation unit / grid
// corner) — fan out over a bounded worker pool of Config.Workers
// goroutines. Every
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
// pool worker is running it, its index among the phase's fan-out
// probes, and its span in the trace tree. Sequential probe sites (the
// minimizer's dependent halvings, binary-search steps, baseline runs)
// pass a nil probeCtx, which reads as worker 0 / index 0 / no span.
type probeCtx struct {
	worker int // 0 = main goroutine, 1..W = pool worker
	index  int // probe index within the phase, across its fan-outs
	span   *obs.Span
}

// parallelFor runs fn(0..n-1) over the session's worker pool and
// returns the error of the lowest failing index (the same error the
// sequential loop would have surfaced first, keeping failure modes
// deterministic). With one worker — or a single item — it degenerates
// to the plain sequential loop. Each iteration receives a probeCtx
// carrying its worker id, its probe index and a per-probe trace span.
//
// Probe indices continue across the fan-outs of one phase: fan-out
// item i gets the phase's next free index plus i, so sibling probe
// spans never share a seq and each equals the probe index of its
// ledger events. parallelFor is only called from the main goroutine
// between fan-outs, so the per-phase counter needs no lock.
func (s *Session) parallelFor(n int, fn func(pc *probeCtx, i int) error) error {
	if n <= 0 {
		return nil
	}
	base := s.phaseProbes
	s.phaseProbes += n
	workers := s.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := s.probeStep(0, base, i, fn); err != nil {
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
				errs[i] = s.probeStep(worker, base, i, fn)
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

// probeStep wraps fan-out iteration i in its probe span. The span's
// sibling index is the probe index base+i, not arrival order, so the
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
func (s *Session) probeStep(worker, base, i int, fn func(pc *probeCtx, i int) error) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	pc := &probeCtx{worker: worker, index: base + i, span: s.phaseSpan.Child("probe", base+i)}
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
	// joined records that a probe other than the leader reserved the
	// flight; guarded by runCache.mu.
	joined bool
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
		e.joined = true
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
// same fingerprint re-reserves and reads the disk tier instead. The
// leader's caller owns res, so the flight keeps a copy, unless no
// other probe can read it: a withdrawn flight nobody joined.
func (c *runCache) complete(fp sqldb.Fingerprint, e *cacheEntry, res *sqldb.Result, err error, retain bool) {
	c.mu.Lock()
	if !retain {
		delete(c.entries, fp)
	}
	read := retain || e.joined
	c.mu.Unlock()
	if read {
		e.res = res.Clone()
	}
	e.err, e.ok = err, true
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

// run executes E against db under the general execution deadline.
func (s *Session) run(pc *probeCtx, db *sqldb.Database) (*sqldb.Result, error) {
	return s.probe(pc, db, obs.ProbeEvent{Kind: obs.KindExec}, execTimeout)
}

// probe is the one path every run of E takes: it executes E against db
// under timeout (and the session context), serving content-identical
// probes from the two-tier cache: the in-session single-flight map
// first, then (when a shared persistent cache is attached) the durable
// cross-job tier. ev carries the probe's identity (kind, and the
// renamed tables of a KindRename probe); probe fills in the rest.
//
// Large databases bypass each tier independently — above
// maxMemCacheRows results are not retained in RAM, above
// maxDiskCacheRows the persistent tier is not consulted either
// (hashing would rival execution cost). Rename probes never enter the
// in-session tier: no two probes of one extraction hide the same
// tables, so retaining their results would only keep clones alive.
// Every path records exactly one ledger event: one per completed E
// invocation, one per in-memory hit, one per persistent-tier hit —
// which is what makes the ledger's event count equal
// Stats.AppInvocations + Stats.CacheHits + Stats.DiskCacheHits.
//
// Determinism note: for instances within maxMemCacheRows the flight is
// retained, so the outcome multiset per fingerprint (one miss-or-disk
// plus k hits) is identical for every worker count. For larger
// instances served only by the persistent tier the split between "hit"
// (waited on a flight) and "disk" (re-read the persistent tier) is
// timing-dependent; the executed count is not.
//
// pc attributes the probe to its scheduler slot; sequential sites
// pass nil.
func (s *Session) probe(pc *probeCtx, db *sqldb.Database, ev obs.ProbeEvent, timeout time.Duration) (*sqldb.Result, error) {
	rows := db.TotalRows()
	memOK := ev.Kind == obs.KindExec && rows <= maxMemCacheRows
	diskOK := s.shared != nil && rows <= maxDiskCacheRows
	if !memOK && !diskOK {
		ev.Cache = obs.CacheBypass
		return s.execute(pc, db, ev, timeout)
	}
	fp := db.Fingerprint()
	ev.FP = fp.Hex()
	for {
		e, leader := s.cache.reserve(fp)
		if !leader {
			start := s.cfg.Clock()
			<-e.done
			if !e.ok {
				continue // flight aborted (timeout); retry as leader
			}
			s.cache.hits.Add(1)
			ev.Cache = obs.CacheHit
			s.observe(pc, ev, e.res, e.err, s.cfg.Clock().Sub(start))
			return e.res.Clone(), e.err
		}
		if diskOK {
			start := s.cfg.Clock()
			if res, err, ok := s.shared.Get(fp); ok {
				s.cache.diskHits.Add(1)
				ev.Cache = obs.CacheDisk
				s.observe(pc, ev, res, err, s.cfg.Clock().Sub(start))
				s.cache.complete(fp, e, res, err, memOK)
				return res, err
			}
		}
		s.cache.misses.Add(1)
		ev.Cache = obs.CacheMiss
		res, err := s.execute(pc, db, ev, timeout)
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
		s.cache.complete(fp, e, res, err, memOK)
		return res, err
	}
}

// execute runs E once under timeout (and the session context) and
// records the invocation.
func (s *Session) execute(pc *probeCtx, db *sqldb.Database, ev obs.ProbeEvent, timeout time.Duration) (*sqldb.Result, error) {
	start := s.cfg.Clock()
	res, err := app.RunCtx(s.ctx, s.exe, db, timeout)
	s.observe(pc, ev, res, err, s.cfg.Clock().Sub(start))
	return res, err
}

// isCtxErr reports whether err carries a context cancellation or
// deadline expiry — the session-context outcomes that must abort the
// pipeline rather than be folded into probe observations.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// observe fills the outcome, attribution and timing fields of one
// probe event and records it on the session's ledger. The caller
// provides the probe identity (kind, table, fingerprint, cache
// outcome); phase attribution comes from the session's current phase,
// which only changes between fan-outs.
func (s *Session) observe(pc *probeCtx, ev obs.ProbeEvent, res *sqldb.Result, err error, dur time.Duration) {
	if s.ledger == nil {
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
	if pc != nil {
		ev.Worker, ev.Probe = pc.worker, pc.index
	}
	ev.DurUS = dur.Microseconds()
	s.ledger.Record(ev)
}
