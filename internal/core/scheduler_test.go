package core

// White-box tests of the probe scheduler (parallelFor) and the
// executable-run memoization cache.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"unmasque/internal/sqldb"
)

func schedSession(workers int) *Session {
	return &Session{cfg: Config{Workers: workers}, ctx: context.Background()}
}

func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		s := schedSession(workers)
		const n = 100
		var hits [n]atomic.Int64
		if err := s.parallelFor(n, func(_ *probeCtx, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	// The same error the sequential loop would surface first must win,
	// regardless of scheduling: index 12 beats index 37.
	for _, workers := range []int{1, 4, 16} {
		s := schedSession(workers)
		err := s.parallelFor(100, func(_ *probeCtx, i int) error {
			if i == 37 || i == 12 {
				return fmt.Errorf("probe %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "probe 12 failed" {
			t.Fatalf("workers=%d: got %v, want error of index 12", workers, err)
		}
	}
}

func TestParallelForCountsPoolProbesOnly(t *testing.T) {
	s := schedSession(4)
	if err := s.parallelFor(10, func(*probeCtx, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.parallelProbes.Load(); got != 10 {
		t.Fatalf("parallelProbes = %d, want 10", got)
	}
	// A single-worker run is the plain sequential loop and must not
	// count as pool dispatch.
	seq := schedSession(1)
	if err := seq.parallelFor(10, func(*probeCtx, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := seq.parallelProbes.Load(); got != 0 {
		t.Fatalf("sequential parallelProbes = %d, want 0", got)
	}
}

func TestRunCacheSingleFlight(t *testing.T) {
	c := newRunCache()
	var fp sqldb.Fingerprint
	fp[0] = 1

	e, leader := c.reserve(fp)
	if !leader {
		t.Fatal("first reserve is not the leader")
	}
	// A second reserve while the flight is open must NOT lead.
	e2, leader2 := c.reserve(fp)
	if leader2 || e2 != e {
		t.Fatalf("concurrent reserve: leader=%v sameEntry=%v", leader2, e2 == e)
	}
	select {
	case <-e2.done:
		t.Fatal("flight reported done before completion")
	default:
	}

	res := &sqldb.Result{Columns: []string{"x"}, Rows: []sqldb.Row{{sqldb.NewInt(7)}}}
	c.complete(fp, e, res, nil, true)
	<-e2.done // released
	if !e2.ok {
		t.Fatal("completed flight not marked ok")
	}
	// Waiters clone before use; mutating a clone must not reach the
	// cached entry.
	got := e2.res.Clone()
	got.Rows[0][0] = sqldb.NewInt(99)
	if e.res.Rows[0][0].I != 7 {
		t.Fatalf("cache entry aliased by a caller mutation: %v", e.res.Rows[0][0])
	}
	// A reserve after completion reuses the recorded outcome.
	e3, leader3 := c.reserve(fp)
	if leader3 || !e3.ok || e3.res.Rows[0][0].I != 7 {
		t.Fatalf("post-completion reserve: leader=%v ok=%v", leader3, e3.ok)
	}
}

// TestRunCacheCopiesOnlyWhatOthersRead: the leader's caller owns the
// result it completes a flight with. A retained flight, or a withdrawn
// one another probe joined, keeps its own copy; a withdrawn flight
// nobody joined keeps none.
func TestRunCacheCopiesOnlyWhatOthersRead(t *testing.T) {
	for _, tc := range []struct {
		name               string
		retain, join, kept bool
	}{
		{"retained", true, false, true},
		{"withdrawn and joined", false, true, true},
		{"withdrawn alone", false, false, false},
	} {
		c := newRunCache()
		var fp sqldb.Fingerprint
		e, _ := c.reserve(fp)
		if tc.join {
			c.reserve(fp)
		}
		res := &sqldb.Result{Columns: []string{"x"}, Rows: []sqldb.Row{{sqldb.NewInt(7)}}}
		c.complete(fp, e, res, nil, tc.retain)
		res.Rows[0][0] = sqldb.NewInt(99) // the caller's own result
		switch {
		case !tc.kept && e.res != nil:
			t.Errorf("%s: the flight keeps a copy nobody reads", tc.name)
		case tc.kept && (e.res == nil || e.res.Rows[0][0].I != 7):
			t.Errorf("%s: the flight does not hold its own copy", tc.name)
		}
	}
}

func TestRunCacheAbortReleasesWaiters(t *testing.T) {
	c := newRunCache()
	var fp sqldb.Fingerprint
	fp[0] = 2
	e, leader := c.reserve(fp)
	if !leader {
		t.Fatal("first reserve is not the leader")
	}
	w, _ := c.reserve(fp)
	c.abort(fp, e) // e.g. the execution timed out: not a cacheable outcome
	<-w.done
	if w.ok {
		t.Fatal("aborted flight marked ok")
	}
	// The fingerprint is free again: the waiter retries as a leader.
	if _, leader := c.reserve(fp); !leader {
		t.Fatal("reserve after abort did not lead")
	}
}
