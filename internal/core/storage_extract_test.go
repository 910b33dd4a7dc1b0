package core_test

// storage_extract_test.go — pins the contract the durable probe cache
// owes the extraction pipeline: a cache that survives a "restart"
// (close/reopen) lets a repeat extraction finish with zero
// application invocations and identical SQL, with the ledger
// invariant len == invocations + memory hits + disk hits holding
// throughout.

import (
	"path/filepath"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/storage"
	"unmasque/internal/workloads/registry"
)

func TestDurableCacheWarmRestart(t *testing.T) {
	const appName = "enki/posts_by_tag"
	cachePath := filepath.Join(t.TempDir(), "probecache.log")
	ns := storage.AppNamespace(appName, 1)

	run := func() (*core.Extraction, *obs.Ledger) {
		exe, db, err := registry.Build(appName, 1)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := storage.OpenProbeCache(cachePath)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := pc.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.Ledger = obs.NewLedger()
		cfg.SharedCache = pc.Namespace(ns)
		ext, err := core.Extract(exe, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ext, cfg.Ledger
	}

	cold, coldLedger := run()
	if cold.Stats.AppInvocations == 0 {
		t.Fatal("cold run reports zero app invocations")
	}
	warm, warmLedger := run()

	if warm.SQL != cold.SQL {
		t.Fatalf("SQL diverges across restarts\nwarm:\n%s\ncold:\n%s", warm.SQL, cold.SQL)
	}
	if warm.Stats.AppInvocations != 0 {
		t.Fatalf("warm run invoked the application %d times", warm.Stats.AppInvocations)
	}
	if warm.Stats.DiskCacheHits == 0 {
		t.Fatal("warm run reports zero disk hits")
	}
	if warm.Stats.CacheHitRate() != 1 {
		t.Fatalf("warm CacheHitRate = %v, want 1", warm.Stats.CacheHitRate())
	}

	// Ledger invariant: every cache-eligible probe is accounted to
	// exactly one of invocation / memory hit / disk hit.
	for name, pair := range map[string]struct {
		ext    *core.Extraction
		ledger *obs.Ledger
	}{"cold": {cold, coldLedger}, "warm": {warm, warmLedger}} {
		s := pair.ext.Stats
		if got, want := int64(pair.ledger.Len()), s.AppInvocations+s.CacheHits+s.DiskCacheHits; got != want {
			t.Fatalf("%s: ledger has %d events, stats account for %d (inv=%d mem=%d disk=%d)",
				name, got, want, s.AppInvocations, s.CacheHits, s.DiskCacheHits)
		}
	}
}
