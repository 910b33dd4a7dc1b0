package bench

// Durable probe-cache measurement: what the cross-job probe cache
// saves a warm daemon.

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"unmasque/internal/core"
	"unmasque/internal/storage"
	"unmasque/internal/workloads/registry"
)

// StorageExtractRow is one application's cold-vs-warm extraction pair
// against a durable probe cache that survives the "daemon restart"
// between the two runs.
type StorageExtractRow struct {
	App string `json:"app"`
	// Application invocations and wall time of the first (cold-cache)
	// extraction.
	ColdInvocations int64   `json:"cold_invocations"`
	ColdMS          float64 `json:"cold_ms"`
	// The same job repeated after the cache was closed and reopened:
	// every probe outcome replays from disk.
	WarmInvocations int64   `json:"warm_invocations"`
	WarmDiskHits    int64   `json:"warm_disk_hits"`
	WarmMS          float64 `json:"warm_ms"`
	SQLIdentical    bool    `json:"sql_identical"`
}

// StorageRows is the storage experiment's snapshot payload.
type StorageRows struct {
	Extract []StorageExtractRow `json:"extract"`
}

// Storage replays the daemon's restart story: each enki application
// is extracted against a cold durable probe cache, the cache is
// closed and reopened (the restart), and the identical job runs
// again — the warm run must invoke the application zero times and
// produce byte-identical SQL. Requires Options.ScratchDir.
func Storage(w io.Writer, opt Options) (*StorageRows, error) {
	if opt.ScratchDir == "" {
		return nil, fmt.Errorf("storage bench: Options.ScratchDir required")
	}
	out := &StorageRows{}

	cachePath := filepath.Join(opt.ScratchDir, "bench-probecache", "probecache.log")
	etbl := &TextTable{
		Title:  "Durable Probe Cache — identical job on a cold vs warm (restarted) daemon",
		Header: []string{"app", "cold_invocations", "cold_ms", "warm_invocations", "warm_disk_hits", "warm_ms", "speedup", "sql_identical"},
	}
	for _, name := range serviceApps() {
		cold, coldMS, err := storageExtract(name, cachePath, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("storage bench %s cold: %w", name, err)
		}
		// Closing and reopening the cache between the runs is the
		// restart: the warm run starts from the persisted log alone.
		warm, warmMS, err := storageExtract(name, cachePath, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("storage bench %s warm: %w", name, err)
		}
		row := StorageExtractRow{
			App:             name,
			ColdInvocations: cold.Stats.AppInvocations,
			ColdMS:          coldMS,
			WarmInvocations: warm.Stats.AppInvocations,
			WarmDiskHits:    warm.Stats.DiskCacheHits,
			WarmMS:          warmMS,
			SQLIdentical:    cold.SQL == warm.SQL,
		}
		out.Extract = append(out.Extract, row)
		speedup := "-"
		if row.WarmMS > 0 {
			speedup = fmt.Sprintf("%.1fx", row.ColdMS/row.WarmMS)
		}
		etbl.Add(row.App, row.ColdInvocations, fmt.Sprintf("%.1f", row.ColdMS),
			row.WarmInvocations, row.WarmDiskHits, fmt.Sprintf("%.1f", row.WarmMS),
			speedup, row.SQLIdentical)
	}
	etbl.Note("the cache is closed and reopened between the runs; warm extractions must invoke the application zero times")
	etbl.Render(w)
	return out, nil
}

// storageExtract runs one extraction with the durable cache open for
// exactly its duration, so consecutive calls model consecutive daemon
// lifetimes.
func storageExtract(appName, cachePath string, seed int64) (*core.Extraction, float64, error) {
	exe, db, err := registry.Build(appName, seed)
	if err != nil {
		return nil, 0, err
	}
	pc, err := storage.OpenProbeCache(cachePath)
	if err != nil {
		return nil, 0, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.SharedCache = pc.Namespace(storage.AppNamespace(appName, seed))
	start := time.Now()
	ext, err := core.Extract(exe, db, cfg)
	wall := time.Since(start)
	if cerr := pc.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	return ext, float64(wall.Microseconds()) / 1000, nil
}
