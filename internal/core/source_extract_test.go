package core_test

import (
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/workloads/registry"
)

// TestExtractLeavesSourceUnchanged: extraction never writes D_I. The
// silo shares D_I's Row values until the minimizer ends, so a value
// write in any phase before then would change D_I's fingerprint. The
// apps cover the SQL, having (row removal and merge-and-boost),
// deep-join and imperative pipelines.
func TestExtractLeavesSourceUnchanged(t *testing.T) {
	for _, name := range []string{
		"tpch/Q1", "tpch/Q18", "tpch/H1", "job/J11", "wilos/RoleDao.list", "enki/posts_by_tag",
	} {
		t.Run(name, func(t *testing.T) {
			exe, db, err := registry.Build(name, 1)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			before := db.Fingerprint()
			cfg := core.DefaultConfig()
			cfg.Seed = 1
			cfg.ExtractHaving = strings.HasPrefix(name, "tpch/H")
			_, err = core.Extract(exe, db, cfg)
			if db.Fingerprint() != before {
				t.Fatal("extraction changed D_I")
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
