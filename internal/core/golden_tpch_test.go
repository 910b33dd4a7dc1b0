package core_test

// golden_tpch_test.go — end-to-end extraction pins on three TPC-H
// applications (registry seed 1): the extracted SQL, the number of
// application invocations and the stripped trace (run header, span
// tree, probe ledger) must match the golden files under testdata/.
// The files were recorded when the vector engine and the tree-walking
// oracle (now internal/sqldb/oracle_test.go) both ran the whole
// pipeline and produced them byte for byte, so they pin the engine's
// observable behaviour without running the oracle here. Regenerate
// with `go test ./internal/core -run GoldenTPCH -update`.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/workloads/registry"
)

func TestExtractionGoldenTPCH(t *testing.T) {
	for _, appName := range []string{"tpch/Q3", "tpch/Q6", "tpch/Q10"} {
		t.Run(appName, func(t *testing.T) {
			exe, db, err := registry.Build(appName, 1)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			cfg := core.DefaultConfig()
			cfg.Seed = 1
			cfg.Tracer = obs.NewTracer("extract")
			cfg.Ledger = obs.NewLedger()
			ext, err := core.Extract(exe, db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			header := obs.RunHeader{App: exe.Name(), Workers: ext.Stats.Workers, Seed: cfg.Seed}
			if err := obs.WriteTrace(&buf, header, ext.Trace, cfg.Ledger); err != nil {
				t.Fatal(err)
			}
			trace, err := obs.StripVolatile(buf.Bytes())
			if err != nil {
				t.Fatalf("trace does not strip: %v", err)
			}

			base := filepath.Join("testdata", "golden_"+strings.ReplaceAll(appName, "/", "_"))
			pinned := fmt.Sprintf("-- %s, registry seed 1: app_invocations=%d\n%s\n",
				appName, ext.Stats.AppInvocations, ext.SQL)
			checkGolden(t, base+".sql", []byte(pinned))
			checkGolden(t, base+".jsonl", trace)
		})
	}
}
