package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"unmasque/internal/core"
	"unmasque/internal/workloads/registry"
)

// cliConfig is the pipeline configuration cmd/unmasque uses by default.
func cliConfig(app string, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ExtractHaving = strings.Contains(app, "/H")
	return cfg
}

// daemonConfig is the configuration internal/service gives a
// registered-app job with only its seed set.
func daemonConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.VerifyEQC = true
	return cfg
}

// vet extracts every app of every workload in-process on D_I seeds
// 1..n, with the configuration of the surface its workload drives, runs
// the correctness gate on the result, and prints each seed on which
// every app passed. It maintains the diSeeds pool.
func vet(ctx context.Context, n int) error {
	good := map[int64]bool{}
	for seed := int64(1); seed <= int64(n); seed++ {
		good[seed] = true
	}
	for _, name := range []string{"cli-sql", "daemon-cold"} {
		for _, app := range workloads[name].apps {
			for seed := int64(1); seed <= int64(n); seed++ {
				exe, db, err := registry.Build(app, seed)
				if err != nil {
					return err
				}
				cfg := daemonConfig(seed)
				if name == "cli-sql" {
					cfg = cliConfig(app, seed)
				}
				start := time.Now()
				ext, err := core.ExtractContext(ctx, exe, db, cfg)
				fmt.Printf("%s seed %d: %.1f ms\n", app, seed, ms(time.Since(start)))
				if err == nil {
					_, err = checkDigest(ctx, job{App: app, Seed: seed}, ext.SQL)
				}
				if err != nil {
					good[seed] = false
					fmt.Printf("fail %s seed %d: %v\n", app, seed, err)
				}
			}
		}
	}
	var pool []string
	for seed := int64(1); seed <= int64(n); seed++ {
		if good[seed] {
			pool = append(pool, fmt.Sprint(seed))
		}
	}
	fmt.Printf("seeds on which every app passes: %s\n", strings.Join(pool, ", "))
	return nil
}
