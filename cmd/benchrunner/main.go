// Command benchrunner regenerates the paper's tables and figures
// (the per-experiment index is in DESIGN.md; measured outputs are
// recorded in EXPERIMENTS.md).
//
// Usage:
//
//	benchrunner -exp all            # every experiment, paper scales
//	benchrunner -exp fig9 -quick    # one experiment, reduced scale
//	benchrunner -exp obs -quick -snapshot .   # also write BENCH_obs.json
//
// Experiments: fig8, fig9, fig10, fig11, schemascale, enki, wilos,
// rubis, tpcds, ablation, having, obs, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"unmasque/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (fig8|fig9|fig10|fig11|schemascale|enki|wilos|rubis|tpcds|ablation|having|obs|all)")
		quick    = flag.Bool("quick", false, "reduced scales and budgets (~1 minute total)")
		seed     = flag.Int64("seed", 1, "generation and extraction seed")
		snapshot = flag.String("snapshot", "", "directory to write BENCH_<exp>.json row snapshots into")
	)
	flag.Parse()

	opt := bench.DefaultOptions()
	opt.Quick = *quick
	opt.Seed = *seed

	// Each runner renders its table on stdout and returns its typed
	// rows (nil for experiments without a row form) for -snapshot.
	runners := map[string]func() (any, error){
		"fig8":        func() (any, error) { return bench.Fig8(os.Stdout, opt) },
		"fig9":        func() (any, error) { return bench.Fig9(os.Stdout, opt) },
		"fig10":       func() (any, error) { return bench.Fig10(os.Stdout, opt) },
		"fig11":       func() (any, error) { return bench.Fig11(os.Stdout, opt) },
		"schemascale": func() (any, error) { return bench.SchemaScale(os.Stdout, opt) },
		"enki":        func() (any, error) { return bench.Enki(os.Stdout, opt) },
		"wilos":       func() (any, error) { return bench.Wilos(os.Stdout, opt) },
		"rubis":       func() (any, error) { return bench.Rubis(os.Stdout, opt) },
		"tpcds":       func() (any, error) { return bench.TPCDS(os.Stdout, opt) },
		"ablation":    func() (any, error) { return bench.Ablation(os.Stdout, opt) },
		"having":      func() (any, error) { return bench.Having(os.Stdout, opt) },
		"obs":         func() (any, error) { return bench.Obs(os.Stdout, opt) },
	}
	order := []string{"fig8", "fig9", "fig10", "fig11", "schemascale", "enki", "wilos", "rubis", "tpcds", "ablation", "having", "obs"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s, all\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	run(selected, runners, opt, *snapshot)
}

// writeSnapshot places one experiment's EncodeSnapshot output at path.
func writeSnapshot(path, experiment string, opt bench.Options, rows any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.EncodeSnapshot(f, experiment, opt, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(selected []string, runners map[string]func() (any, error), opt bench.Options, snapshot string) {
	for _, name := range selected {
		rows, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
		if snapshot != "" && rows != nil {
			path := filepath.Join(snapshot, "BENCH_"+name+".json")
			if err := writeSnapshot(path, name, opt, rows); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: snapshot: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}
