// Command perfbench is the repository's end-to-end benchmark. Its unit
// of work is one extraction job: recover the hidden query of a
// registered application, through the one-shot CLI (cmd/unmasque) or
// through the extraction daemon (cmd/unmasqued), both run as the real
// binaries with their default flags.
//
//	perfbench -workload cli-sql -seed 1 -seconds 20 -trace 0 -bin <dir> -root <repo>
//
// perfbench/run.py builds the binaries and this harness, then runs it;
// see perfbench/README.md for the workloads and metrics.
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) repeats the workload with spans recorded around every
// call into the program's layers, reads the counters the program
// exports, and reports the per-layer metrics. Either way the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runBudget bounds one whole run, set-up and correctness gate included;
// the harness must exit well inside three minutes.
const runBudget = 165 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries the settings of one run.
type bench struct {
	workload *workload
	seed     int64
	seconds  int
	bin      string // directory holding the unmasque and unmasqued binaries
	work     string // scratch directory of this run, removed at exit
	meta     map[string]any
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cli-sql, daemon-cold or daemon-warm")
		seed    = flag.Int64("seed", 1, "workload seed: job order and the D_I generation seeds")
		seconds = flag.Int("seconds", 20, "nominal measured seconds; sets the number of rounds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		bin     = flag.String("bin", "", "directory holding the built unmasque and unmasqued binaries")
		work    = flag.String("work", "", "scratch directory for daemon state (created, removed at exit)")
		vetN    = flag.Int("vet", 0, "instead of a run, vet D_I seeds 1..N for the diSeeds pool")
	)
	flag.Parse()
	if *vetN > 0 {
		if err := vet(context.Background(), *vetN); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload cli-sql|daemon-cold|daemon-warm -seed N -seconds S -trace 0|1 -bin DIR -work DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{workload: w, seed: *seed, seconds: *seconds, bin: *bin, work: *work, meta: runMeta(*name, *seed)}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = w.traced(ctx, b)
	} else {
		rep, err = w.run(ctx, b)
	}
	cancel()
	if rmErr := os.RemoveAll(*work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(b, rep)
}

// emit prints the run metadata, the metrics in a readable table and,
// last, the JSON result line.
func emit(b *bench, rep *report) {
	meta, _ := json.Marshal(b.meta)
	fmt.Printf("meta %s\n", meta)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[n] = metric{0, m.Unit}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// scratchDir makes a fresh directory under the run's work directory.
func (b *bench) scratchDir(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
