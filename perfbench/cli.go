package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how often a run repeats its set-up; setup_s is the
// median.
const (
	cliSetupReps    = 21
	daemonSetupReps = 7
)

// runCLI is the cli-sql workload: one `unmasque -app <name> -seed <n>`
// process per job, run in sequence, timed from spawn to exit.
func runCLI(ctx context.Context, b *bench) (*report, error) {
	w := b.workload
	setup, err := cliSetup(ctx, b.bin)
	if err != nil {
		return nil, err
	}
	var obs []jobObs
	var rounds []roundStat
	var cpuMS float64
	for _, jobs := range w.schedule(b.seed, w.rounds(b.seconds)) {
		var rssMB []float64
		start := time.Now()
		for _, j := range jobs {
			o, use, err := cliJob(ctx, b.bin, j)
			if err != nil {
				return nil, err
			}
			obs = append(obs, o)
			cpuMS += use.cpuMS
			rssMB = append(rssMB, use.rssMB)
		}
		// Each job is a process of its own: the round's figure is the
		// median job's peak, which the one largest job (and its GC
		// timing) cannot swing.
		rounds = append(rounds, roundStat{jobs: len(jobs), wall: time.Since(start), rssMB: median(rssMB)})
	}
	b.meta["conditions"] = "one child process at a time, default flags plus -app and -seed"
	return summarize(obs, gate(ctx, obs), endToEnd(b, setup, obs, rounds, cpuMS)), nil
}

// roundStat is what one round measured as a whole.
type roundStat struct {
	jobs  int
	wall  time.Duration
	rssMB float64 // peak RSS of the program under test during the round
}

// cliUsage is the resource use of one child process.
type cliUsage struct {
	cpuMS float64 // user + system CPU
	rssMB float64 // peak resident set
}

// cliJob runs one extraction through the CLI. A non-zero exit is a
// failed job, not an error; errors are reserved for the harness.
func cliJob(ctx context.Context, bin string, j job) (jobObs, cliUsage, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "unmasque"), "-app", j.App, "-seed", strconv.FormatInt(j.Seed, 10))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return jobObs{}, cliUsage{}, fmt.Errorf("starting unmasque: %w", err)
	}
	err := cmd.Wait()
	lat := time.Since(start)
	if ctx.Err() != nil {
		return jobObs{}, cliUsage{}, fmt.Errorf("%s: %w", j.App, ctx.Err())
	}
	o := jobObs{job: j, LatencyMS: ms(lat)}
	if err != nil {
		o.Err = fmt.Sprintf("exit: %v: %s", err, lastLine(stderr.String()))
	} else if o.SQL = parseCLISQL(stdout.String()); o.SQL == "" {
		o.Err = "no SQL in the CLI output"
	} else {
		o.OK = true
	}
	return o, usageOf(cmd), nil
}

func usageOf(cmd *exec.Cmd) cliUsage {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return cliUsage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cliUsage{cpuMS: ms(cpu), rssMB: float64(ru.Maxrss) / 1024} // Maxrss is in KiB on Linux
}

// parseCLISQL extracts the recovered query from the CLI's output: the
// lines between the "-- unmasked query" header and the next comment.
func parseCLISQL(out string) string {
	var sql []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "-- unmasked query"):
			in = true
		case strings.HasPrefix(line, "--"):
			in = false
		case in:
			sql = append(sql, line)
		}
	}
	return strings.TrimSpace(strings.Join(sql, "\n"))
}

// cliSetup times `unmasque -list`: process start, runtime start-up and
// the application catalogue, which every CLI job pays before it
// extracts.
func cliSetup(ctx context.Context, bin string) ([]float64, error) {
	var out []float64
	for i := 0; i < cliSetupReps; i++ {
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "unmasque"), "-list")
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("unmasque -list: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics shared by every workload:
// latency percentiles over all jobs of the run, throughput and peak RSS
// as medians over rounds, CPU per job over the whole run.
func endToEnd(b *bench, setup []float64, obs []jobObs, rounds []roundStat, cpuMS float64) map[string]metric {
	lat := make([]float64, len(obs))
	for i, o := range obs {
		lat[i] = o.LatencyMS
	}
	var rate, rss []float64
	for _, r := range rounds {
		rate = append(rate, math.Round(float64(r.jobs)/r.wall.Seconds()*100)/100)
		rss = append(rss, r.rssMB)
	}
	b.meta["round_jobs_per_s"] = rate
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	b.meta["rounds"] = len(rounds)
	b.meta["jobs"] = len(obs)
	b.meta["beyond_p50"] = beyond(lat, p50)
	b.meta["beyond_p90"] = beyond(lat, p90)
	b.meta["setup_reps"] = len(setup)
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"jobs_per_s":     {median(rate), "jobs/s"},
		"job_ms_p50":     {p50, "ms"},
		"job_ms_p90":     {p90, "ms"},
		"cpu_ms_per_job": {cpuMS / float64(len(obs)), "ms"},
		"peak_rss_mb":    {median(rss), "MiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
