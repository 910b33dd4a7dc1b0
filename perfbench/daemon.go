package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unmasque/internal/service"
)

// clients is the closed-loop client count: it matches the daemon's
// default -workers 2 on the 2-core reference host.
const clients = 2

// clockTicks is the Linux USER_HZ that /proc/<pid>/stat counts in.
const clockTicks = 100

const daemonConditions = "unmasqued with default flags (-workers 2 -queue-depth 64 -log-level info) plus " +
	"-addr 127.0.0.1:0 -port-file -store -cache-dir; the job store fsyncs every transition; " +
	"closed loop of 2 clients, latency from POST /jobs until the job's SSE stream closes"

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}}

// daemon is one running unmasqued process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dir     string
	started time.Time
	exited  chan struct{}
}

// startDaemon starts unmasqued with its job store, port file and log in
// dir and its probe cache in cacheDir, and returns once /healthz
// answers, with the time that took.
func startDaemon(ctx context.Context, bin, dir, cacheDir string, extra ...string) (*daemon, time.Duration, error) {
	portFile := filepath.Join(dir, "port")
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "daemon.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile,
		"-store", filepath.Join(dir, "jobs.jsonl"), "-cache-dir", cacheDir}, extra...)
	cmd := exec.Command(filepath.Join(bin, "unmasqued"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting unmasqued: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, started: start, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(ctx, portFile); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// awaitReady polls for the port file, then for a healthy /healthz.
func (d *daemon) awaitReady(ctx context.Context, portFile string) error {
	for d.base == "" {
		if data, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if err := d.pause(ctx); err != nil {
			return err
		}
	}
	for {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := d.pause(ctx); err != nil {
			return err
		}
	}
}

func (d *daemon) pause(ctx context.Context) error {
	select {
	case <-d.exited:
		log, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
		return fmt.Errorf("unmasqued exited during start-up: %s", lastLine(string(log)))
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(200 * time.Microsecond):
		return nil
	}
}

// stop sends SIGTERM, which drains the daemon, and waits for the
// process to end; a daemon that does not drain in time is killed.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu is the daemon's user + system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(u+s) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// phase is one measured stretch of jobs against a running daemon.
type phase struct {
	obs   []jobObs
	wall  time.Duration
	cpuMS float64
	rssMB float64
}

// measure runs jobs through a closed loop of clients and reads the
// daemon's CPU and peak RSS around them. Results are fetched after the
// clock stops.
func (d *daemon) measure(ctx context.Context, jobs []job, tr *tracer) (*phase, error) {
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	obs, err := d.runJobs(ctx, jobs, tr)
	if err != nil {
		return nil, err
	}
	ph := &phase{obs: obs, wall: time.Since(start)}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	ph.cpuMS = ms(cpu1 - cpu0)
	if ph.rssMB, err = d.peakRSS(); err != nil {
		return nil, err
	}
	return ph, d.fetchResults(ctx, ph.obs)
}

// runJobs drives the jobs through the closed loop: each client submits
// its next job only after the previous one's stream has closed.
func (d *daemon) runJobs(ctx context.Context, jobs []job, tr *tracer) ([]jobObs, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	obs := make([]jobObs, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				o, err := d.submit(ctx, jobs[i], tr)
				if err != nil {
					once.Do(func() { firstErr = err; cancel() })
					return
				}
				obs[i] = o
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return obs, firstErr
}

// submit posts one job and follows its SSE stream until the daemon
// closes it at the job's terminal transition.
func (d *daemon) submit(ctx context.Context, j job, tr *tracer) (jobObs, error) {
	spec, _ := json.Marshal(service.JobSpec{App: j.App, Seed: j.Seed})
	root := tr.begin()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/jobs", bytes.NewReader(spec))
	if err != nil {
		return jobObs{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var view service.View
	if err := doJSON(req, http.StatusAccepted, &view); err != nil {
		return jobObs{}, fmt.Errorf("submitting %s: %w", j.App, err)
	}
	submitted := time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d/trace/stream", d.base, view.ID), nil)
	if err != nil {
		return jobObs{}, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return jobObs{}, fmt.Errorf("streaming job %d: %w", view.ID, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return jobObs{}, fmt.Errorf("streaming job %d: %w", view.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return jobObs{}, fmt.Errorf("streaming job %d: %s", view.ID, resp.Status)
	}
	end := time.Now()
	if tr != nil {
		tr.add(span{Name: "service.submit", Parent: root, Job: view.ID}, start, submitted)
		tr.add(span{Name: "service.stream", Parent: root, Job: view.ID}, submitted, end)
		tr.addAs(root, span{Name: "job", Job: view.ID}, start, end)
	}
	return jobObs{job: j, ID: view.ID, LatencyMS: ms(end.Sub(start))}, nil
}

// fetchResults reads each job's terminal outcome.
func (d *daemon) fetchResults(ctx context.Context, obs []jobObs) error {
	for i := range obs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result", d.base, obs[i].ID), nil)
		if err != nil {
			return err
		}
		var res service.Result
		if err := doJSON(req, http.StatusOK, &res); err != nil {
			return fmt.Errorf("result of job %d: %w", obs[i].ID, err)
		}
		obs[i].SQL = res.SQL
		obs[i].OK = res.State == service.StateDone && res.SQL != ""
		if !obs[i].OK {
			obs[i].Err = fmt.Sprintf("state %s: %s", res.State, res.Error)
		}
	}
	return nil
}

func doJSON(req *http.Request, want int, v any) error {
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// measureRounds runs each round of jobs on its own daemon, with a
// fresh job store and the probe cache cacheFor gives, and stops it
// afterwards. Every start is a set-up sample; extra starts bring them to
// at least daemonSetupReps.
func measureRounds(ctx context.Context, b *bench, rounds [][]job, cacheFor func(i int) (string, error)) (*phase, []roundStat, []float64, error) {
	var setup []float64
	start := func(i int) (*daemon, error) {
		dir, err := b.scratchDir(fmt.Sprintf("daemon-%d", i))
		if err != nil {
			return nil, err
		}
		cache, err := cacheFor(i)
		if err != nil {
			return nil, err
		}
		d, ready, err := startDaemon(ctx, b.bin, dir, cache)
		if err != nil {
			return nil, err
		}
		setup = append(setup, ready.Seconds())
		return d, nil
	}
	for i := len(rounds); i < daemonSetupReps; i++ {
		d, err := start(i)
		if err != nil {
			return nil, nil, nil, err
		}
		d.stop()
	}
	all := &phase{}
	var stats []roundStat
	for r, jobs := range rounds {
		d, err := start(r)
		if err != nil {
			return nil, nil, nil, err
		}
		ph, err := d.measure(ctx, jobs, nil)
		d.stop()
		if err != nil {
			return nil, nil, nil, err
		}
		all.obs = append(all.obs, ph.obs...)
		all.cpuMS += ph.cpuMS
		stats = append(stats, roundStat{jobs: len(jobs), wall: ph.wall, rssMB: ph.rssMB})
	}
	return all, stats, setup, nil
}

// runDaemonCold is the daemon-cold workload: every round starts a
// daemon on a fresh probe cache, so every probe of its (app, seed)
// pairs misses the durable cache and is appended to it.
func runDaemonCold(ctx context.Context, b *bench) (*report, error) {
	w := b.workload
	ph, rounds, setup, err := measureRounds(ctx, b, w.schedule(b.seed, w.rounds(b.seconds)), func(i int) (string, error) {
		return b.scratchDir(fmt.Sprintf("cache-%d", i))
	})
	if err != nil {
		return nil, err
	}
	b.meta["conditions"] = daemonConditions + "; every round a fresh daemon on a fresh cache"
	return summarize(ph.obs, gate(ctx, ph.obs), endToEnd(b, setup, ph.obs, rounds, ph.cpuMS)), nil
}

// fillCache runs the workload's job set once, untimed, on a daemon whose
// probe cache is cacheDir, filling it with every (app, seed) pair.
func fillCache(ctx context.Context, b *bench, cacheDir string) ([]jobObs, error) {
	dir, err := b.scratchDir("fill")
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemon(ctx, b.bin, dir, cacheDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	obs, err := d.runJobs(ctx, b.workload.schedule(b.seed, 1)[0], nil)
	if err != nil {
		return nil, err
	}
	return obs, d.fetchResults(ctx, obs)
}

// runDaemonWarm is the daemon-warm workload: one untimed round fills
// the probe cache; every timed round restarts the daemon on it (set-up
// includes the cache log replay) and repeats the exact same pairs, so
// no probe runs the application.
func runDaemonWarm(ctx context.Context, b *bench) (*report, error) {
	w := b.workload
	cache, err := b.scratchDir("cache")
	if err != nil {
		return nil, err
	}
	fill, err := fillCache(ctx, b, cache)
	if err != nil {
		return nil, err
	}
	ph, rounds, setup, err := measureRounds(ctx, b, w.schedule(b.seed, w.rounds(b.seconds)), func(int) (string, error) { return cache, nil })
	if err != nil {
		return nil, err
	}
	b.meta["conditions"] = daemonConditions + "; one untimed round fills the cache, every round restarts the daemon on it with a fresh job store"
	all := append(fill, ph.obs...)
	return summarize(all, gate(ctx, all), endToEnd(b, setup, ph.obs, rounds, ph.cpuMS)), nil
}
