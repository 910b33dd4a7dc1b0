// Command unmasqued is the extraction daemon: a long-running HTTP
// server that accepts hidden-query extraction jobs (registered
// workload applications or inline schema+rows+SQL specs), runs them
// on a bounded worker pool, and persists every job transition to an
// append-only JSONL store so a restart recovers the job history and
// re-queues interrupted work.
//
//	unmasqued -addr 127.0.0.1:8774 -workers 4 -store jobs.jsonl
//
// SIGTERM or SIGINT drains gracefully: the listener closes, accepted
// jobs run to completion (bounded by -drain-timeout, after which
// their extractions are cancelled), and the store is synced before
// exit. See DESIGN.md §9 for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unmasque/internal/obs"
	"unmasque/internal/service"
)

// options carries the daemon's flag values.
type options struct {
	addr         string
	workers      int
	queueDepth   int
	storePath    string
	cacheDir     string
	portFile     string
	drainTimeout time.Duration
	pprof        bool
	logLevel     string
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "127.0.0.1:8774", "listen address (host:0 picks a free port)")
	flag.IntVar(&opt.workers, "workers", 2, "extraction worker pool size")
	flag.IntVar(&opt.queueDepth, "queue-depth", 64, "admission queue depth (full queue rejects with 429)")
	flag.StringVar(&opt.storePath, "store", "unmasqued.jobs.jsonl", "durable job log path (empty disables persistence)")
	flag.StringVar(&opt.cacheDir, "cache-dir", "", "durable cross-job probe cache directory (empty disables the durable cache tier)")
	flag.StringVar(&opt.portFile, "port-file", "", "write the bound address to this file once listening")
	flag.DurationVar(&opt.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
	flag.BoolVar(&opt.pprof, "pprof", false, "serve net/http/pprof handlers under /debug/pprof/")
	flag.StringVar(&opt.logLevel, "log-level", "info", "structured log level: debug, info, warn, error, or off")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "unmasqued:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	metrics := obs.NewMetrics()
	var logger *obs.Logger
	if opt.logLevel != "off" && opt.logLevel != "none" {
		level, err := obs.ParseLevel(opt.logLevel)
		if err != nil {
			return err
		}
		logger = obs.NewLogger(os.Stderr, level)
	}

	// The manager deliberately gets a background context, not the
	// signal context: a SIGTERM must not hard-kill running extractions
	// — the drain below decides their fate.
	mgr, err := service.Start(context.Background(), service.Config{
		Workers:    opt.workers,
		QueueDepth: opt.queueDepth,
		StorePath:  opt.storePath,
		CacheDir:   opt.cacheDir,
		Metrics:    metrics,
		Logger:     logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if opt.portFile != "" {
		if err := os.WriteFile(opt.portFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing port file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "unmasqued: listening on %s (workers=%d queue=%d store=%q cache-dir=%q pprof=%v)\n",
		bound, opt.workers, opt.queueDepth, opt.storePath, opt.cacheDir, opt.pprof)

	var handler http.Handler = service.NewServer(mgr)
	if opt.pprof {
		// Mount the profiler next to the API on an explicit mux — the
		// service handler keeps owning everything else. Off by default:
		// profiling endpoints on a production port are opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintf(os.Stderr, "unmasqued: shutting down (drain budget %s)\n", opt.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "unmasqued: http shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "unmasqued: serve:", err)
	}
	if err := mgr.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "unmasqued: drained cleanly")
	return nil
}
