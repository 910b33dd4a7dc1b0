// Package telemetry turns the obs layer's in-process records into
// operable, external-facing telemetry:
//
//   - prom.go renders an obs.Metrics registry in the Prometheus text
//     exposition format (0.0.4): counters, gauges and histograms with
//     cumulative buckets, _sum/_count series and deterministic
//     family/label ordering. It is the registry's one rendering: the
//     daemon's /metrics serves it and unmasque -metrics prints it.
//   - promparse.go is the matching parser/validator — CI scrapes the
//     live daemon and round-trips the text through it, so a format
//     regression fails the gate rather than a production scrape.
//   - catapult.go exports a recorded trace (run header, span tree,
//     probe ledger) as Chrome trace-event JSON, openable in
//     about://tracing or Perfetto: phases and probes become complete
//     events on per-worker tracks.
//   - stream.go is the live-trace broker behind the service's
//     GET /jobs/{id}/trace/stream SSE endpoint: a replay buffer plus
//     subscriber fan-out fed by the obs Tracer/Ledger sink hooks, so
//     a running extraction can be tailed as it happens.
//
// Like the rest of obs, everything here is standard library only.
package telemetry
