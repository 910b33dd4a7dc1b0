package obs

import (
	"sync"
	"sync/atomic"
)

// Metrics is a small process-local registry of counters, gauges and
// histograms. All operations are safe for concurrent use, and a nil
// *Metrics (observability off) swallows every call, instrument sites
// included, so the pipeline records unconditionally.
//
// Export copies its state with the metric kinds kept apart; the
// telemetry package renders that copy as Prometheus text, the
// registry's one exposition.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe:
// a nil registry returns a nil counter, whose methods no-op.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The
// default buckets target probe latencies in milliseconds.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram(DefaultLatencyBuckets)
		m.hists[name] = h
	}
	return h
}

// RecordProbe folds one ledger event into the registry: probes_total,
// cache_<outcome> and phase_probes.<phase> for every event; for an
// event that ran the executable (every outcome but a memory or disk
// hit) app_invocations and one probe_latency_ms observation from its
// duration; and probe_errors when it carries an error. Installed as a
// ledger sink (Ledger.SetSink), it makes the registry a live view of
// the ledger.
func (m *Metrics) RecordProbe(e ProbeEvent) {
	if m == nil {
		return
	}
	m.Counter("probes_total").Add(1)
	m.Counter("cache_" + e.Cache).Add(1)
	m.Counter("phase_probes." + e.Phase).Add(1)
	if e.Cache != CacheHit && e.Cache != CacheDisk {
		m.Counter("app_invocations").Add(1)
		m.Histogram("probe_latency_ms").Observe(float64(e.DurUS) / 1e3)
	}
	if e.Err != "" {
		m.Counter("probe_errors").Add(1)
	}
}

// RecordPhases observes each pipeline phase of an exported span tree
// (Tracer.Events) once in its phase_ms.<name> histogram: the phases
// are the children of the root span, and each observation is its
// duration in milliseconds.
func (m *Metrics) RecordPhases(spans []SpanEvent) {
	if m == nil || len(spans) == 0 {
		return
	}
	root := spans[0].ID
	for _, sp := range spans[1:] {
		if sp.Parent == root {
			m.Histogram("phase_ms." + sp.Name).Observe(float64(sp.DurUS) / 1e3)
		}
	}
}

// HistogramSnapshot is the typed point-in-time state of one
// histogram: bucket upper bounds, per-bucket (non-cumulative) counts
// with the overflow bucket last, and the observation count and sum.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// RegistrySnapshot is a typed point-in-time copy of the registry. It
// keeps the metric kinds apart, as the Prometheus TYPE lines need.
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Export returns the typed registry snapshot; nil registries export
// empty (non-nil) maps so encoders need no nil checks.
func (m *Metrics) Export() RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		out.Histograms[name] = h.Snapshot()
	}
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter; nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value; nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value reads the gauge; nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bucket upper bounds in
// milliseconds (the last bucket is unbounded).
var DefaultLatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// Histogram counts observations into fixed buckets and tracks their
// count and sum.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	n      int64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value (latencies: milliseconds); nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sum += v
}

// Snapshot copies the histogram state; nil-safe (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
	}
}
