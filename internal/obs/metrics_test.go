package obs

import (
	"sync"
	"testing"
)

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	m.Counter("probes_total").Add(3)
	m.Counter("probes_total").Add(2) // same instrument, not a new one
	m.Gauge("rows").Set(41)
	m.Gauge("rows").Set(17)
	if got := m.Counter("probes_total").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := m.Gauge("rows").Value(); got != 17 {
		t.Errorf("gauge = %d, want 17", got)
	}
}

func TestMetricsHistogram(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("probe_latency_ms")
	for _, v := range []float64{0.05, 0.2, 3, 10000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Errorf("count = %d, want 4", snap.Count)
	}
	if snap.Sum != 10003.25 {
		t.Errorf("sum = %v", snap.Sum)
	}
	counts := snap.Counts
	// 0.05 → bucket 0 (≤0.1); 10000 → overflow bucket.
	if counts[0] != 1 || counts[len(counts)-1] != 1 {
		t.Errorf("bucket assignment wrong: %v", counts)
	}
}

func TestMetricsNilSafety(t *testing.T) {
	var m *Metrics
	m.Counter("a").Add(1)
	m.Gauge("b").Set(1)
	m.Histogram("c").Observe(1)
	if m.Counter("a").Value() != 0 || m.Gauge("b").Value() != 0 {
		t.Error("nil registry returned live instruments")
	}
	if h := m.Histogram("c").Snapshot(); h.Count != 0 || h.Sum != 0 {
		t.Error("nil histogram retained observations")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Counter("n").Add(1)
				m.Histogram("h").Observe(1)
				m.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if m.Counter("n").Value() != 800 || m.Histogram("h").Snapshot().Count != 800 {
		t.Fatalf("lost updates: n=%d h=%d", m.Counter("n").Value(), m.Histogram("h").Snapshot().Count)
	}
}

// TestRecordProbeFoldsLedgerEvents: each event lands in probes_total,
// its cache outcome and its phase; only events that ran the
// executable count as invocations with a latency observation; errors
// count once.
func TestRecordProbeFoldsLedgerEvents(t *testing.T) {
	m := NewMetrics()
	for _, e := range []ProbeEvent{
		{Phase: "from-clause", Kind: KindRename, Table: "t", Cache: CacheBypass, Err: "no such table", DurUS: 1500},
		{Phase: "filters", Kind: KindExec, FP: "ab", Cache: CacheMiss, DurUS: 250},
		{Phase: "filters", Kind: KindExec, FP: "ab", Cache: CacheHit, DurUS: 7},
		{Phase: "filters", Kind: KindExec, FP: "cd", Cache: CacheDisk, DurUS: 9},
	} {
		m.RecordProbe(e)
	}
	for name, want := range map[string]int64{
		"probes_total": 4, "app_invocations": 2, "probe_errors": 1,
		"cache_bypass": 1, "cache_miss": 1, "cache_hit": 1, "cache_disk": 1,
		"phase_probes.from-clause": 1, "phase_probes.filters": 3,
	} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := m.Histogram("probe_latency_ms").Snapshot()
	if h.Count != 2 || h.Sum != 1.75 {
		t.Errorf("probe_latency_ms count=%d sum=%v, want 2 and 1.75", h.Count, h.Sum)
	}
	var nilM *Metrics
	nilM.RecordProbe(ProbeEvent{Cache: CacheMiss})
	nilM.RecordPhases([]SpanEvent{{ID: 1}})
}

// TestRecordPhasesObservesRootChildren: one phase_ms observation per
// child of the root span, none for deeper spans.
func TestRecordPhasesObservesRootChildren(t *testing.T) {
	m := NewMetrics()
	m.RecordPhases(nil)
	m.RecordPhases([]SpanEvent{
		{ID: 1, Name: "extract", DurUS: 9000},
		{ID: 2, Parent: 1, Name: "from-clause", DurUS: 2000},
		{ID: 3, Parent: 2, Name: "probe", DurUS: 500},
		{ID: 4, Parent: 1, Name: "minimizer", DurUS: 3000, Err: "boom"},
	})
	for name, want := range map[string]float64{"from-clause": 2, "minimizer": 3} {
		h := m.Histogram("phase_ms." + name).Snapshot()
		if h.Count != 1 || h.Sum != want {
			t.Errorf("phase_ms.%s count=%d sum=%v, want 1 and %v", name, h.Count, h.Sum, want)
		}
	}
	if got := len(m.Export().Histograms); got != 2 {
		t.Errorf("%d histograms, want 2 (probe spans are not phases)", got)
	}
}
