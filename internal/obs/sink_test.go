package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestLedgerSink(t *testing.T) {
	l := NewLedger()
	var got []ProbeEvent
	l.SetSink(func(e ProbeEvent) { got = append(got, e) })
	l.Record(ProbeEvent{Phase: "filters", Kind: KindExec, Cache: CacheMiss})
	l.Record(ProbeEvent{Phase: "filters", Kind: KindExec, Cache: CacheHit, FP: "ab"})
	if len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(got))
	}
	if got[0].Type != TypeProbe || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Errorf("sink events not stamped in arrival order: %+v", got)
	}
	if l.Len() != 2 {
		t.Errorf("ledger lost events: len=%d", l.Len())
	}
	l.SetSink(nil)
	l.Record(ProbeEvent{Phase: "filters", Kind: KindExec, Cache: CacheMiss})
	if len(got) != 2 {
		t.Error("uninstalled sink still fired")
	}
	var nilLedger *Ledger
	nilLedger.SetSink(func(ProbeEvent) { t.Error("sink on nil ledger fired") })
	nilLedger.Record(ProbeEvent{})
}

func TestMetricsExportTyped(t *testing.T) {
	m := NewMetrics()
	m.Counter("probes_total").Add(5)
	m.Gauge("queue_depth").Set(3)
	m.Histogram("probe_latency_ms").Observe(1.5)
	snap := m.Export()
	if snap.Counters["probes_total"] != 5 {
		t.Errorf("counter lost: %+v", snap.Counters)
	}
	if snap.Gauges["queue_depth"] != 3 {
		t.Errorf("gauge lost: %+v", snap.Gauges)
	}
	h, ok := snap.Histograms["probe_latency_ms"]
	if !ok || h.Count != 1 || h.Sum != 1.5 {
		t.Errorf("histogram snapshot wrong: %+v", h)
	}
	if len(h.Bounds)+1 != len(h.Counts) {
		t.Errorf("snapshot bucket shape: %d bounds, %d counts", len(h.Bounds), len(h.Counts))
	}
	var nilM *Metrics
	empty := nilM.Export()
	if empty.Counters == nil || empty.Gauges == nil || empty.Histograms == nil {
		t.Error("nil registry must export empty, non-nil maps")
	}
}

// TestHistogramQuantileBucketBoundaries pins bucket placement at the
// bounds, which the cumulative le buckets of the Prometheus exposition
// restate.
func TestHistogramQuantileBucketBoundaries(t *testing.T) {
	m := NewMetrics()
	// A value exactly on a bound counts into that bound's bucket
	// (le semantics: v > bound moves to the next bucket).
	// DefaultLatencyBuckets start 0.1, 0.25, 0.5, ...
	h := m.Histogram("lat")
	h.Observe(0.25)
	counts := h.Snapshot().Counts
	if counts[1] != 1 {
		t.Errorf("boundary observation 0.25 not in the le=0.25 bucket: %v", counts)
	}
	// A value past the last bound lands in the overflow bucket.
	h2 := m.Histogram("lat2")
	h2.Observe(999999)
	counts = h2.Snapshot().Counts
	if len(counts) != len(DefaultLatencyBuckets)+1 || counts[len(counts)-1] != 1 {
		t.Errorf("overflow observation not in the overflow bucket: %v", counts)
	}
}

// TestValidateStreamAcceptsLiveFrames: a job's stream carries the
// frames of its trace file — the span export, with ids, after the
// probes — plus job lifecycle frames.
func TestValidateStreamAcceptsLiveFrames(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"type":"job","id":7,"state":"running"}` + "\n")
	b.WriteString(`{"type":"run","app":"tpch/Q3","workers":2}` + "\n")
	b.WriteString(`{"type":"probe","phase":"filters","phase_seq":4,"kind":"exec","cache":"miss","digest":"ab","rows":1}` + "\n")
	b.WriteString(`{"type":"span","id":1,"parent":0,"name":"extract","seq":-1,"start_us":0,"dur_us":400}` + "\n")
	b.WriteString(`{"type":"span","id":2,"parent":1,"name":"filters","seq":1,"start_us":10,"dur_us":300}` + "\n")
	b.WriteString(`{"type":"job","id":7,"state":"done"}` + "\n")
	sum, err := ValidateStream(&b)
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if sum.Frames != 6 || sum.Spans != 2 || sum.Probes != 1 || sum.Jobs != 2 {
		t.Errorf("summary wrong: %+v", sum)
	}
	if sum.Final != "done" || len(sum.Apps) != 1 {
		t.Errorf("summary wrong: %+v", sum)
	}
	if !strings.Contains(sum.String(), "final=done") {
		t.Errorf("String() = %q", sum.String())
	}
}

func TestValidateStreamAcceptsSSETranscript(t *testing.T) {
	sse := "data: {\"type\":\"run\",\"app\":\"x\"}\n" +
		"\n" +
		": keep-alive\n" +
		"data: {\"type\":\"job\",\"state\":\"running\"}\n" +
		"\n" +
		"data: {\"type\":\"job\",\"state\":\"done\"}\n\n"
	sum, err := ValidateStream(strings.NewReader(sse))
	if err != nil {
		t.Fatalf("SSE transcript rejected: %v", err)
	}
	if sum.Frames != 3 || sum.Jobs != 2 || sum.Final != "done" {
		t.Errorf("summary wrong: %+v", sum)
	}
}

func TestValidateStreamRejections(t *testing.T) {
	cases := map[string]string{
		"empty capture":            "",
		"unknown type":             `{"type":"mystery"}`,
		"id-less span with parent": `{"type":"span","name":"a","parent":3}`,
		"id-less span (old live)":  `{"type":"span","name":"filters","seq":1,"start_us":10,"dur_us":300}`,
		"span without name":        `{"type":"span"}`,
		"bad job state":            `{"type":"job","state":"zombie"}`,
		"bad probe":                `{"type":"probe","phase":"p","kind":"nope","cache":"miss"}`,
		"exported dup id":          `{"type":"span","id":1,"name":"a"}` + "\n" + `{"type":"span","id":1,"name":"b"}`,
		"negative timing":          `{"type":"span","name":"a","dur_us":-1}`,
	}
	for name, in := range cases {
		if _, err := ValidateStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Span frames follow the pre-order rules of a trace file.
	good := `{"type":"span","id":1,"name":"root"}` + "\n" + `{"type":"span","id":2,"parent":1,"name":"child"}`
	if _, err := ValidateStream(strings.NewReader(good)); err != nil {
		t.Errorf("pre-order exported spans rejected: %v", err)
	}
}
