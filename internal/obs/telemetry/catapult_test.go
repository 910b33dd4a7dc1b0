package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"unmasque/internal/obs"
)

func catapultFixture() (obs.RunHeader, []obs.SpanEvent, []obs.ProbeEvent) {
	h := obs.RunHeader{Type: obs.TypeRun, App: "tpch/Q3", Workers: 2, Seed: 1}
	spans := []obs.SpanEvent{
		{Type: obs.TypeSpan, ID: 1, Parent: 0, Name: "extract", Seq: -1, StartUS: 0, DurUS: 5000},
		{Type: obs.TypeSpan, ID: 2, Parent: 1, Name: "filters", Seq: 1, StartUS: 100, DurUS: 2000,
			Attrs: map[string]string{"columns": "3"}},
		{Type: obs.TypeSpan, ID: 3, Parent: 2, Name: "probe", Seq: 0, StartUS: 150, DurUS: 80, Err: "timeout"},
	}
	probes := []obs.ProbeEvent{
		{Type: obs.TypeProbe, Phase: "filters", PhaseSeq: 4, Kind: obs.KindExec,
			Cache: obs.CacheMiss, Digest: "ab", Rows: 1, Worker: 1, TSUS: 150, DurUS: 80},
		{Type: obs.TypeProbe, Phase: "from-clause", PhaseSeq: 1, Kind: obs.KindRename,
			Table: "orders", Cache: obs.CacheBypass, Err: "no such table", Worker: 0, TSUS: 10, DurUS: 30},
	}
	return h, spans, probes
}

func TestWriteCatapultStructure(t *testing.T) {
	h, spans, probes := catapultFixture()
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, h, spans, probes); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
		Other       map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc.Unit != "ms" || doc.Other["app"] != "tpch/Q3" || doc.Other["workers"] != float64(2) {
		t.Errorf("container metadata wrong: unit=%q other=%v", doc.Unit, doc.Other)
	}
	var metas, spanEvents, probeEvents int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			metas++
		case "X":
			switch e["cat"] {
			case "span":
				spanEvents++
				if e["tid"] != float64(0) {
					t.Errorf("span on wrong track: %v", e)
				}
			case "probe":
				probeEvents++
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	// process_name + pipeline thread + 2 worker threads.
	if metas != 4 || spanEvents != 3 || probeEvents != 2 {
		t.Errorf("event counts: meta=%d span=%d probe=%d", metas, spanEvents, probeEvents)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"worker 0"`, `"name":"worker 1"`, `"name":"pipeline"`,
		`"name":"exec:filters"`, `"name":"rename:from-clause"`,
		`"err":"timeout"`, `"table":"orders"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in output", want)
		}
	}
}

func TestWriteCatapultDeterministic(t *testing.T) {
	h, spans, probes := catapultFixture()
	var a, b bytes.Buffer
	if err := WriteCatapult(&a, h, spans, probes); err != nil {
		t.Fatal(err)
	}
	if err := WriteCatapult(&b, h, spans, probes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders differ")
	}
}

func TestCatapultFromTrace(t *testing.T) {
	// Build a real trace file through the obs writer, then convert.
	tr := obs.NewTracer("extract")
	phase := tr.Root().Child("filters", obs.SeqAuto)
	phase.End()
	tr.Root().End()
	l := obs.NewLedger()
	l.Record(obs.ProbeEvent{Phase: "filters", PhaseSeq: 1, Kind: obs.KindExec,
		Cache: obs.CacheMiss, Digest: "ab", Rows: 1})
	var trace bytes.Buffer
	h := obs.RunHeader{App: "enki/posts_by_tag", Workers: 1}
	if err := obs.WriteTrace(&trace, h, tr.Events(), l); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := CatapultFromTrace(&out, bytes.NewReader(trace.Bytes())); err != nil {
		t.Fatalf("conversion failed: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("converted output not JSON: %v", err)
	}
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatalf("no traceEvents in conversion: %v", doc)
	}
}

func TestCatapultFromTraceRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not json":     "hello\n",
		"unknown type": `{"type":"mystery"}` + "\n",
	} {
		if err := CatapultFromTrace(&bytes.Buffer{}, strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceFileReadersRejectStreamFrames: the three readers of trace
// files share obs.Decode, which refuses what only a live stream may
// carry — an SSE data line and a job lifecycle frame — and skips only
// empty lines, so a whitespace-only line is refused too.
func TestTraceFileReadersRejectStreamFrames(t *testing.T) {
	const run = `{"type":"run","app":"q1"}` + "\n"
	readers := map[string]func(string) error{
		"Validate": func(in string) error {
			_, err := obs.Validate(strings.NewReader(in))
			return err
		},
		"StripVolatile": func(in string) error {
			_, err := obs.StripVolatile([]byte(in))
			return err
		},
		"CatapultFromTrace": func(in string) error {
			return CatapultFromTrace(&bytes.Buffer{}, strings.NewReader(in))
		},
	}
	cases := map[string]string{
		"data line":       run + `data: {"type":"span","id":2,"parent":1,"name":"x"}` + "\n",
		"job frame":       run + `{"type":"job","id":1,"state":"done"}` + "\n",
		"whitespace line": run + "  \n",
	}
	for reader, read := range readers {
		if err := read(run + "\n" + run); err != nil {
			t.Errorf("%s rejects a trace with an empty line: %v", reader, err)
		}
		for name, in := range cases {
			if err := read(in); err == nil {
				t.Errorf("%s accepted a %s", reader, name)
			} else if !strings.Contains(err.Error(), "line 2:") {
				t.Errorf("%s: %s rejected without its line number: %v", reader, name, err)
			}
		}
	}
}

func TestWriteCatapultEmptyApp(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatapult(&buf, obs.RunHeader{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"unmasque"`) {
		t.Errorf("empty app must fall back to a default process name:\n%s", buf.String())
	}
}
