package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"unmasque/internal/obs"
)

// catapultEvent is one entry of the Chrome trace-event ("catapult")
// JSON format, the schema about://tracing and Perfetto ingest.
// Timestamps and durations are microseconds.
type catapultEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// catapultTrace is the JSON-object container variant of the format.
type catapultTrace struct {
	TraceEvents     []catapultEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	OtherData       map[string]any  `json:"otherData,omitempty"`
}

// writeCatapult renders a recorded extraction trace as Chrome
// trace-event JSON. Spans become complete ("X") events on the
// pipeline track (tid 0); probe-ledger events become complete events
// on one track per scheduler worker (tid = worker+1), so the Perfetto
// timeline shows phase structure above and probe fan-out below.
// Metadata events name the process after the traced application and
// label every track. The output is deterministic for a given input
// (events keep input order; workers are discovered in sorted order).
func writeCatapult(w io.Writer, h obs.RunHeader, spans []obs.SpanEvent, probes []obs.ProbeEvent) error {
	app := h.App
	if app == "" {
		app = "unmasque"
	}
	var events []catapultEvent
	events = append(events, metaEvent("process_name", 0, map[string]any{"name": app}))
	events = append(events, metaEvent("thread_name", 0, map[string]any{"name": "pipeline"}))

	workerSet := map[int]bool{}
	for _, p := range probes {
		workerSet[p.Worker] = true
	}
	workers := make([]int, 0, len(workerSet))
	for w := range workerSet {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, wk := range workers {
		events = append(events, metaEvent("thread_name", wk+1, map[string]any{
			"name": fmt.Sprintf("worker %d", wk),
		}))
	}

	for _, s := range spans {
		args := map[string]any{"seq": s.Seq, "id": s.ID, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		if s.Open {
			args["open"] = true
		}
		events = append(events, catapultEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS: s.StartUS, Dur: s.DurUS, PID: 1, TID: 0, Args: args,
		})
	}
	for _, p := range probes {
		args := map[string]any{"phase": p.Phase, "cache": p.Cache}
		if p.Table != "" {
			args["table"] = p.Table
		}
		if p.FP != "" {
			args["fp"] = p.FP
		}
		if p.Digest != "" {
			args["digest"] = p.Digest
			args["rows"] = p.Rows
		}
		if p.Err != "" {
			args["err"] = p.Err
		}
		events = append(events, catapultEvent{
			Name: p.Kind + ":" + p.Phase, Cat: "probe", Ph: "X",
			TS: p.TSUS, Dur: p.DurUS, PID: 1, TID: p.Worker + 1, Args: args,
		})
	}

	other := map[string]any{"app": app}
	if h.Workers != 0 {
		other["workers"] = h.Workers
	}
	if h.Seed != 0 {
		other["seed"] = h.Seed
	}
	enc := json.NewEncoder(w)
	return enc.Encode(catapultTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       other,
	})
}

// metaEvent builds one "M" metadata record.
func metaEvent(name string, tid int, args map[string]any) catapultEvent {
	return catapultEvent{Name: name, Ph: "M", PID: 1, TID: tid, Args: args}
}

// CatapultFromTrace converts a recorded JSONL trace file (the -trace
// / /jobs/{id}/trace format: run header, spans, probe ledger) into
// Chrome trace-event JSON. Probe events are replayed on their
// arrival-order timeline (TSUS), which StripVolatile zeroes — convert
// unstripped traces for a meaningful timeline.
func CatapultFromTrace(w io.Writer, r io.Reader) error {
	var (
		header obs.RunHeader
		spans  []obs.SpanEvent
		probes []obs.ProbeEvent
	)
	err := obs.Decode(r, func(f obs.Frame) error {
		switch f.Type {
		case obs.TypeRun:
			header = f.Run
		case obs.TypeSpan:
			spans = append(spans, f.Span)
		case obs.TypeProbe:
			probes = append(probes, f.Probe)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return writeCatapult(w, header, spans, probes)
}
