package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Frame is one decoded line of a trace file or live stream. Type is
// the line's "type" discriminator, and the field of that type holds
// the event.
type Frame struct {
	Type  string
	Run   RunHeader
	Span  SpanEvent
	Probe ProbeEvent
	Job   JobEvent
}

// Decode reads a JSONL trace file (the -trace and /jobs/{id}/trace
// format) and hands every event to fn in file order. Only empty lines
// are skipped; every other line must be a JSON object of type run,
// span or probe (job frames belong to live streams). The first error,
// a malformed line or fn's own, is returned with its line number.
// Decode checks no schema rule beyond the type: Validate does.
func Decode(r io.Reader, fn func(Frame) error) error { return decode(r, false, fn) }

// decode is Decode with an SSE switch: with sse set it reads a live
// stream instead, as raw JSONL or as the SSE transcript curl captures
// (sseData), and accepts job frames.
func decode(r io.Reader, sse bool, fn func(Frame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if sse {
			var ok bool
			if raw, ok = sseData(raw); !ok {
				continue
			}
		} else if len(raw) == 0 {
			continue
		}
		f, err := decodeFrame(raw, sse)
		if err == nil {
			err = fn(f)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// sseData extracts the frame of one stream line: the trimmed line when
// it is raw JSON, or the value of an SSE data field (which may be
// empty, and then fails to decode). Blank lines, SSE comments and
// other SSE fields carry no frame.
func sseData(raw []byte) (frame []byte, ok bool) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || raw[0] == ':' {
		return nil, false
	}
	if field, value, found := bytes.Cut(raw, []byte(":")); found && raw[0] != '{' {
		return bytes.TrimSpace(value), string(field) == "data"
	}
	return raw, true
}

// decodeFrame peeks the "type" of one line and unmarshals it into the
// matching event; job frames are legal only in streams.
func decodeFrame(raw []byte, stream bool) (Frame, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return Frame{}, fmt.Errorf("not a JSON object: %w", err)
	}
	f := Frame{Type: head.Type}
	var v any
	switch {
	case f.Type == TypeRun:
		v = &f.Run
	case f.Type == TypeSpan:
		v = &f.Span
	case f.Type == TypeProbe:
		v = &f.Probe
	case f.Type == TypeJob && stream:
		v = &f.Job
	default:
		return f, fmt.Errorf("unknown event type %q", f.Type)
	}
	return f, json.Unmarshal(raw, v)
}

// TraceSummary is the outcome of validating a JSONL trace file.
type TraceSummary struct {
	// Spans and Probes count the validated lines of each type.
	Spans  int
	Probes int
	// Hits/Disk/Misses/Bypass break the probe events down by cache
	// outcome. Hits + Disk + every executed class (Misses, Bypass)
	// equals Probes.
	Hits   int
	Disk   int
	Misses int
	Bypass int
	// ByPhase counts probe events per pipeline phase.
	ByPhase map[string]int
	// Apps lists the run headers seen (normally exactly one).
	Apps []string
}

// Executed reports the number of probe events that actually invoked
// the executable (everything except in-memory and disk cache hits).
// For a complete trace this equals the extraction's
// Stats.AppInvocations.
func (s *TraceSummary) Executed() int {
	return s.Misses + s.Bypass
}

func (s *TraceSummary) String() string {
	return fmt.Sprintf("spans=%d probes=%d (executed=%d hits=%d disk=%d misses=%d bypass=%d) phases=%d",
		s.Spans, s.Probes, s.Executed(), s.Hits, s.Disk, s.Misses, s.Bypass, len(s.ByPhase))
}

// validCache enumerates the legal cache outcomes.
var validCache = map[string]bool{
	CacheHit: true, CacheDisk: true, CacheMiss: true, CacheBypass: true,
}

// validKind enumerates the legal probe kinds.
var validKind = map[string]bool{KindExec: true, KindRename: true}

// validJobState enumerates the lifecycle states a job frame may carry.
var validJobState = map[string]bool{
	"queued": true, "running": true, "done": true, "failed": true, "cancelled": true,
}

// Validate checks a JSONL trace against the schema of DESIGN.md §8:
// every line is a JSON object with a known "type"; span ids are
// unique, positive and pre-order (every parent id was seen before its
// children, root parent is 0); probe events carry a phase, a legal
// kind and cache outcome, well-formed hex fingerprints/digests, and a
// result exclusively on success (rows/digest) or failure (err).
// The first error is returned with its line number.
func Validate(r io.Reader) (*TraceSummary, error) {
	sum := &TraceSummary{ByPhase: map[string]int{}}
	seen := map[int]bool{}
	err := Decode(r, func(f Frame) error {
		if err := checkFrame(&f, seen, false); err != nil {
			return err
		}
		switch f.Type {
		case TypeRun:
			sum.Apps = append(sum.Apps, f.Run.App)
		case TypeSpan:
			sum.Spans++
		case TypeProbe:
			sum.Probes++
			sum.ByPhase[f.Probe.Phase]++
			switch f.Probe.Cache {
			case CacheHit:
				sum.Hits++
			case CacheDisk:
				sum.Disk++
			case CacheMiss:
				sum.Misses++
			case CacheBypass:
				sum.Bypass++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sum, nil
}

// checkFrame applies the schema rules of f's type. seen holds the ids
// of the spans checked so far. With live set, a span without an id is
// a live stream frame: it has no place in the pre-order tree yet, so
// it must carry no parent either.
func checkFrame(f *Frame, seen map[int]bool, live bool) error {
	switch f.Type {
	case TypeRun:
		if f.Run.App == "" {
			return fmt.Errorf("run header without app")
		}
	case TypeSpan:
		return checkSpan(&f.Span, seen, live)
	case TypeProbe:
		return checkProbe(&f.Probe)
	case TypeJob:
		if !validJobState[f.Job.State] {
			return fmt.Errorf("job frame with unknown state %q", f.Job.State)
		}
	}
	return nil
}

func checkSpan(s *SpanEvent, seen map[int]bool, live bool) error {
	switch {
	case s.Name == "":
		return fmt.Errorf("span without name")
	case s.DurUS < 0 || s.StartUS < 0:
		return fmt.Errorf("span %q: negative timing", s.Name)
	case live && s.ID == 0 && s.Parent != 0:
		return fmt.Errorf("live span %q carries parent %d without an id", s.Name, s.Parent)
	case live && s.ID == 0:
		return nil
	case s.ID <= 0:
		return fmt.Errorf("span %q: id %d must be positive", s.Name, s.ID)
	case seen[s.ID]:
		return fmt.Errorf("span %q: duplicate id %d", s.Name, s.ID)
	case s.Parent != 0 && !seen[s.Parent]:
		return fmt.Errorf("span %q: parent %d not seen before child %d (spans must be pre-order)",
			s.Name, s.Parent, s.ID)
	}
	seen[s.ID] = true
	return nil
}

func checkProbe(p *ProbeEvent) error {
	if p.Phase == "" {
		return fmt.Errorf("probe event without phase")
	}
	if !validKind[p.Kind] {
		return fmt.Errorf("probe event with unknown kind %q", p.Kind)
	}
	if !validCache[p.Cache] {
		return fmt.Errorf("probe event with unknown cache outcome %q", p.Cache)
	}
	if p.Kind == KindRename && p.Table == "" {
		return fmt.Errorf("rename probe without table")
	}
	if (p.Cache == CacheHit || p.Cache == CacheDisk) && p.FP == "" {
		return fmt.Errorf("cache hit without fingerprint")
	}
	if !isHex(p.FP) {
		return fmt.Errorf("malformed fingerprint %q", p.FP)
	}
	if !isHex(p.Digest) {
		return fmt.Errorf("malformed digest %q", p.Digest)
	}
	if p.Rows < 0 {
		return fmt.Errorf("negative row count %d", p.Rows)
	}
	if p.Err != "" && p.Digest != "" {
		return fmt.Errorf("probe event carries both an error and a result digest")
	}
	if p.DurUS < 0 || p.TSUS < 0 {
		return fmt.Errorf("negative timing")
	}
	return nil
}

// StreamSummary is the outcome of validating a live trace stream
// (the SSE feed of GET /jobs/{id}/trace/stream, or its captured
// transcript).
type StreamSummary struct {
	// Frames counts every validated frame; Spans/Probes/Jobs break
	// them down by type (run headers are counted in Frames and listed
	// in Apps).
	Frames int
	Spans  int
	Probes int
	Jobs   int
	// OpenSpans counts span frames emitted at span start (Open=true).
	OpenSpans int
	// Apps lists the run headers seen.
	Apps []string
	// Final is the state of the last job frame ("" when the capture
	// was cut before any lifecycle frame); a complete stream ends with
	// a terminal one.
	Final string
}

func (s *StreamSummary) String() string {
	final := s.Final
	if final == "" {
		final = "(none)"
	}
	return fmt.Sprintf("frames=%d spans=%d (open=%d) probes=%d jobs=%d final=%s",
		s.Frames, s.Spans, s.OpenSpans, s.Probes, s.Jobs, final)
}

// ValidateStream checks a live trace stream against the schema. It
// accepts both raw JSONL and the SSE transcript curl produces
// ("data: {...}" frames; event/id/retry and comment lines are
// skipped). Stream frames differ from trace-file lines in two ways:
// span frames may be live exports (ID 0, Parent 0 — pre-order ids
// exist only in the final file export; such frames may also be open,
// marking span start), and job lifecycle frames (TypeJob) are legal.
// Everything else — probe schema, run headers, pre-order rules for
// id-bearing spans — matches Validate. An empty capture is an error.
func ValidateStream(r io.Reader) (*StreamSummary, error) {
	sum := &StreamSummary{}
	seen := map[int]bool{}
	err := decode(r, true, func(f Frame) error {
		if err := checkFrame(&f, seen, true); err != nil {
			return err
		}
		switch f.Type {
		case TypeRun:
			sum.Apps = append(sum.Apps, f.Run.App)
		case TypeSpan:
			if f.Span.Open {
				sum.OpenSpans++
			}
			sum.Spans++
		case TypeProbe:
			sum.Probes++
		case TypeJob:
			sum.Jobs++
			sum.Final = f.Job.State
		}
		sum.Frames++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sum.Frames == 0 {
		return nil, fmt.Errorf("empty stream capture")
	}
	return sum, nil
}

// isHex accepts an empty string or an even-length lower-case hex
// string (how fingerprints and digests are rendered).
func isHex(s string) bool {
	if len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
