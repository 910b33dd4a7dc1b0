package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// TraceSummary is the outcome of validating a JSONL trace file.
type TraceSummary struct {
	// Spans and Probes count the validated lines of each type.
	Spans  int
	Probes int
	// Hits/Disk/Misses/Bypass/None break the probe events down by
	// cache outcome. Hits + Disk + every executed class (Misses,
	// Bypass, None) equals Probes.
	Hits   int
	Disk   int
	Misses int
	Bypass int
	None   int
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
	return s.Misses + s.Bypass + s.None
}

func (s *TraceSummary) String() string {
	return fmt.Sprintf("spans=%d probes=%d (executed=%d hits=%d disk=%d misses=%d bypass=%d none=%d) phases=%d",
		s.Spans, s.Probes, s.Executed(), s.Hits, s.Disk, s.Misses, s.Bypass, s.None, len(s.ByPhase))
}

// validCache enumerates the legal cache outcomes.
var validCache = map[string]bool{
	CacheHit: true, CacheDisk: true, CacheMiss: true, CacheBypass: true, CacheNone: true,
}

// validKind enumerates the legal probe kinds.
var validKind = map[string]bool{KindExec: true, KindRename: true}

// Validate checks a JSONL trace against the schema of DESIGN.md §8:
// every line is a JSON object with a known "type"; span ids are
// unique, positive and pre-order (every parent id was seen before its
// children, root parent is 0); probe events carry a phase, a legal
// kind and cache outcome, well-formed hex fingerprints/digests, and a
// result exclusively on success (rows/digest) or failure (err).
// The first error is returned with its line number.
func Validate(r io.Reader) (*TraceSummary, error) {
	sum := &TraceSummary{ByPhase: map[string]int{}}
	seenSpans := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		typ, err := lineType(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch typ {
		case TypeRun:
			var h RunHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if h.App == "" {
				return nil, fmt.Errorf("line %d: run header without app", line)
			}
			sum.Apps = append(sum.Apps, h.App)
		case TypeSpan:
			var s SpanEvent
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if err := checkSpan(&s, seenSpans); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			seenSpans[s.ID] = true
			sum.Spans++
		case TypeProbe:
			var p ProbeEvent
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if err := checkProbe(&p); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			sum.Probes++
			sum.ByPhase[p.Phase]++
			switch p.Cache {
			case CacheHit:
				sum.Hits++
			case CacheDisk:
				sum.Disk++
			case CacheMiss:
				sum.Misses++
			case CacheBypass:
				sum.Bypass++
			case CacheNone:
				sum.None++
			}
		default:
			return nil, fmt.Errorf("line %d: unknown event type %q", line, typ)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sum, nil
}

func checkSpan(s *SpanEvent, seen map[int]bool) error {
	if s.Name == "" {
		return fmt.Errorf("span without name")
	}
	if s.ID <= 0 {
		return fmt.Errorf("span %q: id %d must be positive", s.Name, s.ID)
	}
	if seen[s.ID] {
		return fmt.Errorf("span %q: duplicate id %d", s.Name, s.ID)
	}
	if s.Parent != 0 && !seen[s.Parent] {
		return fmt.Errorf("span %q: parent %d not seen before child %d (spans must be pre-order)",
			s.Name, s.Parent, s.ID)
	}
	if s.DurUS < 0 || s.StartUS < 0 {
		return fmt.Errorf("span %q: negative timing", s.Name)
	}
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

// validJobState enumerates the lifecycle states a job frame may carry.
var validJobState = map[string]bool{
	"queued": true, "running": true, "done": true, "failed": true, "cancelled": true,
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
	seenSpans := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == ':' {
			continue // SSE keep-alive comment or frame separator
		}
		if before, after, ok := bytes.Cut(raw, []byte(":")); ok && !bytes.HasPrefix(raw, []byte("{")) {
			// SSE field line: only data fields carry frames.
			if string(before) != "data" {
				continue
			}
			raw = bytes.TrimSpace(after)
		}
		typ, err := lineType(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch typ {
		case TypeRun:
			var h RunHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if h.App == "" {
				return nil, fmt.Errorf("line %d: run header without app", line)
			}
			sum.Apps = append(sum.Apps, h.App)
		case TypeSpan:
			var s SpanEvent
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if s.ID == 0 {
				// Live frame: no pre-order id yet, so no parent link.
				if s.Name == "" {
					return nil, fmt.Errorf("line %d: span without name", line)
				}
				if s.Parent != 0 {
					return nil, fmt.Errorf("line %d: live span %q carries parent %d without an id", line, s.Name, s.Parent)
				}
				if s.DurUS < 0 || s.StartUS < 0 {
					return nil, fmt.Errorf("line %d: span %q: negative timing", line, s.Name)
				}
			} else {
				// Replayed export: full trace-file rules apply.
				if err := checkSpan(&s, seenSpans); err != nil {
					return nil, fmt.Errorf("line %d: %w", line, err)
				}
				seenSpans[s.ID] = true
			}
			if s.Open {
				sum.OpenSpans++
			}
			sum.Spans++
		case TypeProbe:
			var p ProbeEvent
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if err := checkProbe(&p); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			sum.Probes++
		case TypeJob:
			var j JobEvent
			if err := json.Unmarshal(raw, &j); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if !validJobState[j.State] {
				return nil, fmt.Errorf("line %d: job frame with unknown state %q", line, j.State)
			}
			sum.Jobs++
			sum.Final = j.State
		default:
			return nil, fmt.Errorf("line %d: unknown event type %q", line, typ)
		}
		sum.Frames++
	}
	if err := sc.Err(); err != nil {
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
