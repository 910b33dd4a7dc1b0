package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed exposition sample.
type PromSample struct {
	// Name is the full series name (histogram samples keep their
	// _bucket/_sum/_count suffix).
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily groups the samples of one declared metric family.
type PromFamily struct {
	Name    string // the TYPE-declared base name
	Type    string // counter | gauge | histogram | summary | untyped
	Samples []PromSample
}

// ParsePromText parses and validates a Prometheus text-exposition
// (0.0.4) document — the round-trip check CI runs against the live
// daemon's /metrics and the CLI's -metrics output. Beyond syntax, it
// enforces the invariants scrapers rely on:
//
//   - every sample belongs to a family declared by a # TYPE line
//     (this validator checks encoder output, which always declares);
//   - no family is declared twice, no series repeats a label set;
//   - histogram families have cumulative, non-decreasing buckets in
//     ascending le order ending at le="+Inf", and carry matching
//     _count (== the +Inf bucket) and _sum series per label set.
//
// Families are returned sorted by name with their samples in input
// order.
func ParsePromText(r io.Reader) ([]PromFamily, error) {
	fams := map[string]*PromFamily{}
	var order []string
	seenSeries := map[string]bool{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := fams[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE declaration for %s", lineNo, name)
				}
				fams[name] = &PromFamily{Name: name, Type: typ}
				order = append(order, name)
			}
			continue // HELP and comments
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(fams, sample.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, sample.Name)
		}
		key := seriesKey(sample)
		if seenSeries[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seenSeries[key] = true
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for _, name := range order {
		fam := fams[name]
		if fam.Type == "histogram" {
			if err := checkHistogramFamily(fam); err != nil {
				return nil, fmt.Errorf("family %s: %w", name, err)
			}
		}
	}
	sort.Strings(order)
	out := make([]PromFamily, 0, len(order))
	for _, name := range order {
		out = append(out, *fams[name])
	}
	return out, nil
}

// familyOf resolves a sample name to its declared family, peeling
// histogram suffixes.
func familyOf(fams map[string]*PromFamily, name string) *PromFamily {
	if f, ok := fams[name]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if f, ok := fams[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := findLabelEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("malformed sample value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// findLabelEnd locates the closing brace of a label block, honouring
// quoted values with escapes.
func findLabelEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parseLabels parses `k1="v1",k2="v2"` with \\, \" and \n escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		var val strings.Builder
		i := 1
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("unknown escape \\%c in label %s", s[i+1], key)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		s = s[i:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// checkHistogramFamily enforces the bucket invariants per label set.
func checkHistogramFamily(fam *PromFamily) error {
	type group struct {
		les     []float64
		counts  []int64
		infSeen bool
		inf     int64
		count   int64
		hasCnt  bool
		hasSum  bool
	}
	groups := map[string]*group{}
	groupOf := func(labels map[string]string) *group {
		key := labelSetKey(labels, "le")
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
		}
		return g
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			g := groupOf(s.Labels)
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			if le == "+Inf" {
				g.infSeen = true
				g.inf = int64(s.Value)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("malformed le %q", le)
			}
			g.les = append(g.les, bound)
			g.counts = append(g.counts, int64(s.Value))
		case fam.Name + "_count":
			g := groupOf(s.Labels)
			g.count = int64(s.Value)
			g.hasCnt = true
		case fam.Name + "_sum":
			groupOf(s.Labels).hasSum = true
		default:
			return fmt.Errorf("unexpected histogram series %s", s.Name)
		}
	}
	for key, g := range groups {
		if !g.infSeen {
			return fmt.Errorf("label set %s: no le=\"+Inf\" bucket", key)
		}
		if !g.hasCnt || !g.hasSum {
			return fmt.Errorf("label set %s: missing _count or _sum", key)
		}
		if g.inf != g.count {
			return fmt.Errorf("label set %s: +Inf bucket %d != count %d", key, g.inf, g.count)
		}
		prev := int64(0)
		for i, c := range g.counts {
			if i > 0 && g.les[i] <= g.les[i-1] {
				return fmt.Errorf("label set %s: buckets out of order (le %v after %v)", key, g.les[i], g.les[i-1])
			}
			if c < prev {
				return fmt.Errorf("label set %s: non-cumulative bucket at le %v", key, g.les[i])
			}
			prev = c
		}
		if prev > g.inf {
			return fmt.Errorf("label set %s: finite bucket %d exceeds +Inf %d", key, prev, g.inf)
		}
	}
	return nil
}

// seriesKey identifies a series: name plus its sorted label set.
func seriesKey(s PromSample) string {
	return s.Name + labelSetKey(s.Labels, "")
}

// labelSetKey renders labels (minus the excluded key) sorted, for
// grouping and duplicate detection.
func labelSetKey(labels map[string]string, exclude string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == exclude {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// isNameChar reports whether c is legal in a metric name (digits are
// illegal only in leading position).
func isNameChar(c byte, leading bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !leading
	default:
		return false
	}
}
