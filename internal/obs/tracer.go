package obs

import (
	"sort"
	"sync"
	"time"
)

// Tracer owns one span tree. It is safe for concurrent use: any
// goroutine may start children under any span and end its own spans.
// The zero-value pointer (nil) is a valid no-op tracer, and a nil
// *Span swallows every operation, so instrumented code never branches
// on whether tracing is enabled.
type Tracer struct {
	root *Span
}

// NewTracer starts a tracer whose root span carries the given name.
func NewTracer(name string) *Tracer {
	return &Tracer{root: newSpan(name, SeqAuto)}
}

// Root returns the root span (nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Events flattens the tree into deterministic SpanEvents: children
// are sorted by (seq, name) and ids assigned pre-order, so the same
// extraction yields the same ids regardless of how its probe spans
// interleaved in time. Spans still open at export time are marked
// Open and given their elapsed-so-far duration.
func (t *Tracer) Events() []SpanEvent {
	if t == nil || t.root == nil {
		return nil
	}
	var out []SpanEvent
	now := time.Now()
	epoch := t.root.start
	var walk func(s *Span, parent int)
	walk = func(s *Span, parent int) {
		ev := s.event(parent, epoch, now)
		ev.ID = len(out) + 1
		out = append(out, ev)
		id := ev.ID
		for _, c := range s.sortedChildren() {
			walk(c, id)
		}
	}
	walk(t.root, 0)
	return out
}

// SeqAuto lets the parent assign the next sequential index to a child
// span. Fan-out sites pass their probe index instead, which is what
// keeps sibling ordering deterministic under concurrency.
const SeqAuto = -1

// Span is one node of the trace tree.
type Span struct {
	mu       sync.Mutex
	name     string
	seq      int
	attrs    map[string]string
	err      error
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
	nextSeq  int
}

func newSpan(name string, seq int) *Span {
	return &Span{name: name, seq: seq, start: time.Now()}
}

// Child starts a sub-span. seq fixes the child's deterministic
// position among its siblings; SeqAuto takes the parent's next
// sequential slot (only safe when children are started one at a
// time, as pipeline phases are).
func (s *Span) Child(name string, seq int) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if seq == SeqAuto {
		seq = s.nextSeq
	}
	if seq >= s.nextSeq {
		s.nextSeq = seq + 1
	}
	c := newSpan(name, seq)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches one attribute. Attribute values become part of the
// exported trace, so they must be deterministic (no durations or
// pointers) to preserve the byte-identity guarantee.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
}

// End closes the span; repeated calls keep the first duration.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording the probe/phase error it ended
// with (nil for success).
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.err = err
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Seq returns the span's deterministic sibling index.
func (s *Span) Seq() int {
	if s == nil {
		return 0
	}
	return s.seq
}

// Duration returns the recorded duration (elapsed time for a span
// still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Err returns the error the span ended with, if any.
func (s *Span) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Attr reads one attribute.
func (s *Span) Attr(k string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[k]
}

// Children returns the sub-spans in deterministic (seq, name) order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.sortedChildren()
}

func (s *Span) sortedChildren() []*Span {
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].seq != kids[j].seq {
			return kids[i].seq < kids[j].seq
		}
		return kids[i].name < kids[j].name
	})
	return kids
}

// event renders the span as a flat SpanEvent (id assigned by caller).
func (s *Span) event(parent int, epoch, now time.Time) SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := SpanEvent{
		Type:    TypeSpan,
		Parent:  parent,
		Name:    s.name,
		Seq:     s.seq,
		StartUS: s.start.Sub(epoch).Microseconds(),
	}
	if len(s.attrs) > 0 {
		attrs := make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
		ev.Attrs = attrs
	}
	if s.err != nil {
		ev.Err = s.err.Error()
	}
	if s.ended {
		ev.DurUS = s.dur.Microseconds()
	} else {
		ev.DurUS = now.Sub(s.start).Microseconds()
		ev.Open = true
	}
	return ev
}
